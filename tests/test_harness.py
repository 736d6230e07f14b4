import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copsem.bounds import ConcentrationParams, DecoderModel, EncoderModel
from copsem import harness, image_io, metrics, rank_copula
from copsem.image_io import _BLOCK, _row_blocks
from copsem.harness import (
    DEFAULT_ALPHAS,
    ExperimentConfig,
    _cell,
    _concentration_l1,
    _mix_cells,
    _solve_weights,
    fixture_family,
    fixture_image,
    load_corpus,
    mix_with_uniform,
    run_axiom_table,
    run_channel_sweep,
    run_concentration,
    run_rd_curve,
    run_sla_pipeline,
    run_sla_surface,
    solve_decoder_weight,
    synthetic_corpus,
)
from copsem.codec import dequantize, quantize
from copsem.image_io import synth_noise, write_pgm
from copsem.metrics import _d_pc_batch, d_pc
from copsem.rank_copula import extract_family, non_overlapping_stride
from copsem.transforms import apply_transform, default_bank, gaussian_blur_array


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def read_lines(path):
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")


def test_config_refuses_a_repeated_image_name():
    # one stem rule for flags and config files, checked before any file is read
    # (these files do not exist)
    with pytest.raises(ValueError, match=r"^image name 'x' repeated by 'd2/x\.pgm'$"):
        ExperimentConfig(corpus=("d1/x.pgm", "y.pgm", "d2/x.pgm"))
    with pytest.raises(ValueError, match=r"^image name 'x' repeated by 'x\.PGM'$"):
        ExperimentConfig.from_dict({"corpus": ["d1/x.pgm", "x.PGM"]})
    assert ExperimentConfig(corpus=("d1/x.pgm", "d1/x.pgm.pgm")).corpus[1] == "d1/x.pgm.pgm"


def test_config_from_dict():
    cfg = ExperimentConfig.from_dict(
        {"bins": 4, "deltas": "1,0;0,1", "alphas": "0.5,0.25", "seed": 7}
    )
    assert cfg.bins == 4
    assert [tuple(d) for d in cfg.deltas] == [(1, 0), (0, 1)]
    assert cfg.alphas == (0.5, 0.25)
    assert cfg.seed == 7


def test_config_from_file_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bins": 4, "trials": 10}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.bins == 4 and cfg.trials == 10


def test_config_from_file_keyvalue(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nbins = 4\nstride=2\n")
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.bins == 4 and cfg.stride == 2


def test_config_bad_line(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("bins 4\n")
    with pytest.raises(ValueError):
        ExperimentConfig.from_file(str(path))


@pytest.mark.parametrize(
    "doc",
    [
        {"bin": 4},
        {"bins": None},
        {"bins": 1.7},
        {"bins": True},
        {"bins": [4]},
        {"deltas": 5},
        {"deltas": [5]},
        {"deltas": [[1, 0, 2]]},
        {"deltas": "1,0;0"},
        {"bers": 5},
        {"alphas": [None]},
        {"corpus": {"a": 1}},
        {"out_dir": None},
        # key=value strings that int() cannot read used to surface as
        # "invalid literal for int() with base 10", naming no key
        {"seed": "1e30"},
        {"seed": "1.5"},
        {"bins": "nan"},
        {"alphas": [10**400]},  # used to raise OverflowError
        {"seed": -1},
        {"deltas": []},
        {"deltas": [[1, 0], [1, 0]]},
    ],
)
def test_config_rejects_bad_values(doc):
    with pytest.raises(ValueError) as info:
        ExperimentConfig.from_dict(doc)
    ((key, value),) = doc.items()
    if key in ("seed", "bins") and isinstance(value, str):
        assert str(info.value) == f"config {key}: expected an integer, got {value!r}"


def test_config_accepts_integral_floats_and_lists():
    cfg = ExperimentConfig.from_dict(
        {"bins": 4.0, "deltas": [[1, 0], [0, 1]], "bers": [0.001, "0.01"], "corpus": "a.pgm,b.pgm"}
    )
    assert cfg.bins == 4 and isinstance(cfg.bins, int)
    assert [tuple(d) for d in cfg.deltas] == [(1, 0), (0, 1)]
    assert cfg.bers == (0.001, 0.01)
    assert cfg.corpus == ("a.pgm", "b.pgm")


CONFIG_KEYS = st.sampled_from(
    ["corpus", "deltas", "bins", "stride", "alphas", "bers", "trials", "seed", "out_dir", "bin"]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner),
    max_leaves=6,
)


@given(
    st.text(alphabet=st.characters(codec="utf-8"))
    | st.lists(st.tuples(CONFIG_KEYS, st.text(max_size=12))).map(
        lambda kv: "\n".join(f"{k}={v}" for k, v in kv)
    )
    | st.dictionaries(CONFIG_KEYS, JSON_VALUES).map(json.dumps)
)
def test_config_from_file_parses_or_raises_value_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    path.write_text(text, encoding="utf-8")
    try:
        cfg = ExperimentConfig.from_file(str(path))
    except ValueError:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_synthetic_corpus_properties():
    images = synthetic_corpus()
    assert len(images) == 20
    again = synthetic_corpus()
    for (name_a, a), (name_b, b) in zip(images, again):
        assert name_a == name_b
        assert a == b
    for _, img in images:
        assert img.width == 96 and img.height == 96
        assert int(img.pixels.max()) <= 170
        counts = np.bincount(img.pixels.ravel(), minlength=171)
        assert counts.min() >= (96 * 96) // 171 - 1


def test_load_corpus_from_files(tmp_path):
    images = synthetic_corpus(count=2)
    paths = []
    for name, img in images:
        p = tmp_path / f"{name}.pgm"
        p.write_bytes(write_pgm(img))
        paths.append(str(p))
    cfg = ExperimentConfig(corpus=tuple(paths))
    loaded = load_corpus(cfg)
    assert [n for n, _ in loaded] == ["tex00", "tex01"]
    assert all(a == b for (_, a), (_, b) in zip(loaded, images))


def _double_argsort_pixels(seed, k, size, sigma, fine_noise):
    """The texture as it was first written: ordinal ranks by argsort of the
    stable argsort, where the outer sort only inverts a permutation."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11, k)))
    base = rng.normal(0.0, 1.0, (size, size))
    tex = gaussian_blur_array(base, 2 * int(math.ceil(3.0 * sigma)) + 1, sigma)
    if fine_noise:
        tex = tex + fine_noise * rng.normal(0.0, 1.0, (size, size))
    order = np.argsort(np.argsort(tex.ravel(), kind="stable"))
    return np.floor(order * 171.0 / tex.size).astype(np.uint8).reshape(size, size)


def test_texture_ranks_match_the_double_argsort():
    cfg = ExperimentConfig()
    for k, (_, img) in enumerate(synthetic_corpus(seed=cfg.seed)):
        ref = _double_argsort_pixels(cfg.seed, k, 96, 0.6 + 0.45 * (k % 5), 0.25)
        assert np.array_equal(img.pixels, ref)
    ref = _double_argsort_pixels(cfg.seed, 0, 256, 1.5, 0.0)
    assert np.array_equal(fixture_image(cfg).pixels, ref)


def test_fixture_image_stable():
    cfg = ExperimentConfig()
    img = fixture_image(cfg)
    assert img.width == 256 and img.height == 256
    assert int(img.pixels.max()) <= 170
    assert img == fixture_image(cfg)
    assert img != fixture_image(ExperimentConfig(seed=1))


def check_names(result):
    """The runner's check names, asserting that every check passed."""
    failed = [c for c in result.checks if not c.passed]
    assert not failed, failed
    assert result.ok
    return {c.name for c in result.checks}


def test_axiom_table(tmp_path):
    cfg = ExperimentConfig()
    result = run_axiom_table(replace(cfg, out_dir=str(tmp_path)))
    assert check_names(result) == {"monotone_d_pc", "severity_order"}
    (table,) = result.tables
    assert table.schema == "copsem.axiom_table.v1"
    assert len(table.rows) == 200
    lines = read_lines(table.path)
    assert lines[0] == b"#schema=copsem.axiom_table.v1"
    header = lines[1].decode().split(",")
    assert header == [
        "image", "transform", "domain", "monotone", "d_pc", "psnr", "ssim", "verdict",
    ]
    # real-domain monotone rows are exactly zero; pixel metrics do not
    # apply across domains, so those columns stay empty
    real_rows = [r for r in table.rows if r[2] == "real" and r[3] == "true"]
    assert len(real_rows) == 20 * 4
    assert all(r[4] == "0.0" for r in real_rows)
    assert all(r[5] == "" and r[6] == "" for r in real_rows)
    assert all(r[7] == "pass" for r in table.rows)


def test_axiom_table_scores_each_bank_as_one_stack(monkeypatch):
    # inline, so every call is seen here: per image one stacked count, one d_pc
    # kernel call over the ten bank outputs and one ssim kernel call over the u8
    # ones; the one-item public calls are never made
    _pin_cpus(monkeypatch, 1)
    calls = {"_extract_families": 0, "_d_pc_batch": 0, "_ssim_batch": 0}
    for name in calls:
        kernel = getattr(harness, name)

        def counted(*args, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(*args)

        monkeypatch.setattr(harness, name, counted)

    def refused(*args, **kwargs):
        raise AssertionError("a one-item call in run_axiom_table")

    for module in (harness, metrics, rank_copula):
        for name in ("d_pc", "ssim", "extract_family"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    result = run_axiom_table(ExperimentConfig())
    assert result.ok and len(result.tables[0].rows) == 20 * 10
    assert calls == {"_extract_families": 20, "_d_pc_batch": 20, "_ssim_batch": 20}


def test_axiom_table_counts_one_image_at_a_time_at_256_bins(tmp_path, monkeypatch):
    # 4 x 256 x 256 cells a family are above _BLOCK: the image and each of its
    # ten bank outputs take one count and one d_pc call each, as one family
    # at a time did, and the rows are those of the one-image calls
    _pin_cpus(monkeypatch, 1)
    img = tmp_path / "img.pgm"
    img.write_bytes(write_pgm(synthetic_corpus(count=1, size=48)[0][1]))
    cfg = ExperimentConfig(corpus=(str(img),), bins=256)
    sizes, stacked = [], harness._extract_families

    def counted(images, *args):
        sizes.append(len(images))
        return stacked(images, *args)

    monkeypatch.setattr(harness, "_extract_families", counted)
    rows = run_axiom_table(cfg).tables[0].rows
    assert sizes == [1] * 11
    img = load_corpus(cfg)[0][1]
    ref = extract_family(img, cfg.deltas, 256)
    outs = [apply_transform(img, spec) for spec in default_bank(awgn_seed=cfg.seed + 1)]
    assert [row[4] for row in rows] == [
        _cell(d_pc(ref, extract_family(out, cfg.deltas, 256)).d_pc) for out in outs
    ]


def test_rd_curve_warns_but_holds(tmp_path):
    cfg = ExperimentConfig()
    result = run_rd_curve(replace(cfg, out_dir=str(tmp_path)))
    assert check_names(result) == {"distortion_over_bound", "rate_excess_bits"}
    curve, fit = result.tables
    assert len(curve.rows) == 20 * len(DEFAULT_ALPHAS)
    # the corpus textures are close to rank-uniform, so the half-lattice
    # steps produce documented upticks: reported, never fatal
    assert any("rose" in w for w in result.warnings)
    lines = read_lines(curve.path)
    assert lines[0] == b"#schema=copsem.rd_curve.v1"
    assert read_lines(fit.path)[0] == b"#schema=copsem.rd_fit.v1"
    # per-image fits are diagnostics, not gates: the corpus is half
    # smoothed textures (fit R^2 0.78-0.997) and half fine noise, whose
    # near-uniform copulas take a mid-sweep rounding bump that collapses
    # the log-linear fit to R^2 ~ 0.14-0.24. The R^2 >= 0.9 gate applies
    # to the smoothed fixture only (see test_acceptance). A free affine
    # fit in log space keeps R^2 within [0, 1] by construction.
    for row in fit.rows:
        assert float(row[1]) > 0.0
        assert 0.0 <= float(row[3]) <= 1.0 + 1e-12


def test_concentration_nominal_vs_control(tmp_path):
    cfg = ExperimentConfig(out_dir=str(tmp_path))
    result = run_concentration(cfg, ConcentrationParams(4, 2, 0.1, 0.05), trials=100, control_n=10)
    assert check_names(result) == {"nominal_failure_fraction", "control_failure_fraction"}
    (table,) = result.tables
    nominal, control = table.rows
    assert nominal[0] == "nominal" and control[0] == "control"
    assert float(nominal[8]) <= 0.05
    assert float(control[8]) > 0.05
    assert read_lines(table.path)[0] == b"#schema=copsem.concentration.v1"


def _one_draw_l1(params, n, seed, arm, t):
    """The concentration trial as one (n_deltas, n, 2) draw of the stream."""
    b = params.bins
    rng = np.random.default_rng(np.random.SeedSequence((seed, 71, arm, t)))
    u = rng.random((params.n_deltas, n, 2))
    ij = (u[:, :, 0] * b).astype(np.int64) * b + (u[:, :, 1] * b).astype(np.int64)
    l1 = 0.0
    for k in range(params.n_deltas):
        l1 += float(np.abs(np.bincount(ij[k], minlength=b * b) / n - 1.0 / (b * b)).sum())
    return l1 / params.n_deltas


@pytest.mark.parametrize("n", [1, 6, 7, 8, 50, 2956])
def test_concentration_draws_in_chunks_as_in_one_draw(monkeypatch, n):
    # 14-element blocks draw 7 pairs at a time at B = 2, and B^2 = 9 or 16
    # pairs at B = 3 or 4: the same doubles in the same order as one draw, so
    # the same counts and the same L1 to the last bit
    monkeypatch.setattr(image_io, "_BLOCK", 14)
    assert len(list(_row_blocks(n, 2))) == -(-n // 7)
    for b, n_deltas, chunk in ((2, 2, 7), (4, 2, 16), (3, 3, 9)):
        params = ConcentrationParams(b, n_deltas, 0.1, 0.05)
        assert len(list(_row_blocks(n, 2, b * b))) == -(-n // chunk)
        for arm, t in ((0, 0), (1, 5)):
            rng = np.random.default_rng(np.random.SeedSequence((17, 71, arm, t)))
            assert _concentration_l1(params, n, rng) == _one_draw_l1(params, n, 17, arm, t)


def test_runs_hash_their_trial_streams_in_bulk(monkeypatch):
    # numpy builds a SeedSequence for each np.random.SeedSequence call and for
    # each default_rng of a plain seed: a run builds a fixed handful of them,
    # whatever its trial count, not one or two per trial
    made = []
    seed_sequence, default_rng = np.random.SeedSequence, np.random.default_rng

    def counting_seed_sequence(*args, **kwargs):
        made.append(args)
        return seed_sequence(*args, **kwargs)

    def counting_default_rng(seed=None):
        if not isinstance(seed, (seed_sequence, np.random.BitGenerator)):
            made.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "SeedSequence", counting_seed_sequence)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    _pin_cpus(monkeypatch, 1)  # inline, so every trial's seeding happens here

    def made_by(run) -> int:
        made.clear()
        run()
        return len(made)

    cfg = ExperimentConfig()
    channel = made_by(lambda: run_channel_sweep(cfg))
    assert channel == made_by(lambda: run_channel_sweep(replace(cfg, trials=3))) <= 3
    concentration = made_by(lambda: run_concentration(cfg))
    assert concentration == made_by(lambda: run_concentration(cfg, trials=3)) <= 3


def test_channel_sweep_gates(tmp_path):
    cfg = ExperimentConfig()
    result = run_channel_sweep(replace(cfg, out_dir=str(tmp_path)))
    assert check_names(result) == {"means_non_decreasing", "r_squared", "doubling_ratio"}
    assert result.values["r_squared"] >= 0.95
    assert 1.6 <= result.values["doubling_ratio"] <= 2.4
    (table,) = result.tables
    means = [float(row[table.header.index("mean_d_pc_ch")]) for row in table.rows]
    assert all(means[i] <= means[i + 1] for i in range(len(means) - 1))
    assert read_lines(table.path)[0] == b"#schema=copsem.channel_sweep.v1"


def test_channel_sweep_without_a_positive_rate_fits_zero():
    # no rate to fit through the origin: k_lin is 0.0, as k_fit is, not 0/0
    result = run_channel_sweep(replace(ExperimentConfig(), bers=(0.0,), trials=2))
    assert result.values["k_lin"] == result.values["k_fit"] == 0.0
    assert result.values["r_squared"] == 1.0


def test_channel_top_pinned_constant_underestimates_small_r():
    """The per-r mean is concave in r (multi-flip corruption saturates), so
    the constant pinned at the top of the sweep undershoots the small-r
    response: mean / (k_fit * shape) climbs well past 1.3 at r = 1e-4
    (measured ~2.3). This is the measured shape of the response, pinned
    so a regression toward it, or away from it, is visible. The linearity
    gate itself lives in test_channel_sweep_gates and uses the
    through-origin fit."""
    cfg = ExperimentConfig()
    result = run_channel_sweep(cfg)
    (table,) = result.tables
    assert table.path is None  # no out_dir, no CSV
    k_fit = result.values["k_fit"]
    bottom = dict(zip(table.header, table.rows[0]))
    assert float(bottom["r"]) == 1e-4
    ratio = float(bottom["mean_d_pc_ch"]) / (k_fit * float(bottom["shape_Lra"]))
    assert 1.3 < ratio < 4.0
    # and at the pinning point the ratio is exactly 1 by construction
    top = dict(zip(table.header, table.rows[-1]))
    top_ratio = float(top["mean_d_pc_ch"]) / (k_fit * float(top["shape_Lra"]))
    assert abs(top_ratio - 1.0) < 1e-9


def test_sla_pipeline_composition(tmp_path, monkeypatch):
    # counts the kernel calls: 100 lockstep problems take one step-scorer call
    # per step of the longest bisection (53-67 steps), not one per step of
    # each, and the solve builds no d_pc of its own beside its step scorer
    calls = {"solve": 0, "all": 0}
    kernel, scorer = harness._d_pc_batch, harness._js_scorer

    def counting_kernel(ref, cand):
        calls["all"] += 1
        return kernel(ref, cand)

    def counting_scorer(ref, shape):
        score = scorer(ref, shape)

        def counted(cand):
            calls["solve"] += 1
            return score(cand)

        return counted

    monkeypatch.setattr(harness, "_d_pc_batch", counting_kernel)
    monkeypatch.setattr(harness, "_js_scorer", counting_scorer)
    cfg = ExperimentConfig()
    result = run_sla_pipeline(replace(cfg, out_dir=str(tmp_path)))
    assert check_names(result) == {"composition", "decode_non_increasing"}
    (table,) = result.tables
    assert all(row[-1] == "true" for row in table.rows)
    assert read_lines(table.path)[0] == b"#schema=copsem.sla_pipeline.v1"
    assert calls["solve"] <= 80
    # the 20 images are one block: d_est, d_enc, d_dec and d_total of every image
    # and T in one paired call each
    assert calls["all"] == 4
    with pytest.raises(ValueError, match="empty compute grid"):
        run_sla_pipeline(cfg, t_grid=())


@pytest.mark.parametrize("block, per_block", [(1280, 1), (3000, 2)])
def test_sla_pipeline_blocks_write_the_one_block_rows(monkeypatch, block, per_block):
    # a block holds _BLOCK // (5 T * 4 * 64 cells) images: one at 1280, two at
    # 3000. Each block makes four paired d_pc kernel calls and one solve of its
    # images' 5 T each, and no call per image
    cfg = ExperimentConfig()
    want = run_sla_pipeline(cfg).tables[0].rows
    calls = {"kernel": 0, "solve": []}
    kernel, solve = harness._d_pc_batch, harness._solve_weights

    def counting_kernel(ref, cand):
        calls["kernel"] += 1
        return kernel(ref, cand)

    def counting_solve(cells, targets):
        calls["solve"].append(len(cells))
        return solve(cells, targets)

    monkeypatch.setattr(image_io, "_BLOCK", block)
    monkeypatch.setattr(harness, "_d_pc_batch", counting_kernel)
    monkeypatch.setattr(harness, "_solve_weights", counting_solve)
    assert run_sla_pipeline(cfg).tables[0].rows == want
    blocks = 20 // per_block
    assert calls == {"kernel": 4 * blocks, "solve": [5 * per_block] * blocks}


def test_sla_pipeline_holds_one_image_working_set_at_256_bins(tmp_path):
    # one image's T = 0 problem is 4 x 256 x 256 cells, above _BLOCK, so three
    # images run one block each and peak about as high as one image
    paths = []
    for name, img in synthetic_corpus(count=3, size=48):
        paths.append(tmp_path / f"{name}.pgm")
        paths[-1].write_bytes(write_pgm(img))

    def peak(count):
        cfg = ExperimentConfig(corpus=tuple(map(str, paths[:count])), bins=256)
        run_sla_pipeline(cfg, t_grid=(0.0,))
        tracemalloc.start()
        try:
            run_sla_pipeline(cfg, t_grid=(0.0,))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(1), peak(3)
    assert three < 1.5 * one, (one, three)


def test_sla_pipeline_two_sizes_at_infinite_budget_match_each_image(tmp_path):
    # at T = inf the target is 0 and w = 0, so a mix is its encode, zero cells
    # and all: one stack then holds rows summed over their support beside the
    # full-support mixes of T = 0 and 7. Every row is the per-image value
    paths = []
    for width, height, seed in ((64, 48, 3), (40, 72, 4)):
        paths.append(str(tmp_path / f"n{width}x{height}.pgm"))
        with open(paths[-1], "wb") as fh:
            fh.write(write_pgm(synth_noise(width, height, seed)))
    cfg, dec = ExperimentConfig(corpus=tuple(paths)), DecoderModel(0.9, 0.1)
    (table,) = run_sla_pipeline(cfg, t_grid=(math.inf, 0.0, 7.0)).tables
    sub, want, supports = non_overlapping_stride(cfg.deltas), [], set()
    for name, img in load_corpus(cfg):
        truth = extract_family(img, cfg.deltas, cfg.bins)
        est = extract_family(img, cfg.deltas, cfg.bins, stride=sub)
        enc = dequantize(quantize(est, 1 / 64))
        for t in (0.0, 7.0, math.inf):
            w = solve_decoder_weight(enc, dec.error(t))
            mixed = mix_with_uniform(enc, w)
            supports.add(bool((mixed.cells > 0.0).all()))
            dists = [d_pc(*pair).d_pc for pair in ((truth, est), (est, enc), (enc, mixed))]
            want.append([name, t, w, *dists, d_pc(truth, mixed).d_pc])
    assert supports == {True, False}
    assert [[r[0], *r[3:9]] for r in table.rows] == [list(map(_cell, row)) for row in want]


def test_sla_surface_roundtrip(tmp_path):
    cfg = ExperimentConfig()
    result = run_sla_surface(replace(cfg, out_dir=str(tmp_path)))
    assert check_names(result) == {
        "max_roundtrip_err",
        "decreasing_in_R",
        "decreasing_in_T",
        "operating_point_feasible",
    }
    assert result.values["max_roundtrip_err"] <= 1e-6
    assert result.values["operating_r_min"] is not None
    (table,) = result.tables
    assert read_lines(table.path)[0] == b"#schema=copsem.sla_surface.v1"


def test_mix_with_uniform_hits_target():
    fam = fixture_family(ExperimentConfig(bins=4))
    target = 0.05
    w = solve_decoder_weight(fam, target)
    measured = d_pc(fam, mix_with_uniform(fam, w)).d_pc
    assert abs(measured - target) < 1e-6
    assert solve_decoder_weight(fam, 0.0) == 0.0
    assert solve_decoder_weight(fam, 10.0) == 1.0


@pytest.mark.parametrize("target", [1e-15, 1e-30])
def test_decoder_weight_brackets_tiny_targets_to_one_ulp(target):
    # an 80-step bisection stopped at w = 2**-81, far above these targets
    fam = fixture_family(ExperimentConfig(bins=4))

    def d(w):
        return d_pc(fam, mix_with_uniform(fam, w)).d_pc

    w = solve_decoder_weight(fam, target)
    above, below = math.nextafter(w, 1.0), math.nextafter(w, 0.0)
    assert d(w) < target <= d(above) or d(below) < target <= d(w)


def _stepwise_decoder_weight(family, target):
    """The bisection as it was before the array kernel: each step builds the
    mixed family and scores it with the public d_pc."""
    if target <= 0.0:
        return 0.0
    if d_pc(family, mix_with_uniform(family, 1.0)).d_pc <= target:
        return 1.0
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if d_pc(family, mix_with_uniform(family, mid)).d_pc < target:
            lo = mid
        else:
            hi = mid
    return mid


def _encoded_corpus(cfg):
    """Every corpus image as run_sla_pipeline encodes it."""
    sub = non_overlapping_stride(cfg.deltas)
    return [
        dequantize(quantize(extract_family(img, cfg.deltas, cfg.bins, stride=sub), 1 / 64))
        for _, img in load_corpus(cfg)
    ]


def _lockstep_matches_stepwise(monkeypatch, encs, targets):
    """Solve every (enc, target) problem in one _solve_weights call, check it
    against the stepwise bisection, and return the problem counts of the
    blocks the call walked."""
    blocks = []

    def recording_row_blocks(rows, cols):
        slices = list(_row_blocks(rows, cols))
        blocks.extend(len(range(rows)[s]) for s in slices)
        return slices

    monkeypatch.setattr(harness, "_row_blocks", recording_row_blocks)
    problems = [(enc, target) for enc in encs for target in targets]
    cells = np.stack([enc.cells.reshape(len(enc.deltas), -1) for enc, _ in problems])
    got = _solve_weights(cells, np.array([target for _, target in problems]))
    assert got.tolist() == [_stepwise_decoder_weight(enc, target) for enc, target in problems]
    return blocks


def test_decoder_weight_matches_the_stepwise_bisection(monkeypatch):
    # every corpus image at the default T grid and at T = 300, where the
    # target is near 1e-15, plus three targets that need no bisection: 180
    # problems of 4 * 64 cells, one block of up to 256 problems
    cfg = ExperimentConfig()
    dec = DecoderModel(0.9, 0.1)
    encs = _encoded_corpus(cfg)
    assert len(encs) == 20
    targets = [dec.error(t) for t in (0.0, 5.0, 10.0, 20.0, 40.0, 300.0)] + [0.0, -1.0, 10.0]
    assert _lockstep_matches_stepwise(monkeypatch, encs, targets) == [180]
    tex02_t300 = encs[2], targets[5]
    assert solve_decoder_weight(*tex02_t300) == _stepwise_decoder_weight(*tex02_t300)


def test_decoder_weight_matches_the_stepwise_bisection_at_256_cells(monkeypatch):
    # the mixed rows have all 256 cells in their support, so their sums are
    # long enough for numpy to split them into blocks; problems of 4 * 256
    # cells go 64 to a block, so 72 problems make one full and one short block
    cfg = ExperimentConfig(bins=16)
    dec = DecoderModel(0.9, 0.1)
    encs = _encoded_corpus(cfg)[:18]
    targets = [dec.error(t) for t in (0.0, 20.0, 300.0)] + [0.0]
    assert _BLOCK // (4 * 256) == 64
    assert _lockstep_matches_stepwise(monkeypatch, encs, targets) == [64, 8]


TINY_W = 2.7755575615628914e-16  # the bisection's weight on tex02 at T = 300


@pytest.mark.parametrize("bins", [8, 16])
def test_block_scorer_matches_the_general_kernel(monkeypatch, bins):
    # the solve's block scorer, with its buffers and hoisted layout reused
    # after the solve, gives the bits of scoring each mix afresh, at random
    # weights, at 1 and at the tiny tex02 weight
    encs = _encoded_corpus(ExperimentConfig(bins=bins))
    refs = np.stack([e.cells.reshape(len(e.deltas), -1) for e in encs])
    assert len(refs) == 20 and (refs == 0.0).any()
    b2 = refs.shape[-1]
    built, scorer = [], harness._js_scorer

    def recording_scorer(ref, shape):  # the (ref, score) of each block the solve walks
        built.append((ref, scorer(ref, shape)))
        return built[-1][1]

    monkeypatch.setattr(harness, "_js_scorer", recording_scorer)
    _solve_weights(refs, np.full(20, 0.01))
    ((ref, score),) = built
    assert _bits(ref) == _bits(refs)
    rng = np.random.default_rng(bins)
    for w in [rng.random(20), rng.random(20) ** 40, np.ones(20), np.full(20, TINY_W)]:
        mix = _mix_cells(refs, w[:, None, None], b2)
        assert _bits(metrics._mean_sqrt(score(mix))) == _bits(_d_pc_batch(refs, mix))
    if bins == 8:  # tex02 at the tiny weight: the cancellation reads 0.0 on both paths
        mix = _mix_cells(refs, np.full((20, 1, 1), TINY_W), b2)
        assert metrics._mean_sqrt(score(mix))[2] == 0.0


def test_default_solve_takes_few_page_faults():
    # the solve allocates its step buffers once per block, so the second of two
    # default 100-problem solves in a fresh process faults in few new pages;
    # with fresh step temporaries it took about 23,000
    pytest.importorskip("resource")
    code = """
import resource
import numpy as np
from copsem.codec import dequantize, quantize
from copsem.harness import DEFAULT_DECODER, DEFAULT_T_GRID, ExperimentConfig, load_corpus
from copsem.harness import _solve_weights
from copsem.rank_copula import extract_family, non_overlapping_stride
cfg = ExperimentConfig()
sub = non_overlapping_stride(cfg.deltas)
encs = [extract_family(img, cfg.deltas, cfg.bins, stride=sub) for _, img in load_corpus(cfg)]
encs = [dequantize(quantize(e, 1 / 64)) for e in encs]
cells = np.repeat([e.cells.reshape(len(cfg.deltas), -1) for e in encs], len(DEFAULT_T_GRID), axis=0)
targets = [DEFAULT_DECODER.error(t) for t in DEFAULT_T_GRID] * len(encs)
_solve_weights(cells, targets)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
_solve_weights(cells, targets)
print(len(cells), before, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    problems, before, faults = map(int, proc.stdout.split())
    if before == 0:
        pytest.skip("ru_minflt is not reported on this platform")
    assert problems == 100
    assert faults < 2000


def test_decoder_weight_rejects_a_nan_target():
    fam = fixture_family(ExperimentConfig(bins=4))
    with pytest.raises(ValueError, match="^decoder target must be in"):
        solve_decoder_weight(fam, math.nan)
    cells = np.repeat(fam.cells.reshape(1, len(fam.deltas), -1), 3, axis=0)
    for k in range(3):
        targets = np.full(3, 0.05)
        targets[k] = math.nan
        with pytest.raises(ValueError, match="^decoder target must be in"):
            _solve_weights(cells, targets)


@pytest.mark.parametrize(
    "run, fields, kwargs, message",
    [
        (run_rd_curve, dict(alphas=(0.125, 0.125)), {}, r"^alpha 0\.125 repeated in the sweep$"),
        (run_rd_curve, dict(alphas=(2.0,)), {}, "^alpha must be in"),
        (run_channel_sweep, dict(bers=(1e-3, 1e-3)), {}, r"^ber 0\.001 repeated in the sweep$"),
        (run_channel_sweep, dict(bers=(0.7,)), {}, "^ber must be in"),
        (run_channel_sweep, dict(trials=0), {}, "^trials must be in"),
        (run_channel_sweep, {}, dict(alpha=2.0), "^alpha must be in"),
        (run_sla_pipeline, {}, dict(t_grid=(5.0, 5.0)), r"^compute grid 5\.0 repeated in the sweep$"),
        (run_sla_pipeline, {}, dict(t_grid=(-1.0, 5.0)), "^compute budget must be in"),
        (run_sla_pipeline, {}, dict(alpha=math.nan), "^alpha must be in"),
        (run_sla_surface, {}, dict(eps_est=-1.0), r"^eps_est must be in \[0\.0, inf\], got -1\.0$"),
        (run_sla_surface, {}, dict(eps=0.005), r"^eps must be in \(0\.01, inf\), got 0\.005$"),
    ],
    ids="rd-repeat rd-alpha channel-repeat channel-ber channel-trials channel-alpha "
    "sla-repeat sla-budget sla-alpha surface-eps_est surface-eps".split(),
)
def test_runners_check_input_before_extracting(monkeypatch, run, fields, kwargs, message):
    def extract(*args, **kw):
        raise AssertionError("extracted before the input was checked")

    monkeypatch.setattr(harness, "extract_family", extract)
    monkeypatch.setattr(harness, "load_corpus", extract)
    with pytest.raises(ValueError, match=message):
        run(ExperimentConfig(**fields), **kwargs)


def test_csv_determinism(tmp_path):
    cfg = ExperimentConfig()
    a = run_channel_sweep(replace(cfg, out_dir=str(tmp_path / "a")))
    b = run_channel_sweep(replace(cfg, out_dir=str(tmp_path / "b")))
    with open(a.tables[0].path, "rb") as fh:
        blob_a = fh.read()
    with open(b.tables[0].path, "rb") as fh:
        blob_b = fh.read()
    assert blob_a == blob_b


def test_runners_write_only_into_a_set_out_dir(tmp_path, monkeypatch):
    """A runner writes its CSVs into cfg.out_dir; the default config sets
    none, and then no file is written anywhere."""
    assert ExperimentConfig().out_dir is None
    enc = EncoderModel(0.20814, 252)
    monkeypatch.chdir(tmp_path)
    (table,) = run_sla_surface(ExperimentConfig(), enc=enc).tables
    assert table.path is None
    assert os.listdir(tmp_path) == []
    (table,) = run_sla_surface(ExperimentConfig(out_dir="csv"), enc=enc).tables
    assert table.path == os.path.join("csv", "sla_surface.csv")
    assert read_lines(tmp_path / table.path)[0] == b"#schema=copsem.sla_surface.v1"


def test_cell_rule():
    assert _cell(None) == ""
    assert (_cell(True), _cell(False), _cell(np.bool_(True))) == ("true", "false", "true")
    assert (_cell(0), _cell(-3), _cell(np.int64(7))) == ("0", "-3", "7")
    assert (_cell(0.0), _cell(np.float64(1 / 3)), _cell(math.inf)) == ("0.0", repr(1 / 3), "inf")
    assert _cell("pass") == "pass"
    assert _cell((1.6, 2)) == "[1.6, 2]"


def test_integer_grids_write_the_float_rows(tmp_path):
    """Real-valued runner inputs are floats from where they enter, so an int
    in a real column is still written as 0.0, as a float input is."""
    img = tmp_path / "img.pgm"
    img.write_bytes(write_pgm(synthetic_corpus(count=1, size=48)[0][1]))
    cfg = ExperimentConfig(corpus=(str(img),))
    ints = run_sla_pipeline(replace(cfg, out_dir=str(tmp_path / "ints")), t_grid=(0, 5))
    floats = run_sla_pipeline(replace(cfg, out_dir=str(tmp_path / "floats")), t_grid=(0.0, 5.0))
    assert ints.tables[0].rows == floats.tables[0].rows
    assert [row[3] for row in ints.tables[0].rows] == ["0.0", "5.0"]
    assert read_lines(ints.tables[0].path) == read_lines(floats.tables[0].path)


@pytest.mark.parametrize(
    "values",
    [
        np.random.default_rng(5).normal(size=500),  # distinct: the default sort decides
        np.random.default_rng(6).integers(0, 7, 500).astype(np.float64),  # ties: stable sort
    ],
    ids=["distinct", "ties"],
)
def test_ordinal_ranks_match_stable_argsort(values):
    idx = np.argsort(values, kind="stable")
    want = np.empty_like(idx)
    want[idx] = np.arange(idx.size)
    assert np.array_equal(harness._ordinal_ranks(values), want)


# ---------------------------------------------------------------------------
# fork-join runners


def _pin_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runners_identical_at_every_cpu_count(tmp_path, monkeypatch):
    # three images, so three CPUs give three chunks to the per-image runners
    paths = []
    for name, img in synthetic_corpus(count=3, size=40, seed=5):
        paths.append(str(tmp_path / f"{name}.pgm"))
        (tmp_path / f"{name}.pgm").write_bytes(write_pgm(img))
    cfg = ExperimentConfig(corpus=tuple(paths), trials=24, seed=5)
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    runners = [
        run_axiom_table,
        run_rd_curve,
        lambda cfg: run_concentration(cfg, trials=30),
        run_channel_sweep,
    ]
    runs = {}
    for cpus in (1, 2, 3):
        _pin_cpus(monkeypatch, cpus)
        runs[cpus], counts = [], []
        for runner in runners:
            before = len(forks)
            runs[cpus].append(runner(cfg))
            counts.append(len(forks) - before)
        # every runner forks cpus - 1 children, and none at one CPU
        assert counts == [cpus - 1] * 4
        _assert_no_child_left()
    for cpus in (2, 3):
        for one, many in zip(runs[1], runs[cpus]):
            assert one.tables == many.tables
            assert one.checks == many.checks
            assert one.values == many.values
            assert one.warnings == many.warnings


class Odd(LookupError):
    """Defined at module level, so a child can pickle it."""


def test_fork_map_raises_the_first_failing_item(monkeypatch):
    def fn(x):
        if x in bad:
            raise (Odd if x % 2 else ValueError)(f"item {x} failed")
        return x * x

    for cpus, items, bad, first in [
        (2, range(10), {3, 7}, 3),  # the first chunk, run here, fails first
        (2, range(10), {8, 6}, 6),  # only the child's chunk fails
        (3, range(9), {7, 5}, 5),  # both children fail; the earlier chunk wins
        (3, range(9), {1, 4, 8}, 1),
    ]:
        _pin_cpus(monkeypatch, cpus)
        with pytest.raises((ValueError, Odd)) as exc:
            image_io._fork_map(fn, items)
        assert type(exc.value) is (Odd if first % 2 else ValueError)
        assert str(exc.value) == f"item {first} failed"
        _assert_no_child_left()
        bad = set()
        assert image_io._fork_map(fn, items) == [x * x for x in items]
        _assert_no_child_left()


def test_runner_error_in_a_child_is_the_inline_error(tmp_path, monkeypatch):
    # the last image, scored in a child when forked, has no pixel pairs
    paths = []
    for name, img in synthetic_corpus(count=2, size=40, seed=5):
        paths.append(str(tmp_path / f"{name}.pgm"))
        (tmp_path / f"{name}.pgm").write_bytes(write_pgm(img))
    (tmp_path / "tiny.pgm").write_bytes(b"P5\n1 1\n255\n\x07")
    cfg = ExperimentConfig(corpus=(*paths, str(tmp_path / "tiny.pgm")))
    for runner in (run_axiom_table, run_rd_curve):
        errors = set()
        for cpus in (1, 2, 3):
            _pin_cpus(monkeypatch, cpus)
            with pytest.raises(ValueError) as exc:
                runner(cfg)
            errors.add(str(exc.value))
            _assert_no_child_left()
        assert len(errors) == 1, errors


def test_fork_map_names_the_status_of_a_child_that_died(monkeypatch):
    _pin_cpus(monkeypatch, 2)
    parent = os.getpid()
    with pytest.raises(RuntimeError, match="status 3"):
        image_io._fork_map(lambda x: x if os.getpid() == parent else os._exit(3), range(6))
    _assert_no_child_left()


def test_fork_map_runs_inline_where_it_cannot_fork(monkeypatch):
    import threading

    _pin_cpus(monkeypatch, 2)
    me = os.getpid()

    def pids():
        return image_io._fork_map(lambda _: os.getpid(), range(6))

    assert len(set(pids())) == 2  # forks when it can

    # a call inside a running map
    nested = image_io._fork_map(lambda _: (os.getpid(), set(pids())), range(4))
    assert len({pid for pid, _ in nested}) == 2
    assert all(inner == {pid} for pid, inner in nested)

    # another live thread
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert set(pids()) == {me}
    finally:
        stop.set()
        thread.join()

    # one usable CPU, or no affinity call or fork
    _pin_cpus(monkeypatch, 1)
    assert set(pids()) == {me}
    for name in ("sched_getaffinity", "fork"):
        with monkeypatch.context() as m:
            _pin_cpus(m, 2)
            m.delattr(os, name)
            assert set(pids()) == {me}
    _assert_no_child_left()
