"""Acceptance suite: eleven end-to-end behavioral criteria.

Each test is one shippable claim about the toolkit, checked at its stated
tolerance, and prints a single PASS line with the headline numbers (visible
under pytest -s). Failures carry the measured values in the assert message.

Two deviations from the idealized claims are recorded here rather than
papered over:

- The quantizer budget test gates at twice the closed-form budget and
  reports single-budget misses instead of failing on them: cell masses
  sitting near a half-lattice point of some step size decode with
  near-maximal per-cell rounding error at that step, which can push a
  copula past the 1x budget while staying comfortably under 2x. The
  mechanism is pinned by a deterministic example in test_codec.py.

- The pointwise quadratic divergence comparison sqrt(JS) <=
  (sqrt(ln 2)/2) * L1 is false in general (mass moved into an empty cell
  costs linearly in TV, not quadratically), so it is kept as a strict
  xfail with the counterexample in its reason string, next to a green
  test of the linear bound JS <= ln2 * TV that is the true theorem. The
  deterministic counterexample lives in test_metrics.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy

from copsem.bounds import (
    ConcentrationParams,
    DecoderModel,
    EncoderModel,
    enc_distortion_bound,
    fit_encoder_model,
    r_min,
    sample_complexity,
)
from copsem.cli import main
from copsem.codec import dequantize, quantize, rd_sweep
from copsem.harness import (
    ExperimentConfig,
    fit_encoder_from_fixture,
    fixture_family,
    run_axiom_table,
    run_channel_sweep,
    run_concentration,
    run_rd_curve,
    run_sla_pipeline,
    run_sla_surface,
    synthetic_corpus,
)
from copsem.image_io import REAL
from copsem.metrics import SQRT_LN2, d_pc, js_divergence, l1_distance
from copsem.rank_copula import CopulaFamily, coarsen, extract_family
from copsem.transforms import apply_transform, brightness, contrast, gamma

from conftest import make_family

CFG = ExperimentConfig()

QUANT_ALPHAS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)


@pytest.fixture(scope="module")
def corpus():
    imgs = synthetic_corpus(seed=CFG.seed)
    assert len(imgs) >= 20
    return imgs


def test_rank_preserving_real_maps_zero_distortion(corpus):
    """Strictly increasing point maps, evaluated without requantization,
    leave the representation bit-identical: distortion 0 to 1e-12."""
    maps = [
        brightness(80.0, REAL),
        contrast(1.5, domain=REAL),
        gamma(0.5, REAL),
        gamma(3.0, REAL),
    ]
    start = time.perf_counter()
    worst = 0.0
    for _, img in corpus:
        base = extract_family(img, CFG.deltas, CFG.bins, CFG.stride)
        for spec in maps:
            fam = extract_family(
                apply_transform(img, spec), CFG.deltas, CFG.bins, CFG.stride
            )
            dist = d_pc(base, fam).d_pc
            worst = max(worst, dist)
            assert dist <= 1e-12, f"{spec.canonical()}: d_pc={dist!r}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"invariance sweep took {elapsed:.1f}s"
    print(
        f"PASS invariance: {len(corpus)} images x {len(maps)} maps, "
        f"max d_pc={worst:.3e}, {elapsed:.1f}s"
    )


def test_requantized_monotone_below_every_degradation(corpus):
    """Requantized monotone maps stay under 0.02 and every structural
    degradation scores strictly higher on the same image."""
    result = run_axiom_table(CFG)
    assert {c.name: c.passed for c in result.checks} == {
        "monotone_d_pc": True,
        "severity_order": True,
    }
    assert result.ok
    (table,) = result.tables
    per_image: dict[str, dict[bool, list[float]]] = {}
    for row in table.rows:
        rec = dict(zip(table.header, row))
        per_image.setdefault(rec["image"], {True: [], False: []})[
            rec["monotone"] == "true"
        ].append(float(rec["d_pc"]))
    worst_mono = 0.0
    slimmest_gap = math.inf
    for name, groups in per_image.items():
        top_mono = max(groups[True])
        low_dmg = min(groups[False])
        worst_mono = max(worst_mono, top_mono)
        slimmest_gap = min(slimmest_gap, low_dmg - top_mono)
        assert top_mono <= 0.02, f"{name}: monotone d_pc {top_mono!r}"
        assert low_dmg > top_mono, f"{name}: degradation not above monotone"
    print(
        f"PASS severity-order: {len(per_image)} images, worst monotone "
        f"d_pc={worst_mono:.4f}, smallest degradation gap={slimmest_gap:.4f}"
    )


def test_quantizer_distortion_within_doubled_budget(corpus):
    """Reconstruction distortion against the closed-form step budget over
    the full (bins, step) grid; hard gate at 2x, 1x misses reported."""
    worst = 0.0
    over_budget = []
    for name, img in corpus:
        for bins in (4, 8):
            fam = extract_family(img, CFG.deltas, bins, CFG.stride)
            for alpha in QUANT_ALPHAS:
                dist = d_pc(fam, dequantize(quantize(fam, alpha))).d_pc
                budget = enc_distortion_bound(bins, alpha)
                ratio = dist / budget
                worst = max(worst, ratio)
                if ratio > 1.0:
                    over_budget.append((name, bins, alpha, ratio))
                assert ratio <= 2.0, (
                    f"{name} bins={bins} alpha={alpha}: distortion {dist!r} "
                    f"is {ratio:.3f}x the budget {budget!r}"
                )
    n_points = len(corpus) * 2 * len(QUANT_ALPHAS)
    print(
        f"PASS quantizer-budget: {n_points} grid points, worst "
        f"ratio={worst:.3f}x, {len(over_budget)} above 1x (allowed, <= 2x)"
    )


def _random_distribution_pairs(n: int):
    """Honest generator: dense, sparse and near-identical shapes across a
    range of dimensions, including pairs with support mismatches."""
    rng = np.random.default_rng(CFG.seed)
    dims = (2, 3, 8, 64)
    concs = (0.05, 1.0, 10.0)
    for i in range(n):
        k = dims[i % len(dims)]
        conc = concs[i % len(concs)]
        p = rng.dirichlet(np.full(k, conc))
        if i % 5 == 0:
            q = p.copy()
            q[i % k] += 1e-9
            q /= q.sum()
        else:
            q = rng.dirichlet(np.full(k, conc))
            if i % 7 == 0 and k > 2:
                q[rng.random(k) < 0.3] = 0.0
                total = q.sum()
                q = q / total if total > 0 else np.full(k, 1.0 / k)
        yield p, q


def test_divergence_bounded_linearly_by_l1():
    """The true comparison between the divergence and the L1 distance:
    JS <= (ln 2 / 2) * L1, equivalently sqrt(JS) <= sqrt(ln 2 * TV).
    Zero violations at 1e-12 slack over 10^4 random pairs."""
    violations = 0
    max_ratio = 0.0
    for p, q in _random_distribution_pairs(10_000):
        js = js_divergence(p, q)
        l1 = l1_distance(p, q)
        if js > (math.log(2.0) / 2.0) * l1 + 1e-12:
            violations += 1
        if l1 > 0:
            max_ratio = max(max_ratio, js / ((math.log(2.0) / 2.0) * l1))
    assert violations == 0
    print(
        f"PASS l1-domination: 10000 pairs, 0 violations of the linear "
        f"bound, tightest ratio={max_ratio:.4f}"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the quadratic comparison sqrt(JS) <= (sqrt(ln 2)/2)*L1 is false in "
        "general: mass s moved into an empty cell gives JS ~ (ln2/2)*s, "
        "linear in s, so the quadratic budget ln2*s^2 is exceeded without "
        "limit (2.7x at P=(1,0) vs Q=(0.8,0.2); 500x at s=1e-3); only the "
        "linear bound JS <= ln2*TV is a theorem, and the codec budget that "
        "leaned on the quadratic form is gated empirically at 2x instead"
    ),
)
def test_root_divergence_bounded_by_scaled_l1_as_claimed():
    """The claimed pointwise comparison sqrt(JS) <= (sqrt(ln 2)/2) * L1,
    over the same honest pair generator. Expected to fail: the quadratic
    relation only describes spread-out small perturbations (the codec's
    regime), not arbitrary pairs. Kept under strict xfail so the record
    stays visible and any change in behavior trips the suite."""
    violations = 0
    for p, q in _random_distribution_pairs(10_000):
        lhs = math.sqrt(js_divergence(p, q))
        rhs = (SQRT_LN2 / 2.0) * l1_distance(p, q)
        if lhs > rhs + 1e-12:
            violations += 1
    assert violations == 0, f"{violations} of 10000 pairs violate the claim"


def test_bin_merging_never_increases_divergence():
    """Merging copula cells 8 -> 4 -> 2 bins per axis never increases the
    divergence between a random pair; 10^3 pairs."""
    rng = np.random.default_rng(CFG.seed + 1)
    concs = (0.1, 1.0, 10.0)
    for i in range(1_000):
        conc = concs[i % len(concs)]
        a8 = make_family(rng, bins=8, n_deltas=1, conc=conc)
        b8 = make_family(rng, bins=8, n_deltas=1, conc=conc)
        a4, b4 = coarsen(a8, 2), coarsen(b8, 2)
        a2, b2 = coarsen(a4, 2), coarsen(b4, 2)
        js8 = js_divergence(a8.cells, b8.cells)
        js4 = js_divergence(a4.cells, b4.cells)
        js2 = js_divergence(a2.cells, b2.cells)
        assert js4 <= js8 + 1e-12, f"pair {i}: 8->4 raised JS {js8!r} -> {js4!r}"
        assert js2 <= js4 + 1e-12, f"pair {i}: 4->2 raised JS {js4!r} -> {js2!r}"
    print("PASS merge-contraction: 1000 pairs, JS non-increasing along 8->4->2")


def test_sample_size_formula_controls_failures():
    """At the closed-form sample size, the estimation error budget t=0.1
    is missed in at most an eta=0.05 fraction of 500 trials; a starved
    control misses it far more often. Runs in under a minute."""
    params = ConcentrationParams(4, 2, 0.1, 0.05)
    assert sample_complexity(params) == 2956
    start = time.perf_counter()
    result = run_concentration(CFG, params, trials=500, control_n=10)
    elapsed = time.perf_counter() - start
    assert {c.name: c.passed for c in result.checks} == {
        "nominal_failure_fraction": True,
        "control_failure_fraction": True,
    }
    assert result.ok
    (table,) = result.tables
    nominal = dict(zip(table.header, table.rows[0]))
    control = dict(zip(table.header, table.rows[1]))
    assert nominal["arm"] == "nominal"
    assert float(nominal["failure_fraction"]) <= params.eta
    assert float(control["failure_fraction"]) > params.eta
    assert elapsed < 60.0, f"concentration run took {elapsed:.1f}s"
    print(
        f"PASS sample-size: n_eff=2956, failure fraction "
        f"{nominal['failure_fraction']} <= 0.05 (control "
        f"{control['failure_fraction']}), {elapsed:.1f}s"
    )


def test_channel_distortion_linear_in_flip_rate():
    """Mean corruption distortion is proportional to the bit-error rate:
    through-origin fit R^2 >= 0.95 and doubling the rate scales the mean
    by [1.6, 2.4]. At least 200 trials per sweep point."""
    assert CFG.trials >= 200
    result = run_channel_sweep(CFG)
    assert {c.name: c.passed for c in result.checks} == {
        "means_non_decreasing": True,
        "r_squared": True,
        "doubling_ratio": True,
    }
    assert result.ok
    r2, doubling = result.values["r_squared"], result.values["doubling_ratio"]
    assert r2 >= 0.95
    assert 1.6 <= doubling <= 2.4
    (table,) = result.tables
    means = [float(row[table.header.index("mean_d_pc_ch")]) for row in table.rows]
    assert all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    print(
        f"PASS channel-linearity: R^2={r2:.4f}, "
        f"doubling ratio={doubling:.3f}, "
        f"{len(means)} sweep points"
    )


def test_pipeline_stage_distortions_compose():
    """Measured end-to-end distortion never exceeds the sum of the three
    measured stage distortions, on every pipeline run."""
    result = run_sla_pipeline(CFG)
    assert {c.name: c.passed for c in result.checks} == {
        "composition": True,
        "decode_non_increasing": True,
    }
    assert result.ok
    (table,) = result.tables
    holds_col = table.header.index("holds")
    assert all(row[holds_col] == "true" for row in table.rows)
    assert len(table.rows) == len(synthetic_corpus(seed=CFG.seed)) * 5
    print(f"PASS composition: {len(table.rows)}/{len(table.rows)} runs hold")


def test_budget_inversions_roundtrip_on_grid():
    """rate_for_budget and time_for_budget invert the design surface to
    1e-6 on its 21x21 grid, and the surface is strictly decreasing in both
    the rate and the compute budget."""
    enc = EncoderModel(0.20814, 252)
    result = run_sla_surface(CFG, enc=enc)
    assert {c.name: c.passed for c in result.checks} == {
        "max_roundtrip_err": True,
        "decreasing_in_R": True,
        "decreasing_in_T": True,
        "operating_point_feasible": True,
    }
    assert result.ok
    max_err = result.values["max_roundtrip_err"]
    assert max_err <= 1e-6
    (table,) = result.tables
    assert len(table.rows) == 441
    eps = np.array([float(row[2]) for row in table.rows]).reshape(21, 21)
    assert np.all(np.diff(eps, axis=0) < 0.0)
    assert np.all(np.diff(eps, axis=1) < 0.0)
    print(
        f"PASS inversion: 21x21 grid, max roundtrip error="
        f"{max_err:.2e}"
    )


def test_fixture_rate_sweep_feeds_design_surface():
    """The fixture's measured rate sweep is monotone, fits the log-linear
    decay model with R^2 >= 0.9, and the fitted constant makes the design
    surface feasible at the reference operating point. The closed-form
    rate floor at that point matches an independently derived value."""
    fam = fixture_family(CFG)
    points = rd_sweep(fam, CFG.alphas)
    for prev, cur in zip(points, points[1:]):
        assert cur.distortion <= prev.distortion + 1e-12, (
            f"distortion rose {prev.distortion!r} -> {cur.distortion!r} "
            f"between alpha={prev.alpha} and alpha={cur.alpha}"
        )
    interior = points[1:-1]
    _, _, r2 = fit_encoder_model(
        [p.rate_theory_bits for p in interior],
        [p.distortion for p in interior],
    )
    assert r2 >= 0.9
    enc = fit_encoder_from_fixture(CFG)
    assert enc.d == len(CFG.deltas) * (CFG.bins**2 - 1)
    surface = run_sla_surface(CFG, enc=enc)
    assert surface.ok
    operating_r_min = surface.values["operating_r_min"]
    assert operating_r_min is not None
    floor = r_min(20.0, 0.05, 0.01, DecoderModel(0.9, 0.1), EncoderModel(0.20814, 252))
    assert floor == pytest.approx(731.354943593927, abs=1e-9)
    print(
        f"PASS rate-decay: fit R^2={r2:.4f}, fitted c2={enc.c2:.4f} "
        f"feasible at operating point (R_min={operating_r_min:.1f} "
        f"bits), reference floor={floor:.6f} bits"
    )


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "golden.json")


def _float64_dispatch() -> dict[str, str]:
    """The SIMD target numpy dispatches each float64 power, log and log2 loop
    to: the golden bytes move with them."""
    from numpy.lib.introspect import opt_func_info

    info = opt_func_info(func_name="^(power|log|log2)$", signature="float64")
    return {f: t["current"] for f, sigs in info.items() for t in sigs.values()}


def test_reruns_write_identical_csv_bytes(tmp_path):
    """Every experiment, re-run with the same seed, writes byte-identical
    CSV artifacts, and at the default config they match the recorded
    golden SHA-256 of each CSV. The re-run goes through the CLI with no
    flag but --out, so a CLI default that drifts from its runner default
    shows here."""
    dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
    cfg = replace(CFG, out_dir=dir_a)
    run_axiom_table(cfg)
    run_rd_curve(cfg)
    run_concentration(cfg)
    run_channel_sweep(cfg)
    run_sla_pipeline(cfg)
    run_sla_surface(cfg)
    for cmd in ("axioms", "rd", "concentration", "channel", "sla-pipeline", "sla-surface"):
        assert main([cmd, "--out", dir_b]) == 0, cmd
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    assert len(names) == 7
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(dir_b, name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, f"{name} differs between the library and the CLI run"
    print(f"PASS determinism: {len(names)} CSV artifacts byte-identical from library and CLI")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["seed"] == CFG.seed
    assert sorted(golden["csv_sha256"]) == names
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    if any(golden[lib] != v for lib, v in versions.items()):
        pytest.skip(
            f"golden hashes recorded with numpy {golden['numpy']} / scipy "
            f"{golden['scipy']}; this run has {versions}"
        )
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == golden["csv_sha256"][name], (
            f"{name} differs from perfbench/golden.json, recorded where numpy runs float64 "
            f"power, log and log2 on X86_V4; this numpy runs them on {_float64_dispatch()}"
        )
    print(f"PASS golden: {len(names)} CSV artifacts match perfbench/golden.json")
