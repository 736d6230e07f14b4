"""End-to-end checks of the argparse front end.

Each test drives main() with a real argv list and asserts on exit code,
stdout shape, and files left on disk. Heavy experiment subcommands run
with shrunk corpora / trial counts so the whole module stays fast.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from copsem.cli import _parser, main
from copsem.harness import ExperimentConfig, run_channel_sweep, synthetic_corpus
from copsem.image_io import synth_gradient, synth_noise, write_pgm
from copsem.rank_copula import CopulaFamily

from conftest import scipy_blur, scipy_dctq


def _write_corpus(tmp_path, count=3, size=48, seed=7):
    paths = []
    for i in range(count):
        img = synth_noise(size, size, seed + i)
        p = tmp_path / f"img{i}.pgm"
        p.write_bytes(write_pgm(img))
        paths.append(str(p))
    return paths


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_delta_flag_is_usage_error(tmp_path):
    paths = _write_corpus(tmp_path, count=1)
    with pytest.raises(SystemExit) as exc:
        main(["extract", "--delta", "nonsense", *paths])
    assert exc.value.code == 2


def test_bad_input_exits_two_with_one_line(tmp_path, capsys):
    tiny = tmp_path / "tiny.pgm"  # 1x1: no pixel pairs at any displacement
    tiny.write_bytes(b"P5\n1 1\n255\n\x07")
    not_pgm = tmp_path / "not.pgm"
    not_pgm.write_bytes(b"P2\n1 1\n255\n7\n")
    fam_json = CopulaFamily(((1, 0),), np.full((1, 2, 2), 0.25), (0,), stride=0).to_json()
    fam = tmp_path / "fam.json"
    fam.write_text(fam_json)
    nan = tmp_path / "nan.json"  # used to score d_pc=0.0 and exit 0
    nan.write_text(fam_json.replace("0.25", "NaN", 1))
    no_cells = tmp_path / "no_cells.json"
    no_cells.write_text(fam_json.replace('"cells"', '"cellz"'))
    paths = _write_corpus(tmp_path, count=1)
    smaller = tmp_path / "smaller.pgm"
    smaller.write_bytes(write_pgm(synth_noise(16, 12, 1)))
    missing = str(tmp_path / "missing.json")
    bad_configs = []
    for i, doc in enumerate(
        (
            '{"deltas": 5}',  # each of these three used to end in a TypeError traceback
            '{"bers": 5}',
            '{"bins": null}',
            '{"bin": 4}',  # a typo, used to be ignored
            '{"trials": 1.7}',  # used to become 1 trial
            '{"deltas": [[1.5, 0]]}',
            '{"corpus": [1]}',
            '{"out_dir": 5}',
        )
    ):
        cfg_path = tmp_path / f"bad_cfg{i}.json"
        cfg_path.write_text(doc)
        bad_configs.append(["channel", "--config", str(cfg_path)])
    for argv in (
        *bad_configs,
        ["extract", "--out", str(tmp_path / "out"), str(tiny)],
        ["extract", "--out", str(tmp_path / "out"), str(not_pgm)],
        ["extract", "--out", str(tmp_path / "out"), str(tmp_path / "gone.pgm")],
        ["dpc", missing, str(fam)],
        ["dpc", "--config", str(tmp_path / "nope.json"), str(fam), str(fam)],
        ["axioms", "--out", str(tmp_path / "out"), "--corpus", str(tmp_path / "gone.pgm")],
        ["dpc", str(nan), str(nan)],
        ["dpc", str(no_cells), str(no_cells)],
        ["dpc", str(not_pgm), paths[0]],
        ["dpc", str(fam), paths[0]],  # bins 2 vs 8: incomparable
        ["dpc", paths[0], str(smaller)],  # psnr and ssim need equal dimensions
        ["concentration", "--ctrials", "0"],  # used to end in a ZeroDivisionError traceback
        ["concentration", "--ctrials", "-3"],  # used to report observed=-0.0 and exit 1
        ["concentration", "--control-n", "0"],  # this and --t inf used to write nan
        ["concentration", "--t", "inf"],
        ["rd", "--out", str(tmp_path / "out"), "--alphas", "1e-320"],  # each of these three
        ["sla-pipeline", "--out", str(tmp_path / "out"), "--alpha", "1e-320"],  # used to end in
        ["channel", "--out", str(tmp_path / "out"), "--alpha", "1e-300"],  # an OverflowError
        ["rd", "--out", str(tmp_path / "out"), "--alphas", "1e-300"],  # used to overflow int64
        ["sla-surface", "--out", str(tmp_path / "out"), "--d", "100"],  # --d without --c2
        # an infinite constant at an open end used to pass: --c2 inf made
        # sla-surface print a RuntimeWarning and fail a check, and bounds
        # print an infinite or zero bound
        ["sla-surface", "--out", str(tmp_path / "out"), "--c2", "inf"],
        ["bounds", "--c2", "inf"],
        ["bounds", "--delta0", "inf"],
        ["bounds", "--c", "inf"],
        ["bounds", "--eps", "inf"],
        ["sla-pipeline", "--out", str(tmp_path / "out"), "--delta0", "inf"],
        # each of these four used to end in a ZeroDivisionError or an
        # OverflowError traceback: t^2 underflows, or 1 / eta overflows
        ["bounds", "--t", "1e-300"],
        ["bounds", "--t", "1e-160"],
        ["bounds", "--eta", "1e-320"],
        ["concentration", "--out", str(tmp_path / "out"), "--t", "1e-160"],
        ["channel", "--seed", "-1"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("copsem: "), captured.err


# Each (subcommand, flag) pair was accepted and then ignored; each is now
# a usage error.
REMOVED_FLAGS = [
    ("extract", "--seed", "1"),
    ("extract", "--corpus", "x.pgm"),
    ("extract", "--trials", "3"),
    ("dpc", "--seed", "1"),
    ("dpc", "--out", "out"),
    ("dpc", "--corpus", "x.pgm"),
    ("dpc", "--trials", "3"),
    ("axioms", "--trials", "3"),
    ("rd", "--trials", "3"),
    ("concentration", "--bins", "16"),
    ("concentration", "--delta", "1,0"),
    ("concentration", "--stride", "3"),
    ("concentration", "--corpus", "x.pgm"),
    ("concentration", "--trials", "3"),
    ("channel", "--stride", "3"),
    ("channel", "--corpus", "x.pgm"),
    ("sla-pipeline", "--stride", "3"),
    ("sla-pipeline", "--trials", "3"),
    ("sla-surface", "--stride", "3"),
    ("sla-surface", "--corpus", "x.pgm"),
    ("sla-surface", "--trials", "3"),
    ("bounds", "--stride", "3"),
    ("bounds", "--seed", "5"),
    ("bounds", "--out", "/nonexistent"),
    ("bounds", "--corpus", "x.pgm"),
    ("bounds", "--trials", "3"),
]


@pytest.mark.parametrize("command,flag,value", REMOVED_FLAGS)
def test_flags_a_subcommand_does_not_read_are_usage_errors(command, flag, value, capsys):
    positionals = {"extract": ["a.pgm"], "dpc": ["a.pgm", "b.pgm"]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, *positionals, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["rd", "--alpha", "1e-12", "--alpha", "0.5"],  # ran as --alphas 0.5 and exited 0
        ["channel", "--trial", "3"],
        ["concentration", "--ctrial", "3"],
    ],
)
def test_abbreviated_flags_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_root_parser_takes_no_abbreviated_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--hel"])  # used to print --help and exit 0
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_import_loads_no_scipy_stats(tmp_path):
    # one fresh interpreter in which scipy cannot be imported runs every subcommand
    # at a small config, and its blur and dctq give the pixels of scipy's kernels
    corpus = []
    for name, img in synthetic_corpus(count=2, size=32):
        corpus.append(str(tmp_path / f"{name}.pgm"))
        (tmp_path / f"{name}.pgm").write_bytes(write_pgm(img))
    out = str(tmp_path / "out")
    runs = [
        ["axioms", "--corpus", *corpus, "--out", out],
        ["rd", "--corpus", *corpus, "--out", out],
        ["concentration", "--ctrials", "20", "--out", out],
        # 4 trials leave the r_squared gate within sampling noise; 20 pass it
        ["channel", "--trials", "20", "--out", out],
        ["sla-pipeline", "--corpus", *corpus, "--out", out],
        ["sla-surface", "--out", out],
        ["extract", "--out", out, corpus[0]],
        ["dpc", *corpus],
        ["bounds"],
    ]
    specs = ["blur:5:1.0", "dctq:20"]
    code = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None
import copsem, copsem.cli
from copsem.image_io import synth_noise
from copsem.transforms import TransformSpec, apply_transform
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [copsem.cli.main(argv) for argv in {runs!r}]
loaded = sorted(m for m, mod in sys.modules.items() if mod is not None and m.split(".")[0] == "scipy")
img = synth_noise(40, 24, 3)
pixels = [apply_transform(img, TransformSpec.parse(s)).pixels.tolist() for s in {specs!r}]
print(json.dumps({{"rcs": rcs, "loaded": loaded, "pixels": pixels}}))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["rcs"] == [0] * len(runs)
    assert got["loaded"] == []
    x = synth_noise(40, 24, 3).pixels.astype(np.float64)
    for spec, pixels, ref in zip(specs, got["pixels"], [scipy_blur(x, 5, 1.0), scipy_dctq(x, 20)]):
        want = np.clip(np.round(ref), 0.0, 255.0).astype(np.uint8)
        assert np.array_equal(np.array(pixels, dtype=np.uint8), want), spec


def test_extract_writes_family_json(tmp_path, capsys):
    paths = _write_corpus(tmp_path, count=2)
    out = tmp_path / "out"
    rc = main(["extract", "--out", str(out), *paths])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    for i, line in enumerate(printed):
        assert line == str(out / f"img{i}.family.json")
        fam = CopulaFamily.from_json(open(line, encoding="utf-8").read())
        assert fam.cells.shape == (4, 8, 8)
        assert len(fam.deltas) == 4


def test_extract_honors_bins_and_delta_flags(tmp_path, capsys):
    paths = _write_corpus(tmp_path, count=1)
    out = tmp_path / "out"
    rc = main(
        ["extract", "--out", str(out), "--bins", "4", "--delta", "1,0", "--delta", "0,2", *paths]
    )
    assert rc == 0
    line = capsys.readouterr().out.strip()
    fam = CopulaFamily.from_json(open(line, encoding="utf-8").read())
    assert fam.cells.shape == (2, 4, 4)
    assert [(d.dx, d.dy) for d in fam.deltas] == [(1, 0), (0, 2)]


def test_reused_parser_resets_repeatable_flags(tmp_path, capsys):
    assert _parser() is _parser()
    paths = _write_corpus(tmp_path, count=1)
    for flags, n_deltas in ((["--delta", "2,0", "--delta", "0,2"], 2), ([], 4)):
        assert main(["extract", "--out", str(tmp_path / "out"), *flags, *paths]) == 0
        line = capsys.readouterr().out.strip()
        assert len(CopulaFamily.from_json(open(line, encoding="utf-8").read()).deltas) == n_deltas
    for command, flag, name in (("channel", "--ber", "bers"), ("sla-pipeline", "--T", "T_grid")):
        given = _parser().parse_args([command, flag, "0.5", flag, "0.25"])
        assert getattr(given, name) == [0.5, 0.25]
        assert getattr(_parser().parse_args([command]), name) is None


def test_dpc_on_identical_images_reports_zero(tmp_path, capsys):
    img = synth_gradient(64, 64)
    p = tmp_path / "g.pgm"
    p.write_bytes(write_pgm(img))
    rc = main(["dpc", str(p), str(p)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "#schema=copsem.distortion_report.v1"
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    header, row = rows
    assert header[:2] == ["image_a", "image_b"]
    assert header[-3:] == ["d_pc", "psnr", "ssim"]
    rec = dict(zip(header, row))
    assert float(rec["d_pc"]) == 0.0
    assert rec["psnr"] == "inf"
    assert float(rec["ssim"]) == 1.0


def test_dpc_accepts_family_json_and_omits_pixel_metrics(tmp_path, capsys):
    paths = _write_corpus(tmp_path, count=1)
    out = tmp_path / "out"
    main(["extract", "--out", str(out), *paths])
    fam_path = capsys.readouterr().out.strip()
    rc = main(["dpc", fam_path, paths[0]])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    header, row = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    rec = dict(zip(header, row))
    # same underlying pixels, one side pre-extracted
    assert float(rec["d_pc"]) == 0.0
    assert rec["psnr"] == ""
    assert rec["ssim"] == ""


def test_axioms_subcommand_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["axioms", "--out", str(out)])
    assert rc == 0
    summary = capsys.readouterr().out.splitlines()[0]
    assert summary.startswith("axioms: ok=true rows=200 ")
    assert os.path.exists(out / "axiom_table.csv")


def test_axioms_exit_one_when_ordering_fails(tmp_path, capsys):
    # full-range white noise breaks the severity ordering in both
    # directions: brightness +80 / contrast 1.5 requantized saturate a
    # third of the range into one code (d_pc ~ 0.4), while awgn and dctq
    # barely move an already unstructured texture (~ 0.04); the builtin
    # corpus caps codes at 170 precisely to keep these maps saturation-free
    paths = _write_corpus(tmp_path, count=2, size=64)
    out = tmp_path / "out"
    rc = main(["axioms", "--out", str(out), "--corpus", *paths])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("axioms: ok=false rows=20 ")
    severity = [line for line in lines if line.startswith("check failed: severity_order ")]
    assert len(severity) == 1
    assert " observed=0." in severity[0] and severity[0].endswith(" limit=0.0")


def test_channel_r_squared_miss_names_the_check(tmp_path, capsys):
    # a statistical miss of the fixed R^2 >= 0.95 gate at this config seed
    # (see README, Testing); the other two channel checks hold
    seed = 1553713848
    result = run_channel_sweep(ExperimentConfig(seed=seed))
    assert {c.name: c.passed for c in result.checks} == {
        "means_non_decreasing": True,
        "r_squared": False,
        "doubling_ratio": True,
    }
    rc = main(["channel", "--out", str(tmp_path / "out"), "--seed", str(seed)])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("channel: ok=false rows=5 ")
    failed = [line for line in lines if line.startswith("check failed: ")]
    assert failed == ["check failed: r_squared observed=0.9485707716684292 limit=0.95"]


def test_channel_repeated_rate_exits_two(tmp_path, capsys):
    # two seeds at one rate give two means; no ordering check can compare them
    rc = main(["channel", "--ber", "0.1", "--ber", "0.1", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "copsem: ber 0.1 repeated in the sweep\n"
    assert not os.path.exists(tmp_path / "channel_sweep.csv")


@pytest.mark.parametrize("command", ["axioms", "concentration", "channel"])
def test_negative_seed_names_its_input(command, capsys):
    # used to print numpy's "expected non-negative integer"
    assert main([command, "--seed", "-1", "--out", "unused"]) == 2
    assert capsys.readouterr().err == "copsem: seed must be in [0, inf), got -1\n"


def test_rd_repeated_step_exits_two(tmp_path, capsys):
    # used to exit 0 with r_squared 1.0: a fit through two copies of one point
    paths = _write_corpus(tmp_path, count=1)
    argv = ["rd", "--out", str(tmp_path / "out"), "--corpus", *paths]
    assert main([*argv, "--alphas", "0.25", "0.125", "0.125"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "copsem: alpha 0.125 repeated in the sweep\n"
    assert not os.path.exists(tmp_path / "out" / "rd_curve.csv")


def test_sla_pipeline_sorts_its_compute_grid(tmp_path, capsys):
    # T = 40 before T = 0 used to fail decode_non_increasing
    paths = _write_corpus(tmp_path, count=1)
    out = tmp_path / "out"
    argv = ["sla-pipeline", "--out", str(out), "--corpus", *paths]
    assert main([*argv, "--T", "40", "--T", "0"]) == 0
    capsys.readouterr()
    with open(out / "sla_pipeline.csv", newline="") as fh:
        rows = list(csv.DictReader(fh.readlines()[1:]))
    assert [row["T"] for row in rows] == ["0.0", "40.0"]
    assert main([*argv, "--T", "5", "--T", "5"]) == 2
    assert capsys.readouterr().err == "copsem: compute grid 5.0 repeated in the sweep\n"


def test_bounds_repeated_displacement_exits_two(capsys):
    # used to count the repeat: rate_achievable_bits=756.0
    assert main(["bounds", "--delta", "1,0", "--delta", "1,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "copsem: displacements must be distinct\n"


@pytest.mark.parametrize("command", [["sla-pipeline", "--out", "unused"], ["bounds"]])
def test_empty_displacement_set_exits_two(command, tmp_path, capsys):
    # sla-pipeline used to end in "max() arg is an empty sequence"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"deltas": []}')
    assert main([*command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "copsem: a family needs at least one displacement\n"


def test_rd_subcommand_exits_zero(tmp_path, capsys):
    paths = _write_corpus(tmp_path, count=2, size=64)
    out = tmp_path / "out"
    rc = main(["rd", "--out", str(out), "--corpus", *paths, "--alphas", "0.125", "0.015625"])
    assert rc == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("rd: ok=true rows=4 ")
    assert os.path.exists(out / "rd_curve.csv")


def test_concentration_subcommand_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["concentration", "--out", str(out), "--ctrials", "60", "--control-n", "8"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("concentration: ok=true rows=2 ")
    assert os.path.exists(out / "concentration.csv")


def test_channel_subcommand_prints_fit_line(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["channel", "--out", str(out), "--trials", "16"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("k_fit=")
    assert "doubling_ratio=" in lines[0]
    assert lines[1].startswith("channel: ok=true rows=")
    assert os.path.exists(out / "channel_sweep.csv")


def test_sla_pipeline_subcommand_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sla-pipeline", "--out", str(out), "--T", "5", "--T", "20"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("sla-pipeline: ok=true rows=40 ")
    assert os.path.exists(out / "sla_pipeline.csv")


def test_sla_surface_subcommand_exits_zero(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["sla-surface", "--out", str(out), "--c2", "0.20814", "--d", "252"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("enc_c2=0.20814 enc_d=252 ")
    assert lines[1].startswith("sla-surface: ok=true rows=")
    assert os.path.exists(out / "sla_surface.csv")


def test_sla_surface_c2_alone_uses_the_nominal_d(tmp_path, capsys):
    # used to be dropped in favour of the fitted c2 = 9.43 unless --d came too
    rc = main(["sla-surface", "--out", str(tmp_path / "out"), "--c2", "0.5", "--bins", "4"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("enc_c2=0.5 enc_d=60 ")


@pytest.mark.parametrize("command", [["bounds"], ["sla-surface", "--out", "unused"]])
def test_negative_estimation_budget_exits_two(command, capsys):
    # bounds used to exit 0 printing r_min_bits=0.0 and t_min=0.0
    assert main([*command, "--eps-est", "-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "copsem: eps_est must be in [0.0, inf], got -0.5\n"


def test_bounds_prints_name_value_lines(capsys):
    rc = main(["bounds"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    rec = dict(line.split("=", 1) for line in out)
    assert rec["n_eff"] == "2956"
    assert float(rec["eps_est_from_n_eff"]) == pytest.approx(0.041626652311164886, abs=1e-15)
    assert float(rec["rate_achievable_bits"]) == 1512.0
    assert float(rec["enc_distortion_bound"]) == pytest.approx(0.2081386527894244, abs=1e-15)
    assert float(rec["r_min_bits"]) > 0.0
    assert float(rec["t_min"]) > 0.0


def test_bounds_reports_infeasible_designs(capsys):
    # a decoder floor above the target budget leaves no feasible rate
    rc = main(["bounds", "--T", "1.0", "--eps", "0.05", "--delta0", "0.1", "--rho", "0.9"])
    assert rc == 0
    rec = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert rec["r_min_bits"] == "infeasible"


def _exits_two_with_one_line(argv, capsys):
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("copsem: "), captured.err


# Each NaN budget used to pass the "< 0" tests and exit 0, read as met at
# no cost through max(0.0, nan) == 0.0.
def test_bounds_nan_compute_budget_exits_two(capsys):
    _exits_two_with_one_line(["bounds", "--T", "nan"], capsys)  # printed r_min_bits=0.0


def test_bounds_nan_target_exits_two(capsys):
    _exits_two_with_one_line(["bounds", "--eps", "nan"], capsys)  # printed r_min and t_min 0.0


def test_bounds_nan_rate_exits_two(capsys):
    _exits_two_with_one_line(["bounds", "--R", "nan"], capsys)  # printed t_min=0.0


def test_bounds_nan_converse_constant_exits_two(capsys):
    _exits_two_with_one_line(["bounds", "--c", "nan"], capsys)  # printed rate_converse_bits=nan


def test_sla_pipeline_nan_compute_budget_exits_two(tmp_path, capsys):
    # used to write a T=nan row with ok=true after a 1075-step bisection
    out = tmp_path / "out"
    _exits_two_with_one_line(["sla-pipeline", "--out", str(out), "--T", "nan"], capsys)
    assert not out.exists() or not os.listdir(out)


def test_bounds_infinite_budgets_mean_zero_stage_error(capsys):
    assert main(["bounds", "--T", "inf", "--R", "inf"]) == 0
    rec = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    # h = eps - eps_est = 0.04 with no decode or encode error left
    assert float(rec["r_min_bits"]) == pytest.approx(63 * 4 * math.log2(0.20814 / 0.04))
    assert float(rec["t_min"]) == pytest.approx(math.log(0.1 / 0.04) / math.log(1 / 0.9))


def test_config_file_sets_output_directory(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(out), "trials": 12}))
    paths = _write_corpus(tmp_path, count=1)
    rc = main(["extract", "--config", str(cfg_path), *paths])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith(str(out))
    assert os.path.exists(line)


def test_out_flag_beats_the_config_file(tmp_path, capsys):
    from_config, from_flag = tmp_path / "from_config", tmp_path / "from_flag"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(from_config)}))
    rc = main(["sla-surface", "--config", str(cfg_path), "--out", str(from_flag), "--c2", "0.2"])
    assert rc == 0
    assert f"csv={from_flag / 'sla_surface.csv'}" in capsys.readouterr().out
    assert (from_flag / "sla_surface.csv").exists()
    assert not from_config.exists()


def test_without_out_the_cli_writes_into_out(tmp_path, monkeypatch, capsys):
    # the library writes nothing unless cfg.out_dir is set; the CLI falls
    # back to ./out when neither --out nor a config file names a directory
    monkeypatch.chdir(tmp_path)
    assert main(["sla-surface", "--c2", "0.2"]) == 0
    assert f"csv={os.path.join('out', 'sla_surface.csv')}" in capsys.readouterr().out
    assert os.listdir(tmp_path) == ["out"]
    assert os.listdir(tmp_path / "out") == ["sla_surface.csv"]


def test_bare_list_flag_keeps_the_config_corpus(tmp_path, capsys):
    # a bare --corpus used to drop the config's corpus for the builtin
    # 20-image set (rows=120); a bare --alphas keeps the config's steps too
    (path,) = _write_corpus(tmp_path, count=1)
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"corpus": [path], "alphas": [0.125, 0.0625]}))
    out = str(tmp_path / "out")
    rc = main(["rd", "--config", str(cfg_path), "--out", out, "--corpus", "--alphas"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("rd: ok=true rows=2 ")


def test_builtin_synthetic_corpus_is_default(tmp_path, capsys):
    # no --corpus: the harness falls back to its builtin synthetic set
    out = tmp_path / "out"
    rc = main(["rd", "--out", str(out), "--alphas", "0.125"])
    assert rc == 0
    n = len(synthetic_corpus())
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"rd: ok=true rows={n} ")
