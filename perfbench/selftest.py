"""Self-tests of the benchmark's own machinery.

Run from the root of a copsem checkout (about a minute):

    python3 perfbench/selftest.py

1. Tracing leaves every CLI output byte-identical and puts every original
   function back.
2. reference.py agrees with the program on small tie-heavy inputs.
3. The output checks catch a family with one count moved, and count it as
   one failed operation.
4. BENCHMARK.json lists exactly the per-layer metrics the traced run
   reports, and the benchmark refuses to run where there is no program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _tie_heavy(rng: np.random.Generator, h: int, w: int, levels: int) -> np.ndarray:
    codes = np.sort(rng.choice(256, size=levels, replace=False))
    return codes[rng.integers(0, levels, size=(h, w))].astype(np.uint8)


def _write(path: str, px: np.ndarray) -> str:
    with open(path, "wb") as fh:
        fh.write(reference.pgm_bytes(px))
    return path


def _run_cli(argvs: list[list[str]]) -> list[tuple[int, str]]:
    from copsem import cli

    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        out.append((rc, buf.getvalue()))
    return out


def _snapshot() -> dict:
    import copsem.rank_copula as rc

    snap = {
        (name, attr): id(obj)
        for name, mod in sys.modules.items()
        if mod is not None and (name == "copsem" or name.startswith("copsem."))
        for attr, obj in vars(mod).items()
    }
    for cls in (rc.CopulaFamily, rc.EmpiricalCopula):
        for attr, obj in vars(cls).items():
            snap[(cls.__name__, attr)] = id(obj)
    return snap


def _dir_bytes(path: str) -> dict:
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_tracing_is_transparent(tmp: str) -> None:
    rng = np.random.default_rng(5)
    imgs = [_write(os.path.join(tmp, f"t{k}.pgm"), _tie_heavy(rng, 40, 48, 6 + k)) for k in range(2)]

    def argvs(out: str) -> list[list[str]]:
        corpus = ["--corpus", *imgs]
        return [
            ["extract", *imgs, "--out", out],
            ["dpc", imgs[0], imgs[1]],
            ["axioms", *corpus, "--out", out],
            ["rd", *corpus, "--out", out],
            ["concentration", "--ctrials", "40", "--out", out],
            ["channel", "--trials", "4", "--out", out],
            ["sla-pipeline", *corpus, "--out", out],
            ["sla-surface", "--out", out],
        ]

    import copsem.cli  # noqa: F401  (loads every layer module)

    before = _snapshot()
    plain_dir, traced_dir = os.path.join(tmp, "plain"), os.path.join(tmp, "traced")
    plain = _run_cli(argvs(plain_dir))
    with Tracer() as tracer:
        traced = _run_cli(argvs(traced_dir))
    after = _snapshot()
    # the paths differ only in the directory name, which the outputs repeat
    traced = [(rc, text.replace(traced_dir, plain_dir)) for rc, text in traced]
    assert plain == traced, "stdout or exit codes changed under tracing"
    assert _dir_bytes(plain_dir) == _dir_bytes(traced_dir), "output files changed under tracing"
    assert before == after, "tracing did not restore every original"
    layers = {tracer.names[s[3]].split(".")[0] for s in tracer.spans}
    missing = set(LAYERS) - layers
    assert not missing, f"no spans from {missing}"
    assert tracer.counters["rank_copula.EmpiricalCopula.constructed"] > 0


def test_reference_matches_program(tmp: str) -> None:
    from copsem import GrayImage, d_pc, extract_family, psnr, rank_transform, ssim

    rng = np.random.default_rng(11)
    shapes = [(5, 7), (7, 5), (16, 16), (33, 20), (9, 64)]
    for h, w in shapes:
        for levels in (2, 3, 5, 256):
            px = _tie_heavy(rng, h, w, min(levels, 256))
            img = GrayImage(w, h, px)
            assert np.array_equal(rank_transform(img).u, reference.rank_field(px)), (h, w, levels)
            for stride in (1, 2, 3):
                try:
                    fam = extract_family(img, stride=stride)
                except ValueError:
                    continue  # no anchors at this stride; the reference has none either
                ref = reference.family(px, stride=stride)
                reason = reference.family_mismatch(fam.to_json(), ref)
                assert reason is None, (h, w, levels, stride, reason)
            other = _tie_heavy(rng, h, w, 4)
            fa, fb = extract_family(img), extract_family(GrayImage(w, h, other))
            got = d_pc(fa, fb).d_pc
            want = reference.d_pc(reference.family(px), reference.family(other))
            assert abs(got - want) <= 1e-12, (got, want)
            assert reference.close(psnr(img, GrayImage(w, h, other)), reference.psnr(px, other), rel=1e-12)
            assert reference.close(ssim(img, GrayImage(w, h, other)), reference.ssim(px, other), rel=1e-12)
    a = _write(os.path.join(tmp, "a.pgm"), _tie_heavy(rng, 24, 40, 3))
    b = _write(os.path.join(tmp, "b.pgm"), _tie_heavy(rng, 24, 40, 7))
    [(rc, text)] = _run_cli([["dpc", a, b]])
    assert rc == 0
    with open(a, "rb") as fa, open(b, "rb") as fb:
        reason = reference.report_mismatch(text, reference.parse_pgm(fa.read()), reference.parse_pgm(fb.read()))
    assert reason is None, reason


def test_check_catches_moved_count(tmp: str) -> None:
    import run

    rng = np.random.default_rng(3)
    path = _write(os.path.join(tmp, "ingest0.pgm"), _tie_heavy(rng, 32, 32, 5))
    out = os.path.join(tmp, "fam")
    [(rc, _)] = _run_cli([["extract", path, "--out", out]])
    assert rc == 0
    with open(os.path.join(out, "ingest0.family.json"), encoding="utf-8") as fh:
        good = fh.read()
    doc = json.loads(good)
    with open(path, "rb") as fh:
        ref = reference.family(reference.parse_pgm(fh.read()))
    counts = np.asarray(ref["counts"][0]).ravel()
    n = ref["n_pairs"][0]
    src = int(np.argmax(counts))
    dst = (src + 1) % counts.size
    cells = doc["cells"][0]
    cells[src] = float((counts[src] - 1) / n)
    cells[dst] = float((counts[dst] + 1) / n)
    bad = json.dumps(doc)
    assert reference.family_mismatch(good, ref) is None
    assert reference.family_mismatch(bad, ref) is not None
    calls = [
        {"op": 1, "label": "extract", "key": "ingest0", "rc": 0, "error": None, "outputs": {"family": "g"}},
        {"op": 2, "label": "extract", "key": "ingest0", "rc": 0, "error": None, "outputs": {"family": "b"}},
        {"op": 3, "label": "extract", "key": "ingest0", "rc": 1, "error": None, "outputs": {"family": "g"}},
    ]
    failed, notes = run.check_ingest(calls, {"g": good, "b": bad}, [path])
    assert failed == {2, 3}, (failed, notes)


def test_benchmark_file_and_refusal(tmp: str) -> None:
    import perlayer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == perlayer.metric_units(), "BENCHMARK.json per_layer differs from perlayer.metric_units()"
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "peak_rss_mb", "iter_s"}
    bare = os.path.join(tmp, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        bench["command"] + ["--workload", bench["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def test_suite_order(tmp: str) -> None:
    from worker import SUITE_COMMANDS, suite_order

    orders = {tuple(suite_order(seed)) for seed in range(20)}
    assert all(sorted(o) == sorted(SUITE_COMMANDS) for o in orders)
    assert suite_order(1553713848) == suite_order(1553713848)
    assert len(orders) > 1, "the workload seed should change the order"


def test_timing_percentile(tmp: str) -> None:
    import run

    t = run.timing([float(v) for v in range(1, 24)])  # 23 samples
    assert t["n"] == 23 and t["median"] == 12.0
    # p56: 0.56 * 23 = 12.88 -> the 13th value; 10 samples lie above it
    assert t["p56"] == 13.0, t
    assert set(run.timing([1.0] * 19)) == {"n", "median"}


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    for test in tests:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            try:
                test(tmp)
            except Exception:  # report every failing test, then exit non-zero
                failed += 1
                print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
            else:
                print(f"PASS {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
