"""copsem benchmark: one workload, one seed, one result line.

Run from the root of a copsem checkout:

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  suite        the six experiment subcommands at the default config
  ingest-2048  `copsem extract` on 2048x2048 PGMs, one image per call, three a pass
  compare-512  `copsem dpc` on 512x512 original/degraded pairs, eight a pass

Set-up (not timed): the seeded inputs are written under .bench_out/, and
`import copsem` is timed in fresh interpreters for setup_s. The workload then
runs in a worker process of its own (worker.py), so peak memory is the
workload's. Every output is checked here afterwards: family JSONs bit for
bit and report rows against reference.py, suite CSVs against golden.json
(and across repeats). `suite` runs the subcommands at the program's default
config at every seed; the seed orders them (worker.suite_order).

The last stdout line is the result JSON: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones from a traced run. Everything else (timing
percentiles, per-command medians, inputs, environment, checks, trace
attribution) goes to .bench_out/<run>/result.json and to the lines above.
"""

from __future__ import annotations

import argparse
import os
import sys

# Pin every BLAS/OpenMP pool to one thread before numpy loads anywhere.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("suite", "ingest-2048", "compare-512")
SETUP_REPEATS = 5
DEADLINE_S = 170.0


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment record


def _run_text(argv: list[str], **kw) -> str | None:
    try:
        out = subprocess.run(argv, capture_output=True, text=True, timeout=20, check=True, **kw)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cache_sizes() -> dict:
    sizes = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        text = _run_text(["getconf", key])
        sizes[key.lower()] = int(text) if text and text.isdigit() else None
    return sizes


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def environment(versions: dict, caches: dict) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": platform.processor() or platform.machine(),
        "caches_bytes": caches,
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_commit": _run_text(["git", "rev-parse", "HEAD"], env=env),
        "src_sha256": source_digest(os.path.join("src", "copsem")),
        "thread_env": THREAD_ENV,
        "threads_note": "copsem is single-threaded; no layer waits on another, so no wait time is reported",
        "loop": "closed loop, one caller, in one worker process",
    }


# ---------------------------------------------------------------------------
# statistics


def timing(values: list[float]) -> dict:
    """Median, sample count and, from 20 samples on (below that it would not lie
    above the median), the highest whole percentile with ten samples above it."""
    vals = sorted(values)
    n = len(vals)
    out = {"n": n, "median": statistics.median(vals)}
    if n >= 20:
        p = math.floor(100.0 * (1.0 - 10.0 / n))
        idx = min(n - 1, max(0, math.ceil(p / 100.0 * n) - 1))
        out[f"p{p}"] = vals[idx]
    return out


# ---------------------------------------------------------------------------
# set-up


def measure_setup(child_env: dict) -> list[float]:
    """Wall time of a fresh interpreter running `import copsem`, repeated."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import copsem"], env=child_env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


# ---------------------------------------------------------------------------
# checks


def golden_mode(config_seed: int, vers: dict) -> tuple[dict | None, str]:
    """golden.json when it applies to this config seed and these numpy/scipy versions."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    if config_seed != golden["seed"]:
        return None, (
            f"the program's default seed {config_seed} is not the golden seed {golden['seed']}: "
            "repeat identity checked"
        )
    if any(vers.get(k) != golden[k] for k in ("numpy", "scipy")):
        return None, (
            f"golden.json was made with numpy {golden['numpy']}, scipy {golden['scipy']}; "
            f"running numpy {vers.get('numpy')}, scipy {vers.get('scipy')}: repeat identity checked"
        )
    return golden, "CSVs checked against golden.json"


def check_suite(calls: list[dict], golden: dict | None) -> tuple[set[int], list[str]]:
    """Exit 0 everywhere; CSVs equal to golden when given, identical across repeats always."""
    bad, notes = set(), []
    first: dict[str, str] = {}
    for c in calls:
        reasons = []
        if c["error"] or c["rc"] != 0:
            reasons.append(f"rc={c['rc']} {c['error'] or ''}".strip())
        for name, digest in c["outputs"].items():
            if digest is None:
                reasons.append(f"{name} missing")
            elif golden is not None and digest != golden["csv_sha256"][name]:
                reasons.append(f"{name} differs from golden.json")
            elif first.setdefault(name, digest) != digest:
                reasons.append(f"{name} differs from the first pass")
        if reasons:
            bad.add(c["op"])
            notes.append(f"{c['label']} op {c['op']}: " + "; ".join(reasons))
    return bad, notes


def _check_calls(calls: list[dict], digest_of, verdict) -> tuple[set[int], list[str]]:
    """Fail each call that raised, exited non-zero, or whose output gets a reason
    from verdict(input key, output digest); verdicts are cached per pair."""
    bad, notes, cache = set(), [], {}
    for c in calls:
        digest = digest_of(c)
        if c["error"] or c["rc"] != 0:
            reason = f"rc={c['rc']} {c['error'] or ''}".strip()
        elif digest is None:
            reason = "no output written"
        else:
            if (c["key"], digest) not in cache:
                cache[(c["key"], digest)] = verdict(c["key"], digest)
            reason = cache[(c["key"], digest)]
        if reason:
            bad.add(c["op"])
            notes.append(f"{c['label']} {c['key']} op {c['op']}: {reason}")
    return bad, notes


def check_ingest(calls: list[dict], texts: dict, images: list[str]) -> tuple[set[int], list[str]]:
    """Each family JSON equals the reference family of its image, bit for bit."""
    import reference

    by_stem = {os.path.splitext(os.path.basename(p))[0]: p for p in images}

    def verdict(key: str, digest: str) -> str | None:
        with open(by_stem[key], "rb") as fh:
            ref = reference.family(reference.parse_pgm(fh.read()))
        return reference.family_mismatch(texts[digest], ref)

    return _check_calls(calls, lambda c: c["outputs"].get("family"), verdict)


def check_compare(calls: list[dict], texts: dict, pairs: list[list[str]]) -> tuple[set[int], list[str]]:
    """Each report names its pair and matches the reference d_pc terms, PSNR and SSIM."""
    import reference

    by_a = {os.path.basename(a): (a, b) for a, b in pairs}

    def verdict(key: str, digest: str) -> str | None:
        a, b = by_a[key]
        text = texts[digest]
        lines = text.splitlines()
        if len(lines) < 3 or not lines[2].startswith(f"{a},{b},"):
            return f"report row does not name {a},{b}"
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return reference.report_mismatch(text, reference.parse_pgm(fa.read()), reference.parse_pgm(fb.read()))

    return _check_calls(calls, lambda c: c["stdout_sha"], verdict)


# ---------------------------------------------------------------------------
# metrics


def call_times(calls: list[dict]) -> dict[str, list[float]]:
    """Wall times of the CLI calls, grouped by subcommand."""
    by_label: dict[str, list[float]] = {}
    for c in calls:
        by_label.setdefault(c["label"], []).append(c["s"])
    return by_label


def end_to_end(result: dict, setup: list[float]) -> dict:
    """iter_s is the median time of one pass over the workload's input set.

    A pass (4-5 s on suite, 2.5 s on ingest-2048) spans several calls, so a
    stretch in which the machine runs fast or slow moves a pass less than it
    moves single calls, and the median over passes then drops the outliers.
    """
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "iter_s": {"value": statistics.median(result["iter_s"]), "unit": "s"},
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "copsem", "cli.py")):
        fail("no src/copsem/cli.py here; run from the root of a copsem checkout")
    sys.path.insert(0, HERE)
    child_env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    run_dir = os.path.join(root, ".bench_out", tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "inputs"))

    caches = cache_sizes()
    l2 = caches.get("level2_cache_size")

    import inputs  # numpy loads here, after the thread pins

    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "out_dir": os.path.join(run_dir, "out"),
        "run_dir": run_dir,
    }
    in_dir = os.path.join(run_dir, "inputs")
    if args.workload == "ingest-2048":
        spec["images"], input_stats = inputs.make_ingest(args.seed, in_dir, l2)
    elif args.workload == "compare-512":
        spec["pairs"], input_stats = inputs.make_compare(args.seed, in_dir, l2)
    else:
        input_stats = None
    setup = measure_setup(child_env)

    spec_path = os.path.join(run_dir, "spec.json")
    result_path = os.path.join(run_dir, "worker.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            env=child_env,
            capture_output=True,
            text=True,
            timeout=max(budget, 1.0),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    calls = result["calls"]
    vers = result["versions"]
    env = environment(vers, caches)
    if args.workload == "suite":
        golden, detail_golden = golden_mode(result["config_seed"], vers)
        bad, notes = check_suite(calls, golden)
        input_stats = result.pop("input_stats")
        for group in input_stats.values():
            group["rank_field_over_l2"] = group["rank_field_bytes"] / l2 if l2 else None
    elif args.workload == "ingest-2048":
        bad, notes = check_ingest(calls, result["texts"], spec["images"])
    else:
        bad, notes = check_compare(calls, result["texts"], spec["pairs"])

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "inputs": input_stats,
        "setup_s": timing(setup),
        "attempted": len(calls),
        "failed": len(bad),
        "ops_failed_frac": len(bad) / len(calls),
        "failures": notes[:50],
    }
    if args.workload == "suite":
        detail["golden"] = detail_golden
        detail["config_seed"] = result["config_seed"]
        detail["suite_order"] = result["suite_order"]
    if args.trace:
        import perlayer

        metrics = perlayer.per_layer(result)
        detail["attribution"] = perlayer.attribution(result["trace"])
        detail["spans_file"] = result["trace"]["spans_file"]
        detail["untraced_iter_s"] = timing(result["untraced_iter_s"])
        detail["traced_iter_s"] = timing(result["traced_iter_s"])
    else:
        metrics = end_to_end(result, setup)
        detail["iter_s"] = timing(result["iter_s"])
        detail["first_iter_s"] = result["iter_s"][0]
        detail["call_s"] = {k: timing(v) for k, v in call_times(calls).items()}
        if args.workload == "ingest-2048":
            detail["ingest_mpix_per_s"] = (
                input_stats["images"] * input_stats["pixels_per_image"] / 1e6 / metrics["iter_s"]["value"]
            )
        elif args.workload == "compare-512":
            detail["compare_pairs_per_s"] = len(spec["pairs"]) / metrics["iter_s"]["value"]
    detail["metrics"] = metrics
    with open(os.path.join(run_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)

    print(f"environment: {json.dumps(env)}")
    print(f"inputs: {json.dumps(input_stats)}")
    for key in ("setup_s", "iter_s", "call_s", "golden", "untraced_iter_s", "traced_iter_s", "attribution"):
        if key in detail:
            print(f"{key}: {json.dumps(detail[key])}")
    for note in notes[:10]:
        print(f"FAILED {note}")
    print(f"detail: {os.path.relpath(os.path.join(run_dir, 'result.json'), root)}")
    line = {"correct": not bad, "attempted": len(calls), "failed": len(bad), "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
