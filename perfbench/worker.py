"""One workload in a process of its own: a single caller in a closed loop.

Usage (from the root of a copsem checkout):

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC names the workload, seed, measuring time, trace flag and input files.
The worker imports copsem from ./src, then calls `copsem.cli.main(argv)`
back to back, each call starting after the previous one returns, until the
measuring time is used. There is no warm-up: a CLI user pays first-call
costs on every invocation, and the median absorbs the one cold iteration. It keeps every
output's SHA-256 (and the text of each distinct output), records its peak
resident memory before any analysis, and writes everything to RESULT.
Checking the outputs is the parent's job.

With tracing on, the measuring time is split: the first half runs untraced,
the second half under `tracer.Tracer`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

SUITE_COMMANDS = ("axioms", "rd", "concentration", "channel", "sla-pipeline", "sla-surface")
SUITE_CSVS = {
    "axioms": ("axiom_table.csv",),
    "rd": ("rd_curve.csv", "rd_fit.csv"),
    "concentration": ("concentration.csv",),
    "channel": ("channel_sweep.csv",),
    "sla-pipeline": ("sla_pipeline.csv",),
    "sla-surface": ("sla_surface.csv",),
}


def suite_order(seed: int) -> list[str]:
    """The six subcommands in an order drawn from the workload seed.

    The subcommands themselves run at the default config (default seed,
    builtin corpus) at every workload seed: that config is the one the
    ROADMAP times and the only one with a byte-level behaviour contract
    (golden.json). Its Monte-Carlo gates are statistical, so at other
    config seeds a gate can miss by chance (channel's R^2 >= 0.95 does at
    a few seeds in a hundred) and the call exits 1.
    """
    import random

    order = list(SUITE_COMMANDS)
    random.Random(seed).shuffle(order)
    return order


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Loop:
    """Runs iterations of CLI calls and records time and outputs."""

    def __init__(self, spec: dict, cli):
        self.spec = spec
        self.cli = cli
        self.out_dir = spec["out_dir"]
        self.calls: list[dict] = []  # one per CLI call
        self.texts: dict[str, str] = {}  # output digest -> text
        self.tracer = None

    def call(self, label: str, key: str, argv: list[str], outputs) -> float:
        """One CLI call; returns its wall time.

        label is the subcommand, key names the input, outputs() -> {name: path}
        of the files to hash after the call.
        """
        buf = io.StringIO()
        op = len(self.calls) + 1
        if self.tracer is not None:
            self.tracer.op_id = op
        error = None
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an operation that raises counts as failed
            error = traceback.format_exc(limit=4)
        dt = time.perf_counter() - t0
        record = {"op": op, "label": label, "key": key, "argv": argv, "rc": rc, "error": error, "s": dt}
        stdout = buf.getvalue()
        record["stdout_sha"] = _sha(stdout.encode())
        self.texts.setdefault(record["stdout_sha"], stdout)
        digests = {}
        for key, path in outputs().items():
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError:
                digests[key] = None
                continue
            digest = _sha(data)
            digests[key] = digest
            if self.spec["workload"] == "ingest-2048":
                self.texts.setdefault(digest, data.decode("utf-8", "replace"))
        record["outputs"] = digests
        self.calls.append(record)
        return dt

    def iteration(self) -> float:
        """One closed-loop iteration, a pass over the workload's whole input
        set (six subcommands, three images or eight pairs); returns the sum of
        its call times."""
        spec = self.spec
        workload = spec["workload"]
        if workload == "suite":
            total = 0.0
            for cmd in suite_order(spec["seed"]):
                total += self.call(
                    cmd,
                    cmd,
                    [cmd, "--out", self.out_dir],
                    lambda cmd=cmd: {n: os.path.join(self.out_dir, n) for n in SUITE_CSVS[cmd]},
                )
            return total
        if workload == "ingest-2048":
            total = 0.0
            for path in spec["images"]:
                stem = os.path.splitext(os.path.basename(path))[0]
                out = os.path.join(self.out_dir, f"{stem}.family.json")
                total += self.call(
                    "extract", stem, ["extract", path, "--out", self.out_dir], lambda out=out: {"family": out}
                )
            return total
        if workload == "compare-512":
            total = 0.0
            for a, b in spec["pairs"]:
                total += self.call("dpc", os.path.basename(a), ["dpc", a, b], dict)
            return total
        raise ValueError(f"unknown workload {workload!r}")

    def run_for(self, seconds: float) -> list[float]:
        """Closed loop: start another iteration only while time remains."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.iteration())
        return times


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import copsem.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"copsem imported from {cli.__file__}, not from {src}")
    os.makedirs(spec["out_dir"], exist_ok=True)
    loop = Loop(spec, cli)
    result: dict = {}
    seconds = float(spec["seconds"])
    if spec["trace"]:
        from tracer import Tracer

        result["untraced_iter_s"] = loop.run_for(seconds / 2)
        first_traced = len(loop.calls) + 1
        with Tracer() as tracer:
            loop.tracer = tracer
            result["traced_iter_s"] = loop.run_for(seconds / 2)
            loop.tracer = None
        labels = {c["op"]: c["label"] for c in loop.calls if c["op"] >= first_traced}
        result["trace"] = tracer.summary(labels)
        result["trace"]["iterations"] = len(result["traced_iter_s"])
        spans_path = os.path.join(spec["run_dir"], "spans.csv.gz")
        tracer.write_spans(spans_path)
        result["trace"]["spans_file"] = spans_path
    else:
        result["iter_s"] = loop.run_for(seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result["calls"] = loop.calls
    result["texts"] = loop.texts
    if spec["workload"] == "suite":
        from copsem.harness import DEFAULT_SEED

        result["config_seed"] = DEFAULT_SEED
        result["suite_order"] = suite_order(spec["seed"])
        result["input_stats"] = _suite_stats(DEFAULT_SEED)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _suite_stats(seed: int) -> dict:
    """Properties of the builtin corpus, computed after timing and memory are read."""
    from copsem.harness import ExperimentConfig, fixture_image, synthetic_corpus
    from inputs import code_stats

    images = [img.pixels for _, img in synthetic_corpus(seed=seed)]
    fixture = fixture_image(ExperimentConfig(seed=seed)).pixels
    return {"corpus": code_stats(images), "fixture": code_stats([fixture])}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
