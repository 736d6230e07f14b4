"""Per-layer metrics from a traced run, and the attribution check.

Every value is per closed-loop iteration of the traced half (a suite pass,
one extract call, one dpc call), so it does not depend on how many
iterations fit in the measuring time. Self time is a span minus its direct
children. Functions a workload never calls read 0.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS
from worker import SUITE_COMMANDS

SELF_S = (
    "rank_copula.rank_transform",
    "rank_copula.extract_copula",
    "rank_copula.extract_family",
    "rank_copula.CopulaFamily.to_json",
    "metrics.d_pc",
    "metrics.js_divergence",
    "metrics.ssim",
    "metrics.psnr",
    "harness.mix_with_uniform",
    "harness.solve_decoder_weight",
    "harness.synthetic_corpus",
    "harness.run_axiom_table",
    "harness.run_rd_curve",
    "harness.run_concentration",
    "harness.run_channel_sweep",
    "harness.run_sla_pipeline",
    "harness.run_sla_surface",
    "codec.quantize",
    "codec.dequantize",
    "codec.pack",
    "codec.unpack",
    "codec.rd_sweep",
    "channel.transmit",
    "channel.ber_experiment",
    "transforms.apply_transform",
    "bounds.sla_surface",
    "bounds.r_min",
    "bounds.t_min",
    "bounds.fit_encoder_model",
    "image_io.read_pgm",
    "cli.main",
)
CALLS = (
    "rank_copula.rank_transform",
    "rank_copula.extract_copula",
    "metrics.d_pc",
    "metrics.js_divergence",
    "metrics.ssim",
    "harness.mix_with_uniform",
    "harness.solve_decoder_weight",
    "harness.synthetic_corpus",
    "codec.quantize",
    "codec.dequantize",
    "codec.pack",
    "codec.unpack",
    "codec.rd_sweep",
    "channel.transmit",
    "transforms.apply_transform",
    "bounds.sla_surface",
    "bounds.r_min",
    "bounds.t_min",
    "bounds.fit_encoder_model",
)
COUNTERS = {
    "rank_copula.rank_transform.pixels": "count",
    "rank_copula.extract_copula.pairs": "count",
    "rank_copula.CopulaFamily.to_json.bytes": "B",
    "rank_copula.EmpiricalCopula.constructed": "count",
    "metrics.ssim.windows": "count",
    "codec.pack.bytes": "B",
    "channel.transmit.bits": "count",
    "channel.transmit.bits_flipped": "count",
    "channel.ber_experiment.trials": "count",
    "image_io.read_pgm.bytes": "B",
}
COMMANDS = SUITE_COMMANDS + ("extract", "dpc")
# subcommand -> the functions or layers predicted to take most of its self time
PREDICTIONS = {
    "sla-pipeline": ("metrics.d_pc", "metrics.js_divergence"),
    "channel": ("metrics.d_pc", "metrics.js_divergence"),
    "axioms": ("metrics.ssim",),
    "dpc": ("metrics.ssim",),
    "extract": ("rank_copula",),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {f"{fn}.self_s": "s" for fn in SELF_S}
    units.update({f"{fn}.calls": "count" for fn in CALLS})
    units.update(COUNTERS)
    units["harness.solve_decoder_weight.d_pc_per_call"] = "count"
    units.update({f"layer.{layer}.self_s": "s" for layer in LAYERS})
    units.update({f"cli.main.{cmd}.wall_s": "s" for cmd in COMMANDS})
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    return units


def per_layer(result: dict) -> dict:
    """The result-line metrics of a traced run, named as in metric_units()."""
    tr = result["trace"]
    n = tr["iterations"]
    fns = tr["functions"]
    values = {}
    for fn in SELF_S:
        values[f"{fn}.self_s"] = fns.get(fn, {}).get("self_ns", 0) / 1e9 / n
    for fn in CALLS:
        values[f"{fn}.calls"] = fns.get(fn, {}).get("calls", 0) / n
    for name in COUNTERS:
        values[name] = tr["counters"].get(name, 0) / n
    solves = fns.get("harness.solve_decoder_weight", {}).get("calls", 0)
    values["harness.solve_decoder_weight.d_pc_per_call"] = (
        tr["solve_d_pc_children"] / solves if solves else 0.0
    )
    for layer in LAYERS:
        total = sum(v["self_ns"] for f, v in fns.items() if f.startswith(layer + "."))
        values[f"layer.{layer}.self_s"] = total / 1e9 / n
    for cmd in COMMANDS:
        walls = tr["label_wall_ns"].get(cmd)
        values[f"cli.main.{cmd}.wall_s"] = statistics.median(walls) / 1e9 if walls else 0.0
    values["trace.overhead_s"] = statistics.median(result["traced_iter_s"]) - statistics.median(
        result["untraced_iter_s"]
    )
    values["trace.spans"] = tr["spans"] / n
    units = metric_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def attribution(trace: dict) -> dict:
    """Share of each subcommand's traced self time in its predicted functions."""
    out = {}
    for label, predicted in PREDICTIONS.items():
        selfs = trace["by_label"].get(label)
        if not selfs:
            continue
        total = sum(selfs.values())

        def matches(fn: str) -> bool:
            return any(fn == p or fn.startswith(p + ".") for p in predicted)

        share = sum(v for fn, v in selfs.items() if matches(fn)) / total
        layers: dict[str, float] = {}
        for fn, v in selfs.items():
            layers[fn.split(".")[0]] = layers.get(fn.split(".")[0], 0.0) + v / total
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
        out[label] = {
            "predicted": list(predicted),
            "predicted_share": share,
            "holds": share > 0.5,
            "top_functions": {fn: v / total for fn, v in top},
            "layer_shares": dict(sorted(layers.items(), key=lambda kv: -kv[1])),
        }
    return out
