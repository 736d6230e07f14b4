"""Command line front end. Exit code 0: every asserted inequality held;
1: a check failed, with one `check failed: ...` line per failed check;
2: bad input (one `copsem: ...` stderr line) or argparse's usage error."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace

from . import bounds as bounds_mod
from .bounds import ConcentrationParams, DecoderModel, EncoderModel, nominal_d
from .harness import (
    DEFAULT_ALPHA,
    DEFAULT_CONCENTRATION,
    DEFAULT_CONTROL_N,
    DEFAULT_CTRIALS,
    DEFAULT_DECODER,
    DEFAULT_EPS,
    DEFAULT_EPS_EST,
    DEFAULT_T_GRID,
    OPERATING_T,
    ExperimentConfig,
    ExperimentResult,
    Table,
    _cell,
    _write_table,
    run_axiom_table,
    run_channel_sweep,
    run_concentration,
    run_rd_curve,
    run_sla_pipeline,
    run_sla_surface,
)
from .image_io import _load_pgm
from .metrics import d_pc, psnr, ssim
from .rank_copula import CopulaFamily, Displacement, extract_family


def _parse_delta(text: str) -> Displacement:
    try:
        dx, dy = text.split(",")
        return Displacement(int(dx), int(dy))
    except Exception:
        raise argparse.ArgumentTypeError(f"expected dx,dy got {text!r}") from None


# Every argument, defined once: name -> (flag, add_argument keywords). A
# flag's value lands under its name, and the names of ExperimentConfig
# fields (bins, deltas, stride, seed, out_dir, corpus, trials, bers, alphas)
# override that field of the config. Unset flags default to None or to a harness default.
_CON, _DEC = DEFAULT_CONCENTRATION, DEFAULT_DECODER
_ARGS = {
    "config": ("--config", dict(help="JSON or key=value experiment config file")),
    "bins": ("--bins", dict(type=int, help="bins per copula axis, B")),
    "deltas": ("--delta", dict(type=_parse_delta, action="append", help="dx,dy; repeatable")),
    "stride": ("--stride", dict(type=int, help="anchor stride of the estimate")),
    "seed": ("--seed", dict(type=int, help="master seed")),
    "out_dir": ("--out", dict(help="output directory for CSVs")),
    "corpus": ("--corpus", dict(nargs="*", help="PGM files (default: builtin synthetics)")),
    "trials": ("--trials", dict(type=int, help="channel trials per bit-error rate")),
    "alphas": ("--alphas", dict(type=float, nargs="*", help="quantizer steps")),
    "bers": ("--ber", dict(type=float, action="append", help="bit-error rate; repeatable")),
    "alpha": ("--alpha", dict(type=float, default=DEFAULT_ALPHA, help="quantizer step")),
    "t": ("--t", dict(type=float, default=_CON.t, help="estimation radius, mean L1")),
    "eta": ("--eta", dict(type=float, default=_CON.eta, help="estimation failure probability")),
    "cbins": ("--cbins", dict(type=int, default=_CON.bins, help="bins, concentration setup")),
    "cdeltas": (
        "--cdeltas",
        dict(type=int, default=_CON.n_deltas, help="displacements, concentration setup"),
    ),
    "ctrials": ("--ctrials", dict(type=int, default=DEFAULT_CTRIALS, help="trials per arm")),
    "control_n": (
        "--control-n",
        dict(type=int, default=DEFAULT_CONTROL_N, help="pairs in the control arm"),
    ),
    "eps": ("--eps", dict(type=float, default=DEFAULT_EPS, help="end-to-end distortion target")),
    "eps_est": ("--eps-est", dict(type=float, default=DEFAULT_EPS_EST, help="estimation budget")),
    "eps_enc": ("--eps-enc", dict(type=float, default=0.5, help="encoder distortion, converse")),
    "c": ("--c", dict(type=float, default=1.0, help="constant of the converse")),
    "rho": ("--rho", dict(type=float, default=_DEC.rho, help="decoder contraction per unit of T")),
    "delta0": ("--delta0", dict(type=float, default=_DEC.delta0, help="decoder error at T = 0")),
    "T_grid": ("--T", dict(type=float, action="append", help="compute budget; repeatable")),
    "T": ("--T", dict(type=float, default=OPERATING_T, help="compute budget")),
    "R": ("--R", dict(type=float, default=731.0, help="rate in bits")),
    "c2": ("--c2", dict(type=float, help="encoder constant (default: fitted; bounds: 0.20814)")),
    "d": ("--d", dict(type=int, help="encoder exponent (default |deltas| * (B^2 - 1))")),
    "images": ("images", dict(nargs="+", help="PGM files")),
    "a": ("a", dict(help="PGM file or family JSON")),
    "b": ("b", dict(help="PGM file or family JSON")),
}


def _build_config(args) -> ExperimentConfig:
    """The --config file (or the defaults), overridden by each flag given."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    updates = {"out_dir": "out"} if cfg.out_dir is None else {}  # the CLI always writes
    for f in fields(ExperimentConfig):
        v = getattr(args, f.name, None)
        if v is not None and v != []:  # a bare list flag keeps the config's
            updates[f.name] = tuple(v) if isinstance(v, list) else v
    return replace(cfg, **updates)


def _encoder(args, cfg: ExperimentConfig, default_c2: float | None = None) -> EncoderModel | None:
    """EncoderModel(--c2, --d); d defaults to the nominal exponent and c2 to
    default_c2. None when there is no c2, where --d alone is an error."""
    c2 = default_c2 if args.c2 is None else args.c2
    if c2 is None:
        if args.d is not None:
            raise ValueError("--d needs --c2")
        return None
    return EncoderModel(c2, nominal_d(len(cfg.deltas), cfg.bins) if args.d is None else args.d)


def _load_family(path: str, cfg: ExperimentConfig):
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return CopulaFamily.from_json(fh.read()), None
    _, img = _load_pgm(path)
    return extract_family(img, cfg.deltas, cfg.bins, cfg.stride), img


def _cmd_extract(args, cfg: ExperimentConfig) -> None:
    """image -> copula family JSON"""
    os.makedirs(cfg.out_dir, exist_ok=True)
    for path in args.images:
        stem, img = _load_pgm(path)
        fam = extract_family(img, cfg.deltas, cfg.bins, cfg.stride)
        out_path = os.path.join(cfg.out_dir, f"{stem}.family.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(fam.to_json())
        print(out_path)


def _cmd_dpc(args, cfg: ExperimentConfig) -> None:
    """distortion report for two images or families"""
    fam_a, img_a = _load_family(args.a, cfg)
    fam_b, img_b = _load_family(args.b, cfg)
    report = d_pc(fam_a, fam_b)
    p = s = None
    if img_a is not None and img_b is not None:
        p, s = psnr(img_a, img_b), ssim(img_a, img_b)
    header = ["image_a", "image_b", *(f"sqrt_js_{d.dx}_{d.dy}" for d in fam_a.deltas)]
    row = [args.a, args.b, *(r[2] for r in report.per_delta), report.d_pc, p, s]
    table = Table("copsem.distortion_report.v1", header + ["d_pc", "psnr", "ssim"], [row], None)
    _write_table(sys.stdout, table)


def _finish(name: str, result: ExperimentResult) -> int:
    """Print the values line, the summary, the warnings and one line per
    failed check; exit 1 when any check failed."""
    if result.values:
        print(" ".join(f"{k}={_cell(v)}" for k, v in result.values.items()))
    table = result.tables[0]
    print(f"{name}: ok={str(result.ok).lower()} rows={len(table.rows)} csv={table.path}")
    for w in result.warnings:
        print(f"warning: {w}")
    for c in result.checks:
        if not c.passed:
            print(f"check failed: {c.name} observed={_cell(c.observed)} limit={_cell(c.limit)}")
    return 0 if result.ok else 1


def _cmd_axioms(args, cfg: ExperimentConfig) -> ExperimentResult:
    """invariance/severity table over a corpus"""
    return run_axiom_table(cfg)


def _cmd_rd(args, cfg: ExperimentConfig) -> ExperimentResult:
    """rate-distortion sweep over a corpus"""
    return run_rd_curve(cfg)


def _cmd_concentration(args, cfg: ExperimentConfig) -> ExperimentResult:
    """estimation sample-size experiment"""
    params = ConcentrationParams(args.cbins, args.cdeltas, args.t, args.eta)
    return run_concentration(cfg, params, args.ctrials, args.control_n)


def _cmd_channel(args, cfg: ExperimentConfig) -> ExperimentResult:
    """bit-error-rate sweep"""
    return run_channel_sweep(cfg, alpha=args.alpha)


def _cmd_sla_pipeline(args, cfg: ExperimentConfig) -> ExperimentResult:
    """end-to-end stage composition check"""
    dec = DecoderModel(args.rho, args.delta0)
    return run_sla_pipeline(cfg, alpha=args.alpha, dec=dec, t_grid=args.T_grid or DEFAULT_T_GRID)


def _cmd_sla_surface(args, cfg: ExperimentConfig) -> ExperimentResult:
    """design surface eps(R, T) + inversions"""
    dec = DecoderModel(args.rho, args.delta0)
    enc = _encoder(args, cfg)
    return run_sla_surface(cfg, eps=args.eps, eps_est=args.eps_est, dec=dec, enc=enc)


def _cmd_bounds(args, cfg: ExperimentConfig) -> None:
    """closed-form calculators, name=value output"""
    params = ConcentrationParams(args.cbins, args.cdeltas, args.t, args.eta)
    n_deltas = len(cfg.deltas)
    dec = DecoderModel(args.rho, args.delta0)
    enc = _encoder(args, cfg, default_c2=0.20814)
    n_eff = bounds_mod.sample_complexity(params)
    lines = {
        "n_eff": n_eff,
        "eps_est_from_n_eff": bounds_mod.est_distortion_from_samples(n_eff, params),
        "rate_achievable_bits": bounds_mod.rate_achievability(n_deltas, cfg.bins, args.alpha),
        "enc_distortion_bound": bounds_mod.enc_distortion_bound(cfg.bins, args.alpha),
        "rate_converse_bits": bounds_mod.rate_converse(n_deltas, cfg.bins, args.eps_enc, args.c),
        "r_min_bits": bounds_mod.r_min(args.T, args.eps, args.eps_est, dec, enc),
        "t_min": bounds_mod.t_min(args.R, args.eps, args.eps_est, dec, enc),
    }
    for key, val in lines.items():  # only r_min and t_min return None: infeasible
        print(f"{key}={'infeasible' if val is None else _cell(val)}")


# Each subcommand: its handler and the _ARGS it reads besides config. A
# handler returns the ExperimentResult to report, or None once it has
# printed its output.
_COMMANDS = {
    "extract": (_cmd_extract, "bins deltas stride out_dir images"),
    "dpc": (_cmd_dpc, "bins deltas stride a b"),
    "axioms": (_cmd_axioms, "bins deltas stride seed out_dir corpus"),
    "rd": (_cmd_rd, "bins deltas stride seed out_dir corpus alphas"),
    "concentration": (_cmd_concentration, "seed out_dir t eta cbins cdeltas ctrials control_n"),
    "channel": (_cmd_channel, "bins deltas seed out_dir trials alpha bers"),
    "sla-pipeline": (_cmd_sla_pipeline, "bins deltas seed out_dir corpus alpha rho delta0 T_grid"),
    "sla-surface": (_cmd_sla_surface, "bins deltas seed out_dir eps eps_est rho delta0 c2 d"),
    "bounds": (
        _cmd_bounds,
        "bins deltas t eta cbins cdeltas alpha eps_enc c eps eps_est rho delta0 T R c2 d",
    ),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once; append flags copy their default on every parse; none abbreviates."""
    ap = argparse.ArgumentParser(
        "copsem", description="rank-copula structural semantics toolkit", allow_abbrev=False
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (fn, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=fn.__doc__, allow_abbrev=False)
        for name in ("config", *names.split()):
            flag, kwargs = _ARGS[name]
            if flag != name:  # argparse takes no dest for a positional
                kwargs = dict(kwargs, dest=name)
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        result = args.fn(args, _build_config(args))
        return 0 if result is None else _finish(args.command, result)
    except (ValueError, OSError) as exc:
        print(f"copsem: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
