"""Command line front end. Exit code 0: every asserted inequality held;
1: a check failed, with one `check failed: ...` line per failed check;
2: bad input or usage, with one `copsem: ...` stderr line."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from .bounds import ConcentrationParams, DecoderModel, EncoderModel
from .harness import (
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
from .image_io import read_pgm
from .metrics import d_pc, psnr, ssim
from .rank_copula import CopulaFamily, Displacement, extract_family


def _parse_delta(text: str) -> Displacement:
    try:
        dx, dy = text.split(",")
        return Displacement(int(dx), int(dy))
    except Exception:
        raise argparse.ArgumentTypeError(f"expected dx,dy got {text!r}") from None


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON or key=value experiment config file")
    p.add_argument("--bins", type=int, default=None)
    p.add_argument(
        "--delta",
        type=_parse_delta,
        action="append",
        default=None,
        help="displacement dx,dy; repeatable",
    )
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory for CSVs")
    p.add_argument("--corpus", nargs="*", default=None, help="PGM files (default: builtin synthetics)")
    p.add_argument("--trials", type=int, default=None)


def _build_config(args) -> ExperimentConfig:
    """The --config file (or the defaults), overridden by each flag given."""
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    flags = {
        "bins": args.bins,
        "deltas": args.delta,
        "stride": args.stride,
        "seed": args.seed,
        "out_dir": args.out,
        "corpus": args.corpus,
        "trials": args.trials,
        "bers": getattr(args, "ber", None),
        "alphas": getattr(args, "alphas", None) or None,  # a bare --alphas keeps the config's
    }
    updates = {k: tuple(v) if isinstance(v, list) else v for k, v in flags.items() if v is not None}
    return replace(cfg, **updates)


def _load_family(path: str, cfg: ExperimentConfig):
    if path.endswith(".json"):
        with open(path, "r", encoding="utf-8") as fh:
            return CopulaFamily.from_json(fh.read()), None
    with open(path, "rb") as fh:
        img = read_pgm(fh.read())
    return extract_family(img, cfg.deltas, cfg.bins, cfg.stride), img


def _cmd_extract(args) -> int:
    cfg = _build_config(args)
    os.makedirs(cfg.out_dir, exist_ok=True)
    for path in args.images:
        with open(path, "rb") as fh:
            img = read_pgm(fh.read())
        fam = extract_family(img, cfg.deltas, cfg.bins, cfg.stride)
        stem = os.path.splitext(os.path.basename(path))[0]
        out_path = os.path.join(cfg.out_dir, f"{stem}.family.json")
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(fam.to_json())
        print(out_path)
    return 0


def _cmd_dpc(args) -> int:
    cfg = _build_config(args)
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
    return 0


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


def _cmd_axioms(args) -> int:
    cfg = _build_config(args)
    return _finish("axioms", run_axiom_table(cfg, out_dir=cfg.out_dir))


def _cmd_rd(args) -> int:
    cfg = _build_config(args)
    return _finish("rd", run_rd_curve(cfg, out_dir=cfg.out_dir))


def _cmd_concentration(args) -> int:
    cfg = _build_config(args)
    params = ConcentrationParams(args.cbins, args.cdeltas, args.t, args.eta)
    result = run_concentration(
        cfg, params, trials=args.ctrials, control_n=args.control_n, out_dir=cfg.out_dir
    )
    return _finish("concentration", result)


def _cmd_channel(args) -> int:
    cfg = _build_config(args)
    return _finish("channel", run_channel_sweep(cfg, alpha=args.alpha, out_dir=cfg.out_dir))


def _cmd_sla_pipeline(args) -> int:
    cfg = _build_config(args)
    dec = DecoderModel(args.rho, args.delta0)
    t_grid = tuple(args.T) if args.T else (0.0, 5.0, 10.0, 20.0, 40.0)
    result = run_sla_pipeline(cfg, alpha=args.alpha, dec=dec, t_grid=t_grid, out_dir=cfg.out_dir)
    return _finish("sla-pipeline", result)


def _cmd_sla_surface(args) -> int:
    cfg = _build_config(args)
    dec = DecoderModel(args.rho, args.delta0)
    enc = None
    if args.c2 is not None and args.d is not None:
        enc = EncoderModel(args.c2, args.d)
    result = run_sla_surface(
        cfg, eps=args.eps, eps_est=args.eps_est, dec=dec, enc=enc, out_dir=cfg.out_dir
    )
    return _finish("sla-surface", result)


def _cmd_bounds(args) -> int:
    cfg = _build_config(args)
    params = ConcentrationParams(args.cbins, args.cdeltas, args.t, args.eta)
    n_deltas = len(cfg.deltas)
    dec = DecoderModel(args.rho, args.delta0)
    enc = EncoderModel(args.c2, args.d if args.d is not None else n_deltas * (cfg.bins**2 - 1))
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
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="copsem",
        description="rank-copula structural semantics toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="image -> copula family JSON")
    _common_flags(p)
    p.add_argument("images", nargs="+")
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("dpc", help="distortion report for two images or families")
    _common_flags(p)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(fn=_cmd_dpc)

    p = sub.add_parser("axioms", help="invariance/severity table over a corpus")
    _common_flags(p)
    p.set_defaults(fn=_cmd_axioms)

    p = sub.add_parser("rd", help="rate-distortion sweep over a corpus")
    _common_flags(p)
    p.add_argument("--alphas", type=float, nargs="*", default=None)
    p.set_defaults(fn=_cmd_rd)

    p = sub.add_parser("concentration", help="estimation sample-size experiment")
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--cbins", type=int, default=4)
    p.add_argument("--cdeltas", type=int, default=2)
    p.add_argument("--ctrials", type=int, default=500)
    p.add_argument("--control-n", type=int, default=10)
    p.set_defaults(fn=_cmd_concentration)

    p = sub.add_parser("channel", help="bit-error-rate sweep")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=1 / 64)
    p.add_argument("--ber", type=float, action="append", default=None)
    p.set_defaults(fn=_cmd_channel)

    p = sub.add_parser("sla-pipeline", help="end-to-end stage composition check")
    _common_flags(p)
    p.add_argument("--alpha", type=float, default=1 / 64)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--delta0", type=float, default=0.1)
    p.add_argument("--T", type=float, action="append", default=None)
    p.set_defaults(fn=_cmd_sla_pipeline)

    p = sub.add_parser("sla-surface", help="design surface eps(R, T) + inversions")
    _common_flags(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--eps-est", type=float, default=0.01)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--delta0", type=float, default=0.1)
    p.add_argument("--c2", type=float, default=None)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=_cmd_sla_surface)

    p = sub.add_parser("bounds", help="closed-form calculators, name=value output")
    _common_flags(p)
    p.add_argument("--t", type=float, default=0.1)
    p.add_argument("--eta", type=float, default=0.05)
    p.add_argument("--cbins", type=int, default=4)
    p.add_argument("--cdeltas", type=int, default=2)
    p.add_argument("--alpha", type=float, default=1 / 64)
    p.add_argument("--eps-enc", type=float, default=0.5)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--eps-est", type=float, default=0.01)
    p.add_argument("--rho", type=float, default=0.9)
    p.add_argument("--delta0", type=float, default=0.1)
    p.add_argument("--T", type=float, default=20.0)
    p.add_argument("--R", type=float, default=731.0)
    p.add_argument("--c2", type=float, default=0.20814)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(fn=_cmd_bounds)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"copsem: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
