"""Experiment harness: every closed-form bound gets a Monte-Carlo check.

Each runner is a pure function of (config, parameters): re-running with the
same inputs reproduces its CSV byte for byte. Every CSV starts with a
schema line, then a header row. Every runner returns an ExperimentResult:
its tables, one Check per inequality it asserts, and the scalar diagnostics
it reports; the result is ok only if every check passed.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
from dataclasses import astuple, dataclass

import numpy as np

from .bounds import (
    ConcentrationParams,
    DecoderModel,
    EncoderModel,
    SlaBudget,
    _headroom,
    fit_encoder_model,
    nominal_d,
    r_min,
    sample_complexity,
    sla_compose,
    sla_surface,
    t_min,
)
from .channel import _ber_experiments, _check_runs, _seeded, _trial_seeds, trial_seed
from .codec import (
    RdPoint, _alpha_sweep, _dequantize_rows, _quantize_cells, levels_for_alpha, quantize, rd_sweep
)
from .image_io import U8, GrayImage, _fork_map, _in_range, _load_pgm, _row_blocks, _stems, _sweep
from .metrics import (
    _d_pc_batch, _js_scorer, _mean_sqrt, _ssim_batch, psnr
)
from .rank_copula import (
    DEFAULT_BINS,
    DEFAULT_DELTAS,
    CopulaFamily,
    Displacement,
    _check_masses,
    _displacements,
    _extract_families,
    extract_family,
    non_overlapping_stride,
)
from .transforms import apply_transform, default_bank, gaussian_blur_array, monotone_check

DEFAULT_ALPHAS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)
DEFAULT_BERS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
DEFAULT_SEED = 20260819
# The runners' default operating point; the CLI flags default to these names.
DEFAULT_ALPHA = 1 / 64
DEFAULT_DECODER = DecoderModel(0.9, 0.1)
DEFAULT_T_GRID = (0.0, 5.0, 10.0, 20.0, 40.0)
OPERATING_T = 20.0
DEFAULT_EPS, DEFAULT_EPS_EST = 0.05, 0.01
DEFAULT_CONCENTRATION = ConcentrationParams(4, 2, 0.1, 0.05)
DEFAULT_CTRIALS, DEFAULT_CONTROL_N = 500, 10


@dataclass(frozen=True)
class ExperimentConfig:
    corpus: tuple[str, ...] = ()
    deltas: tuple[Displacement, ...] = DEFAULT_DELTAS
    bins: int = DEFAULT_BINS
    stride: int = 1
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    bers: tuple[float, ...] = DEFAULT_BERS
    trials: int = 200
    seed: int = DEFAULT_SEED
    out_dir: str | None = None  # None: the runners write no file

    def __post_init__(self):
        object.__setattr__(self, "deltas", _displacements(self.deltas))
        seed = _in_range("seed", self.seed, 0, math.inf, "[)", integer=True)
        object.__setattr__(self, "seed", seed)
        _stems(self.corpus)  # a repeated image name fails before any file is read

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Load a config as JSON or flat key=value lines."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            try:
                doc = json.loads(text)
            except RecursionError:
                raise ValueError(f"config {path!r} is nested too deeply") from None
        else:
            doc = {}
            for line in text.splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line {line!r}")
                key, val = line.split("=", 1)
                doc[key.strip()] = val.strip()
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Build a config from parsed JSON or key=value strings; any unknown
        key, null or mistyped value raises ValueError."""
        kwargs = {}
        for key, v in doc.items():
            if key in ("bins", "stride", "trials", "seed"):
                kwargs[key] = _config_number(key, v, int)
            elif key in ("alphas", "bers"):
                items = _config_list(key, v, ",")
                kwargs[key] = tuple(_config_number(key, x, float) for x in items)
            elif key == "deltas":
                items = _config_list(key, v, ";")
                pairs = [p.split(",") if isinstance(p, str) else p for p in items]
                if not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
                    raise ValueError(f"config deltas: expected dx,dy pairs, got {v!r}")
                kwargs[key] = tuple(
                    Displacement(*(_config_number(key, c, int) for c in p)) for p in pairs
                )
            elif key in ("corpus", "out_dir"):
                paths = _config_list(key, v, ",") if key == "corpus" else [v]
                if not all(isinstance(p, str) for p in paths):
                    raise ValueError(f"config {key}: expected file paths, got {v!r}")
                kwargs[key] = tuple(paths) if key == "corpus" else v
            else:
                raise ValueError(f"unknown config key {key!r}")
        return cls(**kwargs)


def _config_list(key: str, v, sep: str) -> list:
    """A list field: a JSON list, or a string split on sep."""
    if isinstance(v, str):
        return [s for s in v.split(sep) if s]
    if isinstance(v, (list, tuple)):
        return list(v)
    raise ValueError(f"config {key}: expected a list or a string, got {v!r}")


def _config_number(key: str, v, kind: type):
    """int or float from a JSON number or a string; an int field takes a
    float only when it is integral, and a string only in integer notation."""
    if not isinstance(v, bool) and (kind is float or not isinstance(v, float) or v.is_integer()):
        try:
            return kind(v)
        except (TypeError, ValueError, OverflowError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"config {key}: expected {what}, got {v!r}")


def synthetic_corpus(
    count: int = 20, size: int = 96, seed: int = DEFAULT_SEED
) -> list[tuple[str, GrayImage]]:
    """Seeded textures: smoothed noise plus fine noise, rank-flattened onto
    the codes 0..170.

    The flat histogram keeps per-code populations small, and the 170 ceiling
    keeps the default monotone requantized bank saturation-free, so ordering
    experiments measure structural damage rather than clipping or histogram
    lumping.
    """
    return [
        (f"tex{k:02d}", _texture(seed, k, size, 0.6 + 0.45 * (k % 5), fine_noise=0.25))
        for k in range(count)
    ]


def _texture(seed: int, k: int, size: int, sigma: float, fine_noise: float) -> GrayImage:
    """Seeded normal noise, Gaussian-blurred at sigma, plus fine_noise times
    fresh noise (no draw when 0), rank-flattened onto the codes 0..170."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11, k)))
    base = rng.normal(0.0, 1.0, (size, size))
    kernel = 2 * int(math.ceil(3.0 * sigma)) + 1
    tex = gaussian_blur_array(base, kernel, sigma)
    if fine_noise:
        tex = tex + fine_noise * rng.normal(0.0, 1.0, (size, size))
    px = np.floor(_ordinal_ranks(tex.ravel()) * 171.0 / tex.size).astype(np.uint8)
    return GrayImage(size, size, px.reshape(size, size))


def _ordinal_ranks(values: np.ndarray) -> np.ndarray:
    """0-based ordinal ranks of a 1-D array, ties broken by position: the
    inverse permutation of np.argsort(values, kind="stable"). Without ties
    every sort gives that permutation, so the faster default sort runs first."""
    idx = np.argsort(values)
    if not np.all(np.diff(values[idx]) > 0):
        idx = np.argsort(values, kind="stable")
    order = np.empty_like(idx)
    order[idx] = np.arange(idx.size)
    return order


def load_corpus(cfg: ExperimentConfig) -> list[tuple[str, GrayImage]]:
    """(stem, image) of each configured PGM file, else the synthetic corpus."""
    return [_load_pgm(p) for p in cfg.corpus] if cfg.corpus else synthetic_corpus(seed=cfg.seed)


def _cell(v) -> str:
    """The one rule for a table cell or a printed value: "" for None, true/false
    (tested first: a bool is an integer), str for integers, str as is, a tuple
    as [a, b], and other reals as "inf" or their shortest exact round-trip repr."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, numbers.Integral):
        return str(v)
    if isinstance(v, str):
        return v
    if isinstance(v, tuple):
        return "[" + ", ".join(map(_cell, v)) + "]"
    return "inf" if math.isinf(v) else repr(float(v))


@dataclass(frozen=True)
class Table:
    """One CSV table: schema copsem.<name>.v1, written as <out_dir>/<name>.csv;
    path is None when the table was not written to a file. Each row value is
    stored as its _cell string."""

    schema: str
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    path: str | None

    def __post_init__(self):
        object.__setattr__(self, "header", tuple(self.header))
        object.__setattr__(self, "rows", tuple(tuple(map(_cell, r)) for r in self.rows))


def _write_table(fh, table: Table) -> None:
    """The #schema= line, then the header and the rows as newline-terminated CSV."""
    fh.write(f"#schema={table.schema}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(table.header)
    writer.writerows(table.rows)


@dataclass(frozen=True)
class Check:
    """One asserted inequality. observed is its worst value over all
    instances; limit is the bound, or the closed range [lo, hi]; passed is
    the runner's own comparison, applied to every instance."""

    name: str
    observed: float
    limit: float | tuple[float, float]
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    """What an experiment runner produced; ok only if every check passed."""

    tables: tuple[Table, ...]
    checks: tuple[Check, ...]
    values: dict[str, float | int | None]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, limit: float, instances: list[tuple[float, bool]]) -> Check:
    """One Check over (observed, passed) instances of an upper limit: observed
    is the largest value (-inf when there are none)."""
    observed = max((v for v, _ in instances), default=-math.inf)
    return Check(name, observed, limit, all(p for _, p in instances))


def _result(
    out_dir: str | None,
    tables: list[tuple[str, list[str], list[list]]],
    checks: list[Check],
    values: dict | None = None,
    warnings: tuple[str, ...] = (),
) -> ExperimentResult:
    """Write each (name, header, rows of raw values) table to
    <out_dir>/<name>.csv, unless out_dir is None, and wrap the run's output
    in one ExperimentResult."""
    written = []
    for name, header, rows in tables:
        path = None if out_dir is None else os.path.join(out_dir, f"{name}.csv")
        table = Table(f"copsem.{name}.v1", header, rows, path)
        if path is not None:
            os.makedirs(out_dir or ".", exist_ok=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_table(fh, table)
        written.append(table)
    return ExperimentResult(tuple(written), tuple(checks), dict(values or {}), tuple(warnings))


# ---------------------------------------------------------------------------
# invariance / severity table


def run_axiom_table(cfg: ExperimentConfig) -> ExperimentResult:
    """d_pc / PSNR / SSIM for every corpus image under the default bank.

    Per-image verdict passes iff every monotone row has d_pc <= 0.02
    (check monotone_d_pc) and every degradation row exceeds every monotone
    row (check severity_order, observed as max(monotone) - min(degraded),
    which must stay below 0).
    """
    bank = default_bank(awgn_seed=cfg.seed + 1)
    header = ["image", "transform", "domain", "monotone", "d_pc", "psnr", "ssim", "verdict"]
    rows: list[list] = []
    mono_worst, overlaps = [], []

    def score(img: GrayImage) -> list[tuple]:
        # the image and its bank outputs in stacks of about _BLOCK cells (one stack at
        # the default bins): one count, mass check and d_pc call a stack, then one ssim call
        n, b2 = len(cfg.deltas), cfg.bins * cfg.bins
        outs, dists = [apply_transform(img, spec) for spec in bank], []
        stack = [img, *outs]
        for blk in _row_blocks(len(stack), n * b2):
            cells = _extract_families(stack[blk], cfg.deltas, cfg.bins, cfg.stride)[0]
            cells = cells.reshape(-1, n, b2)
            _check_masses(cells.reshape(-1, b2), "cell masses")
            if blk.start == 0:
                ref, cells = cells[0], cells[1:]
            dists += _d_pc_batch(ref, cells).tolist()
        ssims = iter(_ssim_batch(img, [out for out in outs if out.domain == U8]).tolist())
        entries = []
        for spec, out, dist in zip(bank, outs, dists):
            p, s = (psnr(img, out), next(ssims)) if out.domain == U8 else (None, None)
            entries.append((spec, out.domain, monotone_check(spec), dist, p, s))
        return entries

    for name, entries in _fork_map(lambda e: (e[0], score(e[1])), load_corpus(cfg)):
        mono = [e[3] for e in entries if e[2]]
        dmg = [e[3] for e in entries if not e[2]]
        top_mono, low_dmg = max(mono), min(dmg)
        mono_ok, order_ok = top_mono <= 0.02, low_dmg > top_mono
        mono_worst.append((top_mono, mono_ok))
        overlaps.append((top_mono - low_dmg, order_ok))
        verdict = "pass" if mono_ok and order_ok else "fail"
        for spec, domain, is_mono, dist, p, s in entries:
            rows.append([name, spec.canonical(), domain, is_mono, dist, p, s, verdict])
    checks = [
        _check("monotone_d_pc", 0.02, mono_worst),
        _check("severity_order", 0.0, overlaps),
    ]
    return _result(cfg.out_dir, [("axiom_table", header, rows)], checks)


# ---------------------------------------------------------------------------
# rate-distortion


def _fit_interior(points: list[RdPoint], d: int | None = None) -> tuple[float, float, float]:
    """fit_encoder_model over the (rate_theory_bits, distortion) of an
    alpha-descending sweep, dropping its two end points when it has more
    than two: (c2, d_eff, r_squared)."""
    interior = points[1:-1] if len(points) > 2 else points
    rates = [p.rate_theory_bits for p in interior]
    return fit_encoder_model(rates, [p.distortion for p in interior], d=d)


def run_rd_curve(cfg: ExperimentConfig) -> ExperimentResult:
    """Quantizer sweep per image plus a log-linear fit over the interior alphas.

    Asserted: distortion within the closed-form bound (hard failure only
    beyond 2x, check distortion_over_bound; single-bound misses are
    warnings) and empirical rate within the fixed-length envelope of
    |deltas| * B^2 bits over theory (check rate_excess_bits). A distortion
    uptick at finer alpha is reported as a warning, not a failure: copulas
    whose cell masses sit near a half-lattice point of some step can decode
    worse at that step than at the coarser one (see the fixture_image note).
    """
    n, b2 = len(cfg.deltas), cfg.bins * cfg.bins
    header = ["image", "alpha", "rate_theory_bits", "rate_empirical_bits", "d_pc", "bound"]
    fit_header = ["image", "c2_fit", "d_eff", "r_squared"]
    rows, fit_rows, warnings, over_bound, rate_excess = [], [], [], [], []
    alphas = _alpha_sweep(cfg.alphas)[0]  # before any extraction

    def sweep(img: GrayImage) -> list[RdPoint]:
        return rd_sweep(extract_family(img, cfg.deltas, cfg.bins, cfg.stride), alphas)

    for name, points in _fork_map(lambda e: (e[0], sweep(e[1])), load_corpus(cfg)):
        for i, pt in enumerate(points):
            rows.append([name, *astuple(pt)])  # alpha, rate_theory, rate_empirical, d_pc, bound
            within_2x = pt.distortion <= 2.0 * pt.bound
            over_bound.append((pt.distortion / pt.bound, within_2x))
            if within_2x and pt.distortion > pt.bound:
                warnings.append(
                    f"{name}: alpha={pt.alpha!r} distortion {pt.distortion!r} "
                    f"above single bound {pt.bound!r} (within 2x)"
                )
            if i > 0 and pt.distortion > points[i - 1].distortion + 1e-12:
                warnings.append(
                    f"{name}: distortion rose from alpha={points[i - 1].alpha!r} "
                    f"to alpha={pt.alpha!r} ({points[i - 1].distortion!r} -> "
                    f"{pt.distortion!r})"
                )
            excess = pt.rate_empirical_bits - pt.rate_theory_bits
            rate_excess.append((excess, pt.rate_empirical_bits <= pt.rate_theory_bits + n * b2))
        try:
            c2, d_eff, r2 = _fit_interior(points)
            fit_rows.append([name, c2, d_eff, r2])
        except ValueError as exc:
            fit_rows.append([name, None, None, None])
            warnings.append(f"{name}: no rd fit ({exc})")
    checks = [
        _check("distortion_over_bound", 2.0, over_bound),
        _check("rate_excess_bits", float(n * b2), rate_excess),
    ]
    tables = [("rd_curve", header, rows), ("rd_fit", fit_header, fit_rows)]
    return _result(cfg.out_dir, tables, checks, warnings=warnings)


# ---------------------------------------------------------------------------
# estimation concentration


def _concentration_l1(params: ConcentrationParams, n: int, rng: np.random.Generator) -> float:
    """One trial: sample n independence-copula pairs per displacement from
    rng; the mean L1 error of their empirical copulas. The pairs are drawn and
    counted in _row_blocks chunks of one stream, at least B^2 pairs each so a
    chunk outweighs its B^2-cell count: bounded memory, the same counts."""
    b = params.bins
    l1 = 0.0
    for _ in range(params.n_deltas):
        counts = np.zeros(b * b, dtype=np.int64)
        for s in _row_blocks(n, 2, b * b):
            u = (rng.random((len(range(n)[s]), 2)) * b).astype(np.int64)
            counts += np.bincount(u[:, 0] * b + u[:, 1], minlength=b * b)
        l1 += float(np.abs(counts / n - 1.0 / (b * b)).sum())
    return l1 / params.n_deltas


def run_concentration(
    cfg: ExperimentConfig,
    params: ConcentrationParams = DEFAULT_CONCENTRATION,
    trials: int = DEFAULT_CTRIALS,
    control_n: int = DEFAULT_CONTROL_N,
) -> ExperimentResult:
    """Validate the sample-size formula: at the prescribed n_eff the failure
    fraction stays within eta (check nominal_failure_fraction); at control_n
    it does not (check control_failure_fraction)."""
    _in_range("trials", trials, 1, math.inf, "[)")
    _in_range("control_n", control_n, 1, math.inf, "[)")
    n_eff = sample_complexity(params)
    t, eta = float(params.t), float(params.eta)
    header = "arm bins n_deltas t eta n_eff trials failures failure_fraction mean_l1".split()
    rows = []
    fractions = []
    ns = (n_eff, control_n)
    # trial i of arm a draws default_rng(SeedSequence((seed, 71, a, i))), hashed here
    # for the children to share; one item per trial index, with both arms: the
    # nominal arm costs about twice the control
    seeds, g = [_trial_seeds((cfg.seed, 71, a), trials) for a in (0, 1)], np.random.default_rng(0)
    l1s = _fork_map(
        lambda i: [
            _concentration_l1(params, n, _seeded(g, seeds[a][i].tolist())) for a, n in enumerate(ns)
        ],
        range(trials),
    )
    for arm, (label, n) in enumerate(zip(("nominal", "control"), ns)):
        failures, l1_sum = 0, 0.0
        for trial in l1s:
            l1_sum += trial[arm]
            failures += trial[arm] > params.t
        frac, mean_l1 = failures / trials, l1_sum / trials
        fractions.append(frac)
        rows.append(
            [label, params.bins, params.n_deltas, t, eta, n, trials, failures, frac, mean_l1]
        )
    checks = [
        Check("nominal_failure_fraction", fractions[0], params.eta, fractions[0] <= params.eta),
        Check("control_failure_fraction", fractions[1], params.eta, fractions[1] > params.eta),
    ]
    return _result(cfg.out_dir, [("concentration", header, rows)], checks)


# ---------------------------------------------------------------------------
# channel sweep


def fixture_image(cfg: ExperimentConfig) -> GrayImage:
    """Smoothed-noise 256x256 image shared by the rate-distortion fit, the
    channel sweep and the surface experiment.

    Plain white noise makes a bad fixture here: its copulas are nearly
    uniform, so every cell mass sits at 1/B^2, which is exactly half the
    step for alpha = 2/B^2. At that sweep point round-to-nearest error is
    maximal per cell and the distortion spikes mid-sweep, ruining any
    log-linear rate fit. Blurring the noise gives the copulas real
    structure and a clean, monotone decay instead.
    """
    return _texture(cfg.seed, 0, 256, 1.5, fine_noise=0.0)


def fixture_family(cfg: ExperimentConfig) -> CopulaFamily:
    return extract_family(fixture_image(cfg), cfg.deltas, cfg.bins, stride=1)


def run_channel_sweep(cfg: ExperimentConfig, alpha: float = DEFAULT_ALPHA) -> ExperimentResult:
    """Mean corruption distortion per bit-error rate on the fixture family.

    Distortion is identically zero at r = 0, so linearity is judged on the
    proportional model mean = K_lin * r fitted through the origin
    (uncentered R^2). The constant k_fit pinned at the largest r is
    reported, never assumed.

    Asserted: means non-decreasing in r (check means_non_decreasing,
    observed as the largest drop between neighbours), proportional-fit
    R^2 >= 0.95 (check r_squared), and doubling r from 1e-3 to 2e-3 scales
    the mean by a factor in [1.6, 2.4] (check doubling_ratio; a fresh pair
    of runs at 400 trials each).
    """
    alpha, bers = float(alpha), _sweep("ber", cfg.bers)
    runs = [(r, cfg.trials, trial_seed(cfg.seed, 73, i)) for i, r in enumerate(bers)]
    runs += [(1e-3, 400, trial_seed(cfg.seed, 91, 1)), (2e-3, 400, trial_seed(cfg.seed, 91, 2))]
    _check_runs(runs)  # the input checks come before the fixture is built
    levels_for_alpha(alpha)
    q = quantize(fixture_family(cfg), alpha)
    *exps, lo, hi = _ber_experiments(q, runs)
    top = exps[-1]
    k_fit = top.mean_d_pc / top.shape_lra if top.shape_lra > 0 else 0.0
    means = [e.mean_d_pc for e in exps]
    rs = np.asarray(bers)
    ys = np.asarray(means)
    rr = float(np.sum(rs * rs))
    k_lin = float(np.sum(rs * ys)) / rr if rr > 0 else 0.0
    ss_y = float(np.sum(ys**2))
    r2 = 1.0 if ss_y == 0.0 else 1.0 - float(np.sum((ys - k_lin * rs) ** 2)) / ss_y
    doubling = hi.mean_d_pc / lo.mean_d_pc if lo.mean_d_pc > 0 else math.inf
    steps = [(a - b, a <= b + 1e-12) for a, b in zip(means, means[1:])]
    checks = [
        _check("means_non_decreasing", 1e-12, steps),
        Check("r_squared", r2, 0.95, r2 >= 0.95),
        Check("doubling_ratio", doubling, (1.6, 2.4), 1.6 <= doubling <= 2.4),
    ]
    header = ["r", "alpha", "L", "trials", "mean_d_pc_ch", "std", "shape_Lra", "k_fit"]
    rows = [
        [e.ber, e.alpha, e.bits_per_cell, e.trials, e.mean_d_pc, e.std_d_pc, e.shape_lra, k_fit]
        for e in exps
    ]
    values = {"k_fit": k_fit, "k_lin": k_lin, "r_squared": r2, "doubling_ratio": doubling}
    return _result(cfg.out_dir, [("channel_sweep", header, rows)], checks, values)


# ---------------------------------------------------------------------------
# end-to-end SLA pipeline


def _mix_cells(cells: np.ndarray, w: float, b2: int, out: np.ndarray | None = None) -> np.ndarray:
    """(1 - w) * cells + w * uniform, for copulas of b2 cells, written into out if given."""
    return np.add(np.multiply(1.0 - w, cells, out=out), w / b2, out=out)


def mix_with_uniform(family: CopulaFamily, w: float) -> CopulaFamily:
    """(1 - w) * family + w * uniform, per copula."""
    _in_range("w", w, 0.0, 1.0)
    cells = _mix_cells(family.cells, w, family.bins * family.bins)
    return CopulaFamily(family.deltas, cells, (0,) * len(family.deltas), stride=0)


def solve_decoder_weight(family: CopulaFamily, target: float) -> float:
    """The mixing weight whose measured distortion hits target (capped at
    the distance to the uniform family): the one-problem case of
    _solve_weights."""
    cells = family.cells.reshape(1, len(family.deltas), -1)
    return float(_solve_weights(cells, [target])[0])


def _solve_weights(cells: np.ndarray, targets: np.ndarray | list[float]) -> np.ndarray:
    """For each problem p, the mixing weight w whose distortion
    d_pc(cells[p], (1 - w) * cells[p] + w * uniform) hits targets[p], for
    (P, D, n) cells and (P,) targets.

    A target <= 0 gives 0.0, and 1.0 is returned when the uniform family is
    within target. Otherwise a bracket keeps d(lo) < target <= d(hi) and
    shrinks until no float lies strictly between lo and hi; the returned
    midpoint is then one of the two. The problems are bisected in lockstep, one
    _js_scorer per _row_blocks block of the (P, D * n) cells: each step writes
    every problem's mix into one buffer and scores them all, and each problem
    visits exactly its own midpoints (a finished one's is lo or hi, which its
    score leaves in place). A mix of two distributions needs no mass check. A
    NaN target raises ValueError."""
    targets = np.asarray(targets, dtype=np.float64)
    _in_range("decoder target", float(targets.min(initial=math.inf)), -math.inf, math.inf)
    out = np.zeros(len(targets))
    for s in _row_blocks(len(targets), math.prod(cells.shape[1:])):
        idx = np.arange(len(targets))[s]
        idx = idx[targets[idx] > 0.0]
        ref, target = cells[idx], targets[idx]
        js, mix = _js_scorer(ref, ref.shape), np.empty(ref.shape)

        def score(w: np.ndarray) -> np.ndarray:  # each step's mixes go into one buffer
            return _mean_sqrt(js(_mix_cells(ref, w[:, None, None], ref.shape[-1], mix)))

        hi = np.ones(len(idx))
        lo = (score(hi) <= target).astype(np.float64)  # the capped problems start at lo = hi = 1
        while ((lo < (mid := 0.5 * (lo + hi))) & (mid < hi)).any():
            below = score(mid) < target
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        out[idx] = mid
    return out


def run_sla_pipeline(
    cfg: ExperimentConfig,
    alpha: float = DEFAULT_ALPHA,
    dec: DecoderModel = DEFAULT_DECODER,
    t_grid: tuple[float, ...] = DEFAULT_T_GRID,
) -> ExperimentResult:
    """Full chain per image: dense truth family -> disjoint-pair estimate ->
    quantized encode -> synthetic decode (mixed toward uniform so the decode
    error tracks rho^T * delta0). Asserts the additive composition of the
    three measured stage distortions (check composition, observed as
    d_total - bound) and that decode error does not grow with compute
    budget (check decode_non_increasing, observed as the largest rise).

    T runs ascending, and an empty grid or a repeated T raises ValueError.
    Per _row_blocks block of images (about _BLOCK (image, T) cells, or one
    image), each run of images of one shape takes one stacked count per
    stride, and the estimates are encoded as one stack; paired _d_pc_batch
    calls score the estimate and encode stages, one lockstep solve weighs
    every (image, T), two more score the decode and end-to-end stages, and
    each stack's masses are checked once."""
    alpha, t_grid = float(alpha), _sweep("compute grid", t_grid)
    targets = [dec.error(t) for t in t_grid]
    top = levels_for_alpha(alpha) - 1  # T and alpha are checked before the corpus is loaded
    sub = non_overlapping_stride(cfg.deltas)
    n, b2, k = len(cfg.deltas), cfg.bins * cfg.bins, len(t_grid)
    corpus = load_corpus(cfg)
    header = "image stride alpha T w d_est d_enc d_dec d_total bound holds".split()
    rows, excess, rises = [], [], []
    for blk in _row_blocks(len(corpus), k * n * b2):
        images, stacks = [img for _, img in corpus[blk]], []
        shapes = [img.pixels.shape for img in images]
        cuts = [j for j in range(1, len(images)) if shapes[j] != shapes[j - 1]]
        for a, b in zip([0, *cuts], [*cuts, len(images)]):  # runs of one shape
            stacks += [_extract_families(images[a:b], cfg.deltas, cfg.bins, s)[0] for s in (1, sub)]
        truths, ests = (np.concatenate(stacks[s::2]).reshape(-1, n, b2) for s in (0, 1))
        encs = _dequantize_rows(_quantize_cells(ests, alpha, top), alpha, cfg.bins)
        d_ests, d_encs = _d_pc_batch(truths, ests).tolist(), _d_pc_batch(ests, encs).tolist()
        ws = _solve_weights(np.repeat(encs, k, axis=0), targets * len(images)).reshape(-1, k)
        mixed = _mix_cells(encs[:, None], ws[:, :, None, None], b2)  # (images, T, D, B * B)
        for stage in (truths, ests, encs, mixed):
            _check_masses(stage.reshape(-1, b2), "cell masses")
        d_decs, d_totals = (_d_pc_batch(ref[:, None], mixed).tolist() for ref in (encs, truths))
        per_image = zip(corpus[blk], d_ests, d_encs, ws.tolist(), d_decs, d_totals)
        for (name, _), d_est, d_enc, w_i, dec_i, total_i in per_image:
            for j, (t_budget, w, d_dec, d_total) in enumerate(zip(t_grid, w_i, dec_i, total_i)):
                bound = sla_compose(SlaBudget(d_est, d_enc, d_dec)).eps_total
                holds = d_total <= bound + 1e-12
                excess.append((d_total - bound, holds))
                if j:
                    rises.append((d_dec - dec_i[j - 1], d_dec <= dec_i[j - 1] + 1e-12))
                rows.append(
                    [name, sub, alpha, t_budget, w, d_est, d_enc, d_dec, d_total, bound, holds]
                )
    checks = [
        _check("composition", 1e-12, excess),
        _check("decode_non_increasing", 1e-12, rises),
    ]
    return _result(cfg.out_dir, [("sla_pipeline", header, rows)], checks)


# ---------------------------------------------------------------------------
# SLA design surface


def fit_encoder_from_fixture(cfg: ExperimentConfig) -> EncoderModel:
    """Fit c2 on the fixture's measured R-D points at the nominal exponent d."""
    d = nominal_d(len(cfg.deltas), cfg.bins)
    c2, _, _ = _fit_interior(rd_sweep(fixture_family(cfg), cfg.alphas), d)
    return EncoderModel(c2, d)


def run_sla_surface(
    cfg: ExperimentConfig,
    eps: float = DEFAULT_EPS,
    eps_est: float = DEFAULT_EPS_EST,
    dec: DecoderModel = DEFAULT_DECODER,
    enc: EncoderModel | None = None,
) -> ExperimentResult:
    """Tabulate eps(R, T) at 21 x 21 points, R in [0, 1500] bits and T in
    [0, 40], and verify the r_min / t_min inversions against it.

    enc defaults to the encoder model fitted on the noise fixture, so the
    surface is anchored to measured behavior rather than assumed constants.

    Asserted: every inversion round trip within 1e-6 (check
    max_roundtrip_err), eps strictly decreasing along R and along T (checks
    decreasing_in_R / decreasing_in_T, observed as the largest step), and a
    finite r_min at T = OPERATING_T and eps (check operating_point_feasible).
    """
    _headroom(eps, eps_est, 0.0)
    if enc is None:
        enc = fit_encoder_from_fixture(cfg)
    r_grid = tuple(float(v) for v in np.linspace(0.0, 1500.0, 21))
    t_grid = tuple(float(v) for v in np.linspace(0.0, 40.0, 21))
    grid = sla_surface(r_grid, t_grid, eps_est, dec, enc)
    header = ["R", "T", "eps"]
    rows = []
    max_err = 0.0
    for i, r in enumerate(r_grid):
        for j, t in enumerate(t_grid):
            e = float(grid[i, j])
            rows.append([r, t, e])
            r_back = r_min(t, e, eps_est, dec, enc)
            t_back = t_min(r, e, eps_est, dec, enc)
            if r_back is None or t_back is None:
                max_err = math.inf
            else:
                max_err = max(max_err, abs(r_back - r), abs(t_back - t))
    op_r = r_min(OPERATING_T, eps, eps_est, dec, enc)
    checks = [Check("max_roundtrip_err", max_err, 1e-6, max_err <= 1e-6)]
    for axis, name in enumerate("RT"):
        steps = np.diff(grid, axis=axis)
        worst = float(steps.max(initial=-math.inf))
        checks.append(Check(f"decreasing_in_{name}", worst, 0.0, bool(np.all(steps < 0.0))))
    feasible = op_r is not None
    checks.append(
        Check("operating_point_feasible", op_r if feasible else math.inf, math.inf, feasible)
    )
    values = dict(enc_c2=enc.c2, enc_d=enc.d, max_roundtrip_err=max_err, operating_r_min=op_r)
    return _result(cfg.out_dir, [("sla_surface", header, rows)], checks, values)
