"""Experiment harness: every closed-form bound gets a Monte-Carlo check.

Each runner is a pure function of (config, parameters): re-running with the
same inputs reproduces its CSV byte for byte. Every CSV starts with a
schema line, then a header row. Runner results carry an ok flag that is
true only if all inequalities asserted by that experiment held.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import (
    ConcentrationParams,
    DecoderModel,
    EncoderModel,
    fit_encoder_model,
    r_min,
    sample_complexity,
    t_min,
    sla_surface,
)
from .channel import ber_experiment
from .codec import dequantize, quantize, rd_sweep
from .image_io import U8, GrayImage, read_pgm
from .metrics import d_pc, format_float, psnr, ssim
from .rank_copula import (
    DEFAULT_BINS,
    DEFAULT_DELTAS,
    CopulaFamily,
    Displacement,
    extract_family,
    non_overlapping_stride,
)
from .transforms import apply_transform, default_bank, gaussian_blur_array, monotone_check

DEFAULT_ALPHAS = (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256)
DEFAULT_BERS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
DEFAULT_SEED = 20260819


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
    out_dir: str = "out"

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        """Load a config as JSON or flat key=value lines."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            doc = json.loads(text)
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
        kwargs = {}
        if "corpus" in doc:
            v = doc["corpus"]
            kwargs["corpus"] = tuple(v) if isinstance(v, (list, tuple)) else tuple(
                s for s in str(v).split(",") if s
            )
        if "deltas" in doc:
            v = doc["deltas"]
            if isinstance(v, str):
                pairs = [p for p in v.split(";") if p]
                kwargs["deltas"] = tuple(
                    Displacement(int(a), int(b))
                    for a, b in (p.split(",") for p in pairs)
                )
            else:
                kwargs["deltas"] = tuple(Displacement(int(a), int(b)) for a, b in v)
        for key in ("bins", "stride", "trials", "seed"):
            if key in doc:
                kwargs[key] = int(doc[key])
        for key in ("alphas", "bers"):
            if key in doc:
                v = doc[key]
                if isinstance(v, str):
                    v = [s for s in v.split(",") if s]
                kwargs[key] = tuple(float(x) for x in v)
        if "out_dir" in doc:
            kwargs["out_dir"] = str(doc["out_dir"])
        return cls(**kwargs)


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
    order = np.argsort(np.argsort(tex.ravel(), kind="stable"))  # ordinal ranks, 0-based
    px = np.floor(order * 171.0 / tex.size).astype(np.uint8).reshape(size, size)
    return GrayImage(size, size, px)


def load_corpus(cfg: ExperimentConfig) -> list[tuple[str, GrayImage]]:
    if not cfg.corpus:
        return synthetic_corpus(seed=cfg.seed)
    out = []
    for path in cfg.corpus:
        with open(path, "rb") as fh:
            img = read_pgm(fh.read())
        name = os.path.splitext(os.path.basename(path))[0]
        out.append((name, img))
    return out


def _sub_seed(seed: int, *tags: int) -> int:
    ss = np.random.SeedSequence((seed,) + tags)
    return int(ss.generate_state(1, np.uint64)[0])


def _write_csv(path: str, schema: str, header: list[str], rows: list[list[str]]):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"#schema={schema}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _flag(b: bool) -> str:
    return "true" if b else "false"


# ---------------------------------------------------------------------------
# invariance / severity table


@dataclass(frozen=True)
class AxiomTableResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    ok: bool
    csv_path: str | None


def run_axiom_table(cfg: ExperimentConfig, out_dir: str | None = None) -> AxiomTableResult:
    """d_pc / PSNR / SSIM for every corpus image under the default bank.

    Per-image verdict passes iff every monotone row has d_pc <= 0.02 and
    every degradation row exceeds every monotone row.
    """
    images = load_corpus(cfg)
    bank = default_bank(awgn_seed=cfg.seed + 1)
    header = ["image", "transform", "domain", "monotone", "d_pc", "psnr", "ssim", "verdict"]
    rows: list[list[str]] = []
    all_ok = True
    for name, img in images:
        fam0 = extract_family(img, cfg.deltas, cfg.bins, cfg.stride)
        entries = []
        for spec in bank:
            out_img = apply_transform(img, spec)
            fam1 = extract_family(out_img, cfg.deltas, cfg.bins, cfg.stride)
            dist = d_pc(fam0, fam1).d_pc
            if out_img.domain == U8:
                p, s = psnr(img, out_img), ssim(img, out_img)
            else:
                p, s = None, None
            entries.append((spec, out_img.domain, monotone_check(spec), dist, p, s))
        mono = [e[3] for e in entries if e[2]]
        dmg = [e[3] for e in entries if not e[2]]
        verdict = max(mono) <= 0.02 and min(dmg) > max(mono)
        all_ok = all_ok and verdict
        for spec, domain, is_mono, dist, p, s in entries:
            rows.append(
                [
                    name,
                    spec.canonical(),
                    domain,
                    _flag(is_mono),
                    format_float(dist),
                    "" if p is None else format_float(p),
                    "" if s is None else format_float(s),
                    "pass" if verdict else "fail",
                ]
            )
    csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "axiom_table.csv")
        _write_csv(csv_path, "copsem.axiom_table.v1", header, rows)
    return AxiomTableResult(tuple(header), tuple(tuple(r) for r in rows), all_ok, csv_path)


# ---------------------------------------------------------------------------
# rate-distortion


@dataclass(frozen=True)
class RdCurveResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    fit_header: tuple[str, ...]
    fit_rows: tuple[tuple[str, ...], ...]
    warnings: tuple[str, ...]
    ok: bool
    csv_path: str | None
    fit_csv_path: str | None


def run_rd_curve(cfg: ExperimentConfig, out_dir: str | None = None) -> RdCurveResult:
    """Quantizer sweep per image plus a log-linear fit over the interior alphas.

    Asserted: distortion within the closed-form bound (hard failure only
    beyond 2x, single-bound misses are warnings) and empirical rate within
    the fixed-length envelope. A distortion uptick at finer alpha is
    reported as a warning, not a failure: copulas whose cell masses sit
    near a half-lattice point of some step can decode worse at that step
    than at the coarser one (see the fixture_image note).
    """
    images = load_corpus(cfg)
    n = len(cfg.deltas)
    b2 = cfg.bins * cfg.bins
    header = ["image", "alpha", "rate_theory_bits", "rate_empirical_bits", "d_pc", "bound"]
    fit_header = ["image", "c2_fit", "d_eff", "r_squared"]
    rows, fit_rows, warnings = [], [], []
    ok = True
    for name, img in images:
        fam = extract_family(img, cfg.deltas, cfg.bins, cfg.stride)
        points = rd_sweep(fam, cfg.alphas)
        for i, pt in enumerate(points):
            rows.append(
                [
                    name,
                    format_float(pt.alpha),
                    format_float(pt.rate_theory_bits),
                    format_float(pt.rate_empirical_bits),
                    format_float(pt.distortion),
                    format_float(pt.bound),
                ]
            )
            if pt.distortion > 2.0 * pt.bound:
                ok = False
            elif pt.distortion > pt.bound:
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
            if pt.rate_empirical_bits > pt.rate_theory_bits + n * b2:
                ok = False
        interior = points[1:-1] if len(points) > 2 else points
        try:
            c2, d_eff, r2 = fit_encoder_model(
                [p.rate_theory_bits for p in interior],
                [p.distortion for p in interior],
            )
            fit_rows.append([name, format_float(c2), format_float(d_eff), format_float(r2)])
        except ValueError as exc:
            fit_rows.append([name, "", "", ""])
            warnings.append(f"{name}: no rd fit ({exc})")
    csv_path = fit_csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "rd_curve.csv")
        fit_csv_path = os.path.join(out_dir, "rd_fit.csv")
        _write_csv(csv_path, "copsem.rd_curve.v1", header, rows)
        _write_csv(fit_csv_path, "copsem.rd_fit.v1", fit_header, fit_rows)
    return RdCurveResult(
        tuple(header),
        tuple(tuple(r) for r in rows),
        tuple(fit_header),
        tuple(tuple(r) for r in fit_rows),
        tuple(warnings),
        ok,
        csv_path,
        fit_csv_path,
    )


# ---------------------------------------------------------------------------
# estimation concentration


@dataclass(frozen=True)
class ConcentrationResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    ok: bool
    csv_path: str | None


def _concentration_arm(
    params: ConcentrationParams, n_eff: int, trials: int, seed: int, arm: int
) -> tuple[int, float]:
    """Sample n_eff independence-copula pairs per displacement per trial;
    count trials whose mean L1 error exceeds t."""
    b = params.bins
    uniform = 1.0 / (b * b)
    failures = 0
    l1_sum = 0.0
    for t_idx in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 71, arm, t_idx)))
        u = rng.random((params.n_deltas, n_eff, 2))
        ij = (u[:, :, 0] * b).astype(np.int64) * b + (u[:, :, 1] * b).astype(np.int64)
        l1 = 0.0
        for k in range(params.n_deltas):
            counts = np.bincount(ij[k], minlength=b * b)
            l1 += float(np.abs(counts / n_eff - uniform).sum())
        l1 /= params.n_deltas
        l1_sum += l1
        if l1 > params.t:
            failures += 1
    return failures, l1_sum / trials


def run_concentration(
    cfg: ExperimentConfig,
    params: ConcentrationParams = ConcentrationParams(4, 2, 0.1, 0.05),
    trials: int = 500,
    control_n: int = 10,
    out_dir: str | None = None,
) -> ConcentrationResult:
    """Validate the sample-size formula: at the prescribed n_eff the failure
    fraction stays within eta; at control_n it does not."""
    n_eff = sample_complexity(params)
    header = [
        "arm",
        "bins",
        "n_deltas",
        "t",
        "eta",
        "n_eff",
        "trials",
        "failures",
        "failure_fraction",
        "mean_l1",
    ]
    rows = []
    fractions = []
    for arm, n in enumerate((n_eff, control_n)):
        failures, mean_l1 = _concentration_arm(params, n, trials, cfg.seed, arm)
        frac = failures / trials
        fractions.append(frac)
        rows.append(
            [
                "nominal" if arm == 0 else "control",
                str(params.bins),
                str(params.n_deltas),
                format_float(params.t),
                format_float(params.eta),
                str(n),
                str(trials),
                str(failures),
                format_float(frac),
                format_float(mean_l1),
            ]
        )
    ok = fractions[0] <= params.eta and fractions[1] > params.eta
    csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "concentration.csv")
        _write_csv(csv_path, "copsem.concentration.v1", header, rows)
    return ConcentrationResult(tuple(header), tuple(tuple(r) for r in rows), ok, csv_path)


# ---------------------------------------------------------------------------
# channel sweep


@dataclass(frozen=True)
class ChannelSweepResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    means: tuple[float, ...]
    k_fit: float
    k_lin: float
    r_squared: float
    r_squared_affine: float
    doubling_ratio: float
    ok: bool
    csv_path: str | None


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


def run_channel_sweep(
    cfg: ExperimentConfig,
    alpha: float = 1 / 64,
    family: CopulaFamily | None = None,
    doubling_r: float = 1e-3,
    doubling_trials: int = 400,
    out_dir: str | None = None,
) -> ChannelSweepResult:
    """Mean corruption distortion per bit-error rate.

    Distortion is identically zero at r = 0, so linearity is judged on the
    proportional model mean = K_lin * r fitted through the origin
    (uncentered R^2); the affine fit's R^2 is kept as a diagnostic. The
    constant k_fit pinned at the largest r is reported, never assumed.

    Asserted: means non-decreasing in r, proportional-fit R^2 >= 0.95,
    and doubling r from doubling_r scales the mean by a factor in
    [1.6, 2.4] (a fresh pair of runs at doubling_trials each).
    """
    if family is None:
        family = fixture_family(cfg)
    q = quantize(family, alpha)
    bers = tuple(sorted(cfg.bers))
    if not bers:
        raise ValueError("empty ber sweep")
    exps = [
        ber_experiment(q, r, cfg.trials, _sub_seed(cfg.seed, 73, i))
        for i, r in enumerate(bers)
    ]
    top = exps[-1]
    k_fit = top.mean_d_pc / top.shape_lra if top.shape_lra > 0 else 0.0
    means = [e.mean_d_pc for e in exps]
    rs = np.asarray(bers)
    ys = np.asarray(means)
    k_lin = float(np.sum(rs * ys) / np.sum(rs * rs))
    ss_y = float(np.sum(ys**2))
    r2 = 1.0 if ss_y == 0.0 else 1.0 - float(np.sum((ys - k_lin * rs) ** 2)) / ss_y
    slope, intercept = np.polyfit(rs, ys, 1)
    pred = intercept + slope * rs
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2_affine = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum((ys - pred) ** 2)) / ss_tot
    lo = ber_experiment(q, doubling_r, doubling_trials, _sub_seed(cfg.seed, 91, 1))
    hi = ber_experiment(q, 2.0 * doubling_r, doubling_trials, _sub_seed(cfg.seed, 91, 2))
    doubling = hi.mean_d_pc / lo.mean_d_pc if lo.mean_d_pc > 0 else math.inf
    monotone = all(means[i] <= means[i + 1] + 1e-12 for i in range(len(means) - 1))
    ok = monotone and r2 >= 0.95 and 1.6 <= doubling <= 2.4
    header = ["r", "alpha", "L", "trials", "mean_d_pc_ch", "std", "shape_Lra", "k_fit"]
    rows = [
        [
            format_float(e.ber),
            format_float(e.alpha),
            str(e.bits_per_cell),
            str(e.trials),
            format_float(e.mean_d_pc),
            format_float(e.std_d_pc),
            format_float(e.shape_lra),
            format_float(k_fit),
        ]
        for e in exps
    ]
    csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "channel_sweep.csv")
        _write_csv(csv_path, "copsem.channel_sweep.v1", header, rows)
    return ChannelSweepResult(
        tuple(header),
        tuple(tuple(r) for r in rows),
        tuple(means),
        k_fit,
        k_lin,
        r2,
        r2_affine,
        doubling,
        ok,
        csv_path,
    )


# ---------------------------------------------------------------------------
# end-to-end SLA pipeline


def mix_with_uniform(family: CopulaFamily, w: float) -> CopulaFamily:
    """(1 - w) * family + w * uniform, per copula."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w must be in [0, 1], got {w!r}")
    cells = (1.0 - w) * family.cells + w / (family.bins * family.bins)
    return CopulaFamily(family.deltas, cells, (0,) * len(family.deltas), stride=0)


def solve_decoder_weight(family: CopulaFamily, target: float, iters: int = 80) -> float:
    """Bisect the mixing weight whose measured distortion hits target
    (capped at the distance to the uniform family)."""
    if target <= 0.0:
        return 0.0
    if d_pc(family, mix_with_uniform(family, 1.0)).d_pc <= target:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if d_pc(family, mix_with_uniform(family, mid)).d_pc < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SlaPipelineResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    ok: bool
    csv_path: str | None


def run_sla_pipeline(
    cfg: ExperimentConfig,
    alpha: float = 1 / 64,
    dec: DecoderModel = DecoderModel(0.9, 0.1),
    t_grid: tuple[float, ...] = (0.0, 5.0, 10.0, 20.0, 40.0),
    out_dir: str | None = None,
) -> SlaPipelineResult:
    """Full chain per image: dense truth family -> disjoint-pair estimate ->
    quantized encode -> synthetic decode (mixed toward uniform so the decode
    error tracks rho^T * delta0). Asserts the additive composition of the
    three measured stage distortions and that decode error does not grow
    with compute budget."""
    images = load_corpus(cfg)
    sub = non_overlapping_stride(cfg.deltas)
    header = [
        "image",
        "stride",
        "alpha",
        "T",
        "w",
        "d_est",
        "d_enc",
        "d_dec",
        "d_total",
        "bound",
        "holds",
    ]
    rows = []
    ok = True
    for name, img in images:
        truth = extract_family(img, cfg.deltas, cfg.bins, stride=1)
        est = extract_family(img, cfg.deltas, cfg.bins, stride=sub)
        d_est = d_pc(truth, est).d_pc
        enc_fam = dequantize(quantize(est, alpha))
        d_enc = d_pc(est, enc_fam).d_pc
        prev_dec = None
        for t_budget in t_grid:
            target = dec.error(t_budget)
            w = solve_decoder_weight(enc_fam, target)
            out_fam = mix_with_uniform(enc_fam, w)
            d_dec = d_pc(enc_fam, out_fam).d_pc
            d_total = d_pc(truth, out_fam).d_pc
            bound = d_est + d_enc + d_dec
            holds = d_total <= bound + 1e-12
            ok = ok and holds
            if prev_dec is not None and d_dec > prev_dec + 1e-12:
                ok = False
            prev_dec = d_dec
            rows.append(
                [
                    name,
                    str(sub),
                    format_float(alpha),
                    format_float(t_budget),
                    format_float(w),
                    format_float(d_est),
                    format_float(d_enc),
                    format_float(d_dec),
                    format_float(d_total),
                    format_float(bound),
                    _flag(holds),
                ]
            )
    csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "sla_pipeline.csv")
        _write_csv(csv_path, "copsem.sla_pipeline.v1", header, rows)
    return SlaPipelineResult(tuple(header), tuple(tuple(r) for r in rows), ok, csv_path)


# ---------------------------------------------------------------------------
# SLA design surface


@dataclass(frozen=True)
class SlaSurfaceResult:
    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    enc: EncoderModel
    dec: DecoderModel
    eps_est: float
    max_roundtrip_err: float
    operating_r_min: float | None
    ok: bool
    csv_path: str | None


def fit_encoder_from_fixture(cfg: ExperimentConfig) -> EncoderModel:
    """Fit c2 on the fixture's measured R-D points at the nominal
    exponent d = |deltas| * (B^2 - 1)."""
    fam = fixture_family(cfg)
    points = rd_sweep(fam, cfg.alphas)
    interior = points[1:-1] if len(points) > 2 else points
    d_nominal = len(cfg.deltas) * (cfg.bins * cfg.bins - 1)
    c2, _, _ = fit_encoder_model(
        [p.rate_theory_bits for p in interior],
        [p.distortion for p in interior],
        d=d_nominal,
    )
    return EncoderModel(c2, d_nominal)


def run_sla_surface(
    cfg: ExperimentConfig,
    eps: float = 0.05,
    eps_est: float = 0.01,
    dec: DecoderModel = DecoderModel(0.9, 0.1),
    enc: EncoderModel | None = None,
    r_grid: tuple[float, ...] | None = None,
    t_grid: tuple[float, ...] | None = None,
    out_dir: str | None = None,
) -> SlaSurfaceResult:
    """Tabulate eps(R, T) and verify the r_min / t_min inversions against it.

    enc defaults to the encoder model fitted on the noise fixture, so the
    surface is anchored to measured behavior rather than assumed constants.
    """
    if enc is None:
        enc = fit_encoder_from_fixture(cfg)
    if r_grid is None:
        r_grid = tuple(float(v) for v in np.linspace(0.0, 1500.0, 21))
    if t_grid is None:
        t_grid = tuple(float(v) for v in np.linspace(0.0, 40.0, 21))
    grid = sla_surface(r_grid, t_grid, eps_est, dec, enc)
    header = ["R", "T", "eps"]
    rows = []
    max_err = 0.0
    for i, r in enumerate(r_grid):
        for j, t in enumerate(t_grid):
            e = float(grid[i, j])
            rows.append([format_float(r), format_float(t), format_float(e)])
            r_back = r_min(t, e, eps_est, dec, enc)
            t_back = t_min(r, e, eps_est, dec, enc)
            if r_back is None or t_back is None:
                max_err = math.inf
            else:
                max_err = max(max_err, abs(r_back - r), abs(t_back - t))
    decreasing_r = bool(np.all(np.diff(grid, axis=0) < 0.0))
    decreasing_t = bool(np.all(np.diff(grid, axis=1) < 0.0))
    op_r = r_min(20.0, eps, eps_est, dec, enc)
    ok = max_err <= 1e-6 and decreasing_r and decreasing_t and op_r is not None
    csv_path = None
    if out_dir is not None:
        csv_path = os.path.join(out_dir, "sla_surface.csv")
        _write_csv(csv_path, "copsem.sla_surface.v1", header, rows)
    return SlaSurfaceResult(
        tuple(header),
        tuple(tuple(r) for r in rows),
        enc,
        dec,
        eps_est,
        max_err,
        op_r,
        ok,
        csv_path,
    )
