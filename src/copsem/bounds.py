"""Closed-form design bounds for the copula pipeline.

Every formula here is a calculator over explicit parameters; the harness
checks each one against Monte-Carlo measurement. Infeasible design queries
return None rather than raising.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .image_io import _in_range
from .metrics import LN2, SQRT_LN2

# per-cell rounding error alpha/2 -> L1 error <= B^2 * alpha / 2. The step
# budget (sqrt(ln 2) / 4) * B^2 * alpha converts that L1 radius to sqrt-JS
# through the small-perturbation relation JS ~ ln2 * TV^2, which describes
# spread-out rounding noise well but is not a pointwise theorem (mass moved
# into an empty cell costs linearly in TV, not quadratically). The budget
# is therefore a design target, enforced empirically with a hard gate at 2x.
ENC_BOUND_COEFF = SQRT_LN2 / 4.0
# The encoder constant c2 of `copsem bounds` and the budget planner when none
# is given: ENC_BOUND_COEFF (0.2081386...) rounded to five digits. It is a
# reference point, not a fit; the fit on the sla-surface fixture at d = 252
# gives c2 = 9.4285.
REFERENCE_C2 = 0.20814


def nominal_d(n_deltas: int, bins: int) -> int:
    """The nominal encoder exponent |deltas| * (B^2 - 1): the free cells of
    n_deltas copulas of B x B cells, each summing to 1."""
    _in_range("n_deltas", n_deltas, 1, math.inf, "[)")
    _in_range("bins", bins, 2, math.inf, "[)")
    return n_deltas * (bins * bins - 1)


@dataclass(frozen=True)
class ConcentrationParams:
    """Geometry and targets of the estimation concentration guarantee."""

    bins: int
    n_deltas: int
    t: float
    eta: float

    def __post_init__(self):
        _in_range("bins", self.bins, 2, math.inf, "[)")
        _in_range("n_deltas", self.n_deltas, 1, math.inf, "[)")
        _in_range("t", self.t, 0.0, math.inf, "()")  # t = inf prescribes n_eff = 0 pairs
        _in_range("eta", self.eta, 0.0, 1.0, "()")


def _union_log(params: ConcentrationParams) -> float:
    """ln(2^(B^2) * |deltas| / eta): the log term of the union bound over
    every cell subset of every displacement."""
    b2 = params.bins * params.bins
    return b2 * LN2 + math.log(params.n_deltas) + math.log(1.0 / params.eta)


def sample_complexity(params: ConcentrationParams) -> int:
    """Disjoint pairs sufficient for mean L1 copula error <= t except with
    probability eta: ceil((2 / t^2) * ln(2^(B^2) * |deltas| / eta)).

    Raises ValueError when that count is beyond a float: t^2 underflows,
    or 1 / eta overflows."""
    t2 = params.t * params.t
    n = (2.0 / t2) * _union_log(params) if t2 > 0.0 else math.inf
    if not math.isfinite(n):
        raise ValueError(f"the pair count for t={params.t!r}, eta={params.eta!r} exceeds a float")
    return int(math.ceil(n))


def est_distortion_from_samples(n_eff: int, params: ConcentrationParams) -> float:
    """Invert sample_complexity: the sqrt-JS estimation budget eps_est that
    n_eff disjoint pairs buy. The L1 radius t is converted to sqrt-JS by
    the small-perturbation rate (sqrt(ln 2) / 2) * t, a budget convention
    (the conversion is not a pointwise bound for arbitrary pairs)."""
    _in_range("n_eff", n_eff, 1, math.inf, "[)")
    t = math.sqrt(2.0 * _union_log(params) / n_eff)
    return (SQRT_LN2 / 2.0) * t


def rate_achievability(n_deltas: int, bins: int, alpha: float) -> float:
    """Bits sufficient at step alpha: nominal_d * log2(1 / alpha)."""
    d = nominal_d(n_deltas, bins)
    _in_range("alpha", alpha, 0.0, 1.0, "(]")
    # -log2(alpha), as 1 / alpha overflows for a subnormal alpha; 0.0 - keeps
    # alpha = 1 at +0.0 bits
    return d * (0.0 - math.log2(alpha))


def enc_distortion_bound(bins: int, alpha: float) -> float:
    """Encoder distortion budget at step alpha: (sqrt(ln 2) / 4) * B^2 * alpha.

    A design target, not a worst case (see ENC_BOUND_COEFF)."""
    _in_range("bins", bins, 2, math.inf, "[)")
    _in_range("alpha", alpha, 0.0, 1.0, "(]")
    return ENC_BOUND_COEFF * bins * bins * alpha


def rate_converse(n_deltas: int, bins: int, eps_enc: float, c: float = 1.0) -> float:
    """Bits necessary for encoder distortion eps_enc:
    c * nominal_d * log2(1 / eps_enc), additive slack taken as 0."""
    d = nominal_d(n_deltas, bins)
    _in_range("eps_enc", eps_enc, 0.0, 1.0, "()")
    _in_range("c", c, 0.0, math.inf, "()")
    return c * d * -math.log2(eps_enc)  # 1 / eps_enc overflows for a subnormal eps_enc


@dataclass(frozen=True)
class SlaBudget:
    """Additive stage budgets and their confidence slacks."""

    eps_est: float
    eps_enc: float
    eps_dec: float
    eta_est: float = 0.0
    eta_dec: float = 0.0

    def __post_init__(self):
        for name in ("eps_est", "eps_enc", "eps_dec", "eta_est", "eta_dec"):
            _in_range(name, getattr(self, name), 0.0, math.inf)
        _in_range("eta_est + eta_dec", self.eta_est + self.eta_dec, 0.0, 1.0, "[)")


class SlaResult(NamedTuple):
    eps_total: float
    delta_sla: float


def sla_compose(budget: SlaBudget) -> SlaResult:
    """Chain the three stages: distortions add (triangle inequality twice),
    failure probabilities add (union bound)."""
    return SlaResult(
        budget.eps_est + budget.eps_enc + budget.eps_dec,
        budget.eta_est + budget.eta_dec,
    )


@dataclass(frozen=True)
class DecoderModel:
    """Geometric decode-compute model: error after T steps is rho^T * delta0."""

    rho: float
    delta0: float

    def __post_init__(self):
        _in_range("rho", self.rho, 0.0, 1.0, "()")
        _in_range("delta0", self.delta0, 0.0, math.inf, "()")

    def error(self, t: float) -> float:
        _in_range("compute budget", t, 0.0, math.inf)  # T = inf: no decode error left
        return (self.rho**t) * self.delta0


@dataclass(frozen=True)
class EncoderModel:
    """Exponential rate model: error at R bits is c2 * 2^(-R / d),
    with d = nominal_d for the nominal geometry."""

    c2: float
    d: int

    def __post_init__(self):
        _in_range("c2", self.c2, 0.0, math.inf, "()")
        _in_range("d", self.d, 1, math.inf, "[)")

    def error(self, rate: float) -> float:
        _in_range("rate", rate, 0.0, math.inf)  # R = inf: no encode error left
        return self.c2 * 2.0 ** (-rate / self.d)


def _headroom(eps: float, eps_est: float, stage_error: float) -> float:
    """What eps leaves to the free stage; the target is infeasible unless it is > 0."""
    _in_range("eps_est", eps_est, 0.0, math.inf)
    _in_range("eps", eps, eps_est, math.inf, "()")
    return eps - eps_est - stage_error


def r_min(
    t_budget: float,
    eps: float,
    eps_est: float,
    dec: DecoderModel,
    enc: EncoderModel,
) -> float | None:
    """Fewest bits meeting the end-to-end target eps at compute budget T.

    None when the target is infeasible at any rate (the estimation and
    decode stages already exhaust the budget)."""
    h = _headroom(eps, eps_est, dec.error(t_budget))
    return max(0.0, enc.d * math.log2(enc.c2 / h)) if h > 0.0 else None


def t_min(
    rate: float,
    eps: float,
    eps_est: float,
    dec: DecoderModel,
    enc: EncoderModel,
) -> float | None:
    """Least compute budget meeting eps at the given rate; None if infeasible."""
    h = _headroom(eps, eps_est, enc.error(rate))
    return max(0.0, math.log(dec.delta0 / h) / math.log(1.0 / dec.rho)) if h > 0.0 else None


def sla_surface(
    r_grid: Sequence[float],
    t_grid: Sequence[float],
    eps_est: float,
    dec: DecoderModel,
    enc: EncoderModel,
) -> np.ndarray:
    """Achievable end-to-end distortion eps(R, T) = eps_est + enc.error(R)
    + dec.error(T), shaped (len(r_grid), len(t_grid))."""
    if len(r_grid) == 0 or len(t_grid) == 0:
        raise ValueError("empty grid")
    _in_range("eps_est", eps_est, 0.0, math.inf)
    rs = np.asarray(r_grid, dtype=np.float64)
    ts = np.asarray(t_grid, dtype=np.float64)
    _in_range("rate grid", float(rs.min()), 0.0, math.inf)  # min is NaN if any entry is
    _in_range("compute grid", float(ts.min()), 0.0, math.inf)
    # The model formulas again, on arrays: where numpy dispatches float64
    # power to its AVX-512 (X86_V4) kernel, array ** differs from Python's
    # float ** in the last bit on about 5 % of inputs, 0.9 ** 40 among them,
    # so one shared formula would move sla_pipeline.csv (its T = 40 decoder
    # target) or sla_surface.csv. Without that kernel the two agree.
    enc_err = enc.c2 * 2.0 ** (-rs / enc.d)
    dec_err = (dec.rho**ts) * dec.delta0
    return eps_est + enc_err[:, None] + dec_err[None, :]


def fit_encoder_model(
    rates: Sequence[float],
    distortions: Sequence[float],
    d: int | None = None,
) -> tuple[float, float, float]:
    """Least-squares fit of log2(distortion) = log2(c2) - rate / d_eff.

    Zero-distortion points are excluded. With d given, only the intercept is
    fitted at the fixed slope. Returns (c2, d_eff, r_squared)."""
    r = np.asarray(rates, dtype=np.float64)
    dist = np.asarray(distortions, dtype=np.float64)
    keep = dist > 0.0
    r, dist = r[keep], dist[keep]
    if r.size < 2:
        raise ValueError("need at least two positive-distortion points")
    y = np.log2(dist)
    if d is None:
        if r.min() == r.max():  # the slope through one rate is undefined
            raise ValueError("need at least two distinct rates")
        with warnings.catch_warnings():  # numpy's own "always" filter outranks -W error
            warnings.simplefilter("error", np.exceptions.RankWarning)
            try:
                slope, intercept = np.polyfit(r, y, 1)
            except np.exceptions.RankWarning as exc:
                raise ValueError(f"rates too close together for a slope fit ({exc})") from None
        if slope >= 0.0:
            raise ValueError("distortion does not decay with rate; no valid fit")
        d_eff = -1.0 / slope
    else:
        _in_range("d", d, 1, math.inf, "[)")
        slope = -1.0 / d
        intercept = float(np.mean(y - slope * r))
        d_eff = float(d)
    pred = intercept + slope * r
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(2.0**intercept), float(d_eff), r2
