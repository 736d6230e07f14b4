"""Structural distortion metric and pixel-domain baselines.

The structural metric between two images is the mean, over displacements,
of the square root of the Jensen-Shannon divergence (natural log) between
their empirical copulas. sqrt(JS) is a true metric, bounded by sqrt(ln 2),
so the mean over a fixed displacement set is one too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_io import U8, DomainError, GrayImage, _row_blocks
from .rank_copula import CopulaFamily, Displacement, _check_masses

LN2 = math.log(2.0)
SQRT_LN2 = math.sqrt(LN2)

SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2
SSIM_WINDOW = 8


class IncomparableFamiliesError(ValueError):
    """Families differ in displacement set or bin count."""


def _dist_pair(p, q) -> list[np.ndarray]:
    """p and q as flat float64 distributions of one length, else ValueError."""
    pair = [np.asarray(x, dtype=np.float64).ravel() for x in (p, q)]
    for name, arr in zip("pq", pair):
        _check_masses(arr.reshape(1, -1), name)
    if pair[0].size != pair[1].size:
        raise ValueError(f"length mismatch: {pair[0].size} vs {pair[1].size}")
    return pair


def _layout(keep: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]:
    """The summation layout of an (R, m) keep mask: the rows ordered by their
    count k of kept terms (a stable sort), the flat index of each kept term,
    row by row in that order, and each k that occurs with its number of rows."""
    k = keep.sum(axis=1)
    rows = np.argsort(k, kind="stable")
    index = (rows[:, None] * keep.shape[1] + np.arange(keep.shape[1]))[keep[rows]]
    counts = np.bincount(k)
    sizes = np.flatnonzero(counts)
    return rows, index, list(zip(sizes.tolist(), counts[sizes].tolist()))


def _layout_sum(terms: np.ndarray, layout) -> np.ndarray:
    """np.sum(a[r][keep[r]]) for every row r to the last bit, from the terms of
    a gathered by the layout's index. A sum along an axis of zero-filled rows
    takes another order, so other last bits. numpy sums each row of a
    contiguous (rows, k) block as it sums the row alone, so the kept terms of
    each k are summed as one block; dropped terms are not read."""
    rows, _, groups = layout
    out = np.empty(len(rows))
    i = j = 0  # first row and first term of the next block
    for size, count in groups:
        out[rows[i : i + count]] = terms[j : j + count * size].reshape(count, size).sum(axis=1)
        i, j = i + count, j + count * size
    return out


def _support_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """np.sum(terms[r][keep[r]]) for every row r of an (R, m) keep mask and
    terms of its size, to the last bit: the one support-sum rule."""
    layout = _layout(keep)
    return _layout_sum(terms.reshape(-1)[layout[1]], layout)


def _js_scorer(ref: np.ndarray, shape: tuple[int, ...]):
    """score(cand) is the JS divergence of each row of a (D, n) reference
    against the matching row of each of C candidates (C, D, n) = shape, as a
    (C, D) array; a reference of more axes is broadcast to shape, giving each
    candidate its own, and a shape of more leading axes keeps them. Each
    side's x * log(x / m) terms are summed over its own support, as in 1-D,
    and clamped to [0, ln 2] (where JS lies mathematically) against last-ulp
    float residue. The reference's layout and the buffers are built once: a
    candidate stack of full support is summed as plain rows, any other
    through its own layout."""
    n, m = shape[-1], np.empty(shape)
    m[...] = ref  # each candidate's reference; from the first score on, the step buffer
    layout = _layout(m.reshape(-1, n) > 0.0)
    kept = m.reshape(-1)[layout[1]]
    m_kept = np.empty_like(kept)

    def score(cand: np.ndarray) -> np.ndarray:
        np.multiply(0.5, np.add(ref, cand, out=m), out=m)
        np.take(m, layout[1], out=m_kept, mode="clip")  # "raise" would buffer
        with np.errstate(divide="ignore", invalid="ignore"):
            for x, t in ((kept, m_kept), (cand, m)):  # t holds m, then x * log(x / m)
                np.multiply(x, np.log(np.divide(x, t, out=t), out=t), out=t)
        terms = m.reshape(-1, n)
        js = 0.5 * _layout_sum(m_kept, layout)
        if cand.min(initial=1.0) > 0.0:
            js += 0.5 * terms.sum(axis=1)
        else:
            js += 0.5 * _support_sums(terms, cand.reshape(-1, n) > 0.0)
        np.maximum(js, 0.0, out=js)
        return np.minimum(js, LN2, out=js).reshape(shape[:-1])

    return score


def _mean_sqrt(js: np.ndarray) -> np.ndarray:
    """d_pc from (C, D) JS terms: the mean of sqrt(JS) over displacements,
    summed in sequence as Python's sum does."""
    return np.sqrt(js).cumsum(axis=-1)[..., -1] / js.shape[-1]


def _d_pc_batch(ref: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """d_pc of a (D, n) reference against each of C candidates (C, D, n), as a
    (C,) array equal to the one-candidate d_pc bit for bit; a (C, D, n)
    reference pairs candidate c with reference c, and leading axes broadcast
    as in _js_scorer. The caller vouches that every row is a distribution."""
    return _mean_sqrt(_js_scorer(ref, cand.shape)(cand))


def js_divergence(p, q) -> float:
    """Jensen-Shannon divergence in nats, with the 0 * log 0 = 0 convention.

    JS(P, Q) = KL(P || M) / 2 + KL(Q || M) / 2 with M = (P + Q) / 2.
    Symmetric, and bounded by ln 2 (attained on disjoint supports). The
    total-variation comparison JS <= ln(2) * TV(P, Q) holds for every pair
    and is tight exactly on disjoint supports.
    """
    p, q = _dist_pair(p, q)
    return float(_js_scorer(p[None], (1, 1, p.size))(q[None, None])[0, 0])


def l1_distance(p, q) -> float:
    p, q = _dist_pair(p, q)
    return float(np.abs(p - q).sum())


def tv_distance(p, q) -> float:
    """Total variation = half the L1 distance."""
    return 0.5 * l1_distance(p, q)


@dataclass(frozen=True)
class DistortionReport:
    """Per-displacement JS terms and their aggregate.

    per_delta holds (displacement, js, sqrt_js); d_pc is the mean of the
    sqrt_js column.
    """

    per_delta: tuple[tuple[Displacement, float, float], ...]
    d_pc: float

    def __post_init__(self):
        if not self.per_delta:
            raise ValueError("empty report")
        mean = sum(r[2] for r in self.per_delta) / len(self.per_delta)
        if abs(mean - self.d_pc) > 1e-12:
            raise ValueError("d_pc must equal the mean of the sqrt_js column")
        if self.d_pc < 0.0 or self.d_pc > SQRT_LN2 + 1e-12:
            raise ValueError(f"d_pc {self.d_pc!r} outside [0, sqrt(ln 2)]")


def d_pc(a: CopulaFamily, b: CopulaFamily) -> DistortionReport:
    """Mean over displacements of sqrt(JS) between paired copulas. No mass
    check runs here: every CopulaFamily was validated when it was built."""
    if a.deltas != b.deltas or a.bins != b.bins:
        raise IncomparableFamiliesError(
            f"families not comparable: deltas {a.deltas} vs {b.deltas}, "
            f"bins {a.bins} vs {b.bins}"
        )
    cand = b.cells.reshape(1, len(b.deltas), -1)
    js = _js_scorer(a.cells.reshape(cand.shape[1:]), cand.shape)(cand)
    rows = tuple((delta, v, math.sqrt(v)) for delta, v in zip(a.deltas, js[0].tolist()))
    return DistortionReport(rows, float(_mean_sqrt(js)[0]))


def _check_u8_pair(a: GrayImage, b: GrayImage):
    if a.domain != U8 or b.domain != U8:
        raise DomainError("pixel-domain baselines require u8 images")
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(
            f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def psnr(a: GrayImage, b: GrayImage) -> float:
    """10 * log10(255^2 / MSE) in dB; math.inf when the images are identical.

    The infinity is an in-memory sentinel only. Serialized output writes
    the string "inf" instead of a floating-point infinity.
    """
    _check_u8_pair(a, b)
    # exact, as the float mean's sum is, so the same quotient; |a - b| is uint8, its square uint16
    sse = 0
    for s in _row_blocks(*a.pixels.shape):
        pa, pb = a.pixels[s], b.pixels[s]
        diff = (np.maximum(pa, pb) - np.minimum(pa, pb)).astype(np.uint16)
        sse += int((diff * diff).sum(dtype=np.int64))
    mse = sse / a.pixels.size
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def ssim(a: GrayImage, b: GrayImage) -> float:
    """Mean SSIM over non-overlapping 8x8 windows, no Gaussian weighting.

    Window statistics use population moments. Images smaller than the
    window in either direction are treated as a single window; otherwise
    border strips narrower than a window are dropped. The one-candidate
    case of _ssim_batch.
    """
    return float(_ssim_batch(a, [b])[0])


def _ssim_batch(a: GrayImage, bs) -> np.ndarray:
    """ssim(a, b) of each of C candidates bs, as a (C,) array: the
    reference's window sums are taken once per strip, the candidates' as
    one stack."""
    for b in bs:
        _check_u8_pair(a, b)
    k, n = SSIM_WINDOW, SSIM_WINDOW**2
    h, w = a.pixels.shape
    if h < k or w < k:  # one window, not of n pixels: the float moments
        x = a.pixels.astype(np.float64).ravel()
        y = np.array([b.pixels for b in bs], np.float64).reshape(len(bs), x.size)
        mx, my = x.mean(), y.mean(axis=1, keepdims=True)
        vxy = x.var() + y.var(axis=1, keepdims=True)
        cov = ((x - mx) * (y - my)).mean(axis=1, keepdims=True)
    else:  # integer window sums, n * sum(x^2 + y^2) < 2^31; the moments and vx + vy
        # are the same exact multiples of 2^-12 as the float ones, in row-major window
        # order; strips of whole window rows, 255^2 < 2^16 so the products fit uint16
        bh, bw = h // k, w // k

        def box(*zs):  # rows first, in int32 (added over zs), then columns: about 5x as fast as sum(axis=(1, 3))
            windows = (z.reshape(*z.shape[:-2], z.shape[-2] // k, k, bw * k) for z in zs)
            rows = sum(z.sum(-2, dtype=np.int32) for z in windows)
            sums = np.add.reduceat(rows, np.arange(0, bw * k, k), axis=-1, dtype=np.int64)
            return sums.reshape(*rows.shape[:-2], rows.shape[-2] * bw)

        strips = []
        for s in _row_blocks(bh, k * w):
            window_rows, cols = slice(s.start * k, min(s.stop, bh) * k), slice(0, bw * k)
            x = a.pixels[window_rows, cols].astype(np.uint16)
            y = np.array([b.pixels[window_rows, cols] for b in bs], np.uint16).reshape(-1, *x.shape)
            strips.append([box(x), box(y), box(x * x, y * y), box(x * y)])
        sx, sy, sq, sxy = (np.concatenate(v, axis=-1) for v in zip(*strips))
        mx, my = sx / n, sy / n
        vxy = (n * sq - sx * sx - sy * sy) / n**2
        cov = (n * sxy - sx * sy) / n**2
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vxy + SSIM_C2)
    return np.mean(num / den, axis=-1)
