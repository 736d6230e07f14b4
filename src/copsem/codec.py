"""Uniform scalar quantization of copula families and fixed-length packing.

A copula cell in [0, 1] quantized at step alpha has levels = floor(1/alpha) + 1
reconstruction points (index * alpha for index 0..levels-1) so a point-mass
cell remains representable, and packs into L = ceil(log2(levels)) bits.
Decoding renormalizes each copula so the metric's input contract holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import enc_distortion_bound, rate_achievability
from .image_io import _in_range, _row_blocks, _same_values, _sweep
from .metrics import _d_pc_batch, _layout, _layout_sum
from .rank_copula import CopulaFamily, Displacement, _check_masses, _displacements


def levels_for_alpha(alpha: float) -> int:
    """Below 2**-62 the indices, the level count or the bit shifts of a cell
    no longer fit int64."""
    _in_range("alpha", alpha, 2.0**-62, 1.0)
    return int(math.floor(1.0 / alpha)) + 1


def bits_per_cell(alpha: float) -> int:
    return max(1, (levels_for_alpha(alpha) - 1).bit_length())


@dataclass(frozen=True, eq=False)
class QuantizedFamily:
    """Read-only int64 (D, B, B) index grids at a common quantization step."""

    alpha: float
    bins: int
    deltas: tuple[Displacement, ...]
    indices: np.ndarray

    def __post_init__(self):
        lv = levels_for_alpha(self.alpha)
        bins = _in_range("bins", self.bins, 1, math.inf, "[)", integer=True)
        deltas = _displacements(self.deltas)
        arr = np.array(self.indices, dtype=np.int64)
        if arr.shape != (len(deltas), bins, bins):
            raise ValueError(f"index array shape {arr.shape} != ({len(deltas)}, {bins}, {bins})")
        if arr.min() < 0 or arr.max() >= lv:
            raise ValueError(f"index outside [0, {lv - 1}]")
        arr.flags.writeable = False
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "indices", arr)

    @property
    def levels(self) -> int:
        return levels_for_alpha(self.alpha)

    @property
    def bits(self) -> int:
        return bits_per_cell(self.alpha)

    __eq__ = _same_values


def _quantize_cells(cells: np.ndarray, alpha, top) -> np.ndarray:
    """The one quantizer rule: round(cell / alpha), half away from zero, clamped to [0, top]."""
    return np.clip(np.floor(cells / alpha + 0.5).astype(np.int64), 0, top)


def quantize(family: CopulaFamily, alpha: float) -> QuantizedFamily:
    """index = round(cell / alpha), half away from zero, clamped to the level range."""
    grids = _quantize_cells(family.cells, alpha, levels_for_alpha(alpha) - 1)
    return QuantizedFamily(alpha, family.bins, family.deltas, grids)


def _dequantize_rows(indices: np.ndarray, alpha: float, bins: int) -> np.ndarray:
    """Cells of (..., B*B) index rows: index * alpha, renormalized per row;
    an all-zero row decodes to the uniform copula."""
    cells = indices.astype(np.float64) * alpha
    totals = cells.sum(axis=-1, keepdims=True)
    empty = totals == 0.0
    return np.where(empty, 1.0 / (bins * bins), cells / np.where(empty, 1.0, totals))


def dequantize(q: QuantizedFamily) -> CopulaFamily:
    """Reconstruct index * alpha, then renormalize each copula.

    An all-zero grid decodes to the uniform copula. The result carries
    stride = 0: it is not a direct estimate.
    """
    n = len(q.deltas)
    cells = _dequantize_rows(q.indices.reshape(n, -1), q.alpha, q.bins)
    return CopulaFamily(q.deltas, cells.reshape(q.indices.shape), (0,) * n, stride=0)


def pack(q: QuantizedFamily) -> bytes:
    """Fixed-length bitstream: L bits per index, big-endian within the index,
    indices row-major per displacement in family order, stream zero-padded
    to a byte boundary at the end."""
    L = q.bits
    flat = q.indices.ravel()
    shifts = np.arange(L - 1, -1, -1, dtype=np.int64)
    bits = ((flat[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()


def _decode_bits(bits: np.ndarray, alpha: float, n_cells: int) -> np.ndarray:
    """The (c, n_cells) int64 indices of c rows of stream bits: L bits an
    index, most significant first, clamped to levels - 1; bits past
    n_cells * L are pad."""
    L = bits_per_cell(alpha)
    planes = bits[:, : n_cells * L].reshape(len(bits), n_cells, L)
    values = np.zeros((len(bits), n_cells), dtype=np.int64)
    for plane in range(L):  # one bit plane at a time, most significant first
        values <<= 1
        values |= planes[:, :, plane]
    return np.minimum(values, levels_for_alpha(alpha) - 1)


def unpack(
    data: bytes,
    alpha: float,
    bins: int,
    deltas: Sequence[Displacement],
) -> QuantizedFamily:
    """Inverse of pack for the given geometry.

    The byte length must match the geometry exactly. Indices that decode
    above levels - 1 (possible only on corrupted streams when levels is
    not a power of two) clamp to levels - 1; trailing pad bits are ignored.
    """
    bins = _in_range("bins", bins, 1, math.inf, "[)", integer=True)
    deltas = _displacements(deltas)  # before any length check
    n_cells = len(deltas) * bins * bins
    expected = (n_cells * bits_per_cell(alpha) + 7) // 8
    if len(data) != expected:
        raise ValueError(f"stream holds {len(data)} bytes, geometry needs {expected}")
    values = _decode_bits(np.unpackbits(np.frombuffer(data, np.uint8))[None], alpha, n_cells)
    return QuantizedFamily(alpha, bins, deltas, values.reshape(len(deltas), bins, bins))


def _entropies(rows: np.ndarray) -> np.ndarray:
    """entropy_bits of each row of a 2-D array: a row-wise sort puts each
    value's count at the start of its run, and a row's terms are summed in
    value order, as a 1-D np.sum of np.unique's counts would."""
    start = np.ones(rows.shape, dtype=bool)
    ranked = np.sort(rows, axis=1)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=start[:, 1:])
    at = np.flatnonzero(start)
    p = np.diff(at, append=rows.size) / rows.shape[1]
    terms = np.zeros(rows.size)
    terms[at] = p * np.log2(p)
    layout = _layout(start)
    return -_layout_sum(terms[layout[1]], layout)


def entropy_bits(values: np.ndarray) -> float:
    """Shannon entropy in bits of the empirical histogram of non-NaN values.
    The one-row case of _entropies."""
    return float(_entropies(np.asarray(values).reshape(1, -1))[0])


@dataclass(frozen=True)
class RdPoint:
    """One operating point of the rate-distortion sweep."""

    alpha: float
    rate_theory_bits: float
    rate_empirical_bits: float
    distortion: float
    bound: float


def rd_point(family: CopulaFamily, alpha: float) -> RdPoint:
    """The one-alpha case of rd_sweep."""
    return rd_sweep(family, [alpha])[0]


def _alpha_sweep(alphas: Sequence[float]) -> tuple[tuple[float, ...], list[int]]:
    """rd_sweep's steps, a _sweep of quantizer steps descending (rate
    ascending), and the level count of each."""
    alphas = _sweep("alpha", alphas)[::-1]
    return alphas, [levels_for_alpha(a) for a in alphas]


def rd_sweep(family: CopulaFamily, alphas: Sequence[float]) -> list[RdPoint]:
    """One point per alpha, sorted by alpha descending (rate ascending). The
    sweep is quantized as (alphas, D, B * B) index arrays of about _BLOCK
    cells (_row_blocks), as quantize does each alpha, then each is decoded,
    checked and scored at once."""
    alphas, levels = _alpha_sweep(alphas)
    n, bins = len(family.deltas), family.bins
    cells = family.cells.reshape(n, bins * bins)
    points = []
    for s in _row_blocks(len(alphas), n * bins * bins):
        step, top = np.array(alphas[s])[:, None, None], np.array(levels[s])[:, None, None] - 1
        indices = _quantize_cells(cells, step, top)
        decoded = _dequantize_rows(indices, step, bins)
        _check_masses(decoded.reshape(-1, bins * bins), "cell masses")
        dists = _d_pc_batch(cells, decoded).tolist()
        rates = (bins * bins * _entropies(indices.reshape(-1, bins * bins))).reshape(-1, n)
        points += [
            RdPoint(a, rate_achievability(n, bins, a), sum(r), d, enc_distortion_bound(bins, a))
            for a, r, d in zip(alphas[s], rates.tolist(), dists)
        ]
    return points
