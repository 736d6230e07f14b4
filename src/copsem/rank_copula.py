"""Rank transform and pairwise empirical copula estimation.

The representation of an image is the family of B x B empirical copulas
of the pairs (u(p), u(p + delta)) over a set of pixel displacements,
where u is the normalized midrank of the pixel value. Ranks depend only
on the order of pixel values, so any strictly increasing pixel-wise map
leaves the family bit-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .image_io import _BLOCK, U8, GrayImage, _in_range, _row_blocks, _same_values

SERIAL_VERSION = 1


class Displacement(NamedTuple):
    """Pixel offset (dx = columns right, dy = rows down)."""

    dx: int
    dy: int


DEFAULT_DELTAS: tuple[Displacement, ...] = (
    Displacement(1, 0),
    Displacement(0, 1),
    Displacement(1, 1),
    Displacement(1, -1),
)
DEFAULT_BINS = 8


class EmptySampleError(ValueError):
    """No valid anchor pairs for the requested displacement and stride."""


def _displacements(deltas: Sequence[Displacement]) -> tuple[Displacement, ...]:
    """The one displacement-set rule: a tuple of at least one Displacement,
    none repeated, else ValueError. _extract_families rejects (0, 0)."""
    deltas = tuple(Displacement(*d) for d in deltas)
    if not deltas:
        raise ValueError("a family needs at least one displacement")
    if len(set(deltas)) != len(deltas):
        raise ValueError("displacements must be distinct")
    return deltas


def _check_masses(rows: np.ndarray, name: str) -> None:
    """Raise ValueError unless each row of the 2-D float array is a
    distribution: finite, nonnegative, summing to 1 within 1e-12."""
    if rows.size == 0:
        raise ValueError(f"{name}: empty distribution")
    if not np.isfinite(rows).all():
        raise ValueError(f"{name}: non-finite mass")
    if rows.min() < 0.0:
        raise ValueError(f"{name}: negative mass")
    totals = rows.sum(axis=1)
    worst = float(totals[np.argmax(np.abs(totals - 1.0))])
    if abs(worst - 1.0) > 1e-12:
        raise ValueError(f"{name}: masses sum to {worst!r}, expected 1 within 1e-12")


@dataclass(frozen=True, eq=False)
class RankField:
    """Normalized midranks u = midrank / (N + 1), all strictly inside (0, 1)."""

    width: int
    height: int
    u: np.ndarray

    def __post_init__(self):
        arr = np.array(self.u, dtype=np.float64).reshape(self.height, self.width)
        if arr.size == 0:
            raise ValueError("empty rank field")
        if arr.min() <= 0.0 or arr.max() >= 1.0:
            raise ValueError("rank field values must lie strictly inside (0, 1)")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)


@dataclass(frozen=True, eq=False)
class EmpiricalCopula:
    """One displacement's B x B cell masses as _extract_families counts them:
    one record per displacement per image, the count perfbench reports. It
    holds a read-only view of its slice of the call's stack and checks
    nothing: the stack's caller checks the masses."""

    cells: np.ndarray

    def __post_init__(self):
        self.cells.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CopulaFamily:
    """One B x B empirical copula per displacement, stored as one array.

    cells is a read-only float64 (D, B, B) array, the same layout as the
    JSON "cells"; cells[k] is the copula of deltas[k], estimated from
    n_pairs[k] anchor pairs. stride records the anchor sub-sampling used at
    estimation time. n_pairs all 0 and stride = 0 mark a family that is not
    a direct estimate (e.g. a decoded or mixed one).
    """

    deltas: tuple[Displacement, ...]
    cells: np.ndarray
    n_pairs: tuple[int, ...]
    stride: int = 1

    def __post_init__(self):
        deltas = _displacements(self.deltas)
        arr = np.array(self.cells, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[0] != len(deltas) or arr.shape[1] != arr.shape[2]:
            raise ValueError(f"cells shape {arr.shape} is not ({len(deltas)}, B, B)")
        _check_masses(arr.reshape(len(deltas), -1), "cell masses")
        n_pairs = tuple(
            _in_range("n_pairs", n, 0, math.inf, "[)", integer=True) for n in self.n_pairs
        )
        if len(n_pairs) != len(deltas):
            raise ValueError(f"n_pairs {n_pairs} must hold one count per displacement")
        stride = _in_range("stride", self.stride, 0, math.inf, "[)", integer=True)
        arr.flags.writeable = False
        object.__setattr__(self, "stride", stride)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "cells", arr)
        object.__setattr__(self, "n_pairs", n_pairs)

    @property
    def bins(self) -> int:
        return self.cells.shape[1]

    __eq__ = _same_values

    def to_json(self) -> str:
        """Serialize each real as its shortest exact round-trip repr."""
        doc = {
            "version": SERIAL_VERSION,
            "bins": self.bins,
            "stride": self.stride,
            "deltas": [[d.dx, d.dy] for d in self.deltas],
            "n_pairs": list(self.n_pairs),
            "cells": self.cells.reshape(len(self.deltas), -1).tolist(),
        }
        return json.dumps(doc, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CopulaFamily":
        """Parse to_json output. Malformed JSON, a missing or mistyped field
        (bins, stride, n_pairs and delta components must be JSON integers,
        each delta a [dx, dy] pair) and the NaN and Infinity tokens all raise
        ValueError."""
        try:
            doc = json.loads(text, parse_constant=_reject_json_constant)
        except RecursionError:
            raise ValueError("family JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError("family JSON must be an object")
        if doc.get("version") != SERIAL_VERSION:
            raise ValueError(f"unsupported serialization version {doc.get('version')!r}")
        try:
            bins = _json_int(doc["bins"])
            if not all(isinstance(d, list) and len(d) == 2 for d in doc["deltas"]):
                raise ValueError("family JSON deltas must be [dx, dy] pairs")
            deltas = tuple(Displacement(*map(_json_int, d)) for d in doc["deltas"])
            cells = np.asarray(doc["cells"], dtype=np.float64).reshape(-1, bins, bins)
            n_pairs = tuple(map(_json_int, doc["n_pairs"]))
            return cls(deltas, cells, n_pairs, _json_int(doc["stride"]))
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed family JSON: {exc!r}") from None


def _json_int(v) -> int:
    """A JSON integer as is; a float, a bool or a string raises ValueError."""
    if type(v) is not int:
        raise ValueError(f"family JSON: expected an integer, got {v!r}")
    return v


def _reject_json_constant(token: str):
    raise ValueError(f"non-finite number {token} in family JSON")


def _midranks(img: GrayImage) -> tuple[np.ndarray, np.ndarray]:
    """(inverse, u): u holds midrank / (N + 1) of each distinct pixel value,
    midrank = mean rank over ties (1..N), and u[inverse] is the per-pixel
    rank, (height, width). u8 images count their values instead of sorting."""
    px = img.pixels
    if img.domain == U8:
        inverse = px
        counts = sum(np.bincount(px[s].ravel(), minlength=256) for s in _row_blocks(*px.shape))
    else:
        _, inverse, counts = np.unique(px.ravel(), return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    return inverse.reshape(px.shape), 0.5 * (cum + (cum - counts) + 1) / (px.size + 1)


def rank_transform(img: GrayImage) -> RankField:
    """Map pixels to u = midrank / (N + 1), midrank = mean rank over ties (1..N)."""
    inverse, u = _midranks(img)
    return RankField(img.width, img.height, u[inverse])


def _bin_of(u: np.ndarray, bins: int) -> np.ndarray:
    """Bin min(floor(u * B), B - 1) of each u, in the smallest unsigned dtype
    that also holds the sentinel code B (uint8 up to B = 255)."""
    return np.minimum((u * bins).astype(np.min_scalar_type(bins)), bins - 1)


def _anchor_range(extent: int, offset: int, stride: int) -> range:
    """Multiples of stride in [0, extent) whose partner at offset is inside too."""
    lo = max(0, -offset)
    return range(-(-lo // stride) * stride, extent - max(0, offset), stride)


def _extract_families(
    images: Sequence[GrayImage], deltas: Sequence[Displacement], bins: int, stride: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (N, D, B, B) cells of N images of one shape, one copula per
    displacement, and the n_pairs they share; each distinct pixel value is
    binned once. The caller checks the masses (_check_masses, CopulaFamily).

    The anchors are counted in blocks of whole images that hold about _BLOCK
    anchors and histogram cells (_row_blocks), or one image, whose anchor
    rows are then blocked too. Each block of anchor rows, with the halo rows
    its displacements reach, is binned into one slab of the call's one
    buffer, inside a border of the sentinel code bins ("partner outside the
    image") as wide as some displacement reaches, and every group of
    displacements counts it while it is in cache. Each anchor gets one joint
    code by Horner's rule: its index in its block of images, its own bin,
    then each partner's code in base bins + 1, for a group of g
    displacements, g the largest with bins * (bins + 1)^g <=
    max(bins * (bins + 1), min(_BLOCK, anchors // 8)) over one image's
    anchors. One np.bincount per slab counts a group, and each
    displacement's counts are the group's histogram summed over the other
    partners, without the sentinel, divided into the block's images of the
    one output stack before the next block is counted."""
    deltas = _displacements(deltas)  # before any pixel is binned
    bins = _in_range("bins", bins, 2, math.inf, "[)", integer=True)
    if len({img.pixels.shape for img in images}) != 1:
        raise ValueError("a stack of images needs one shape")
    stride = _in_range("stride", stride, 1, math.inf, "[)", integer=True)
    height, width = images[0].pixels.shape
    n_pairs = []
    for d in deltas:
        if d == (0, 0):
            raise ValueError("displacement (0, 0) is degenerate")
        xs, ys = _anchor_range(width, d.dx, stride), _anchor_range(height, d.dy, stride)
        n_pairs.append(len(xs) * len(ys))
        if n_pairs[-1] == 0:
            raise EmptySampleError(
                f"no valid anchors for delta={tuple(d)} stride={stride} "
                f"on a {width}x{height} field"
            )
    dxs, dys = zip((0, 0), *deltas)
    left, top, right, bottom = -min(dxs), -min(dys), max(dxs), max(dys)
    rows, cols = len(range(0, height, stride)), len(range(0, width, stride))
    cap = max(bins * (bins + 1), min(_BLOCK, rows * cols // 8))
    g = max(k for k in range(1, cap.bit_length()) if bins * (bins + 1) ** k <= cap)
    groups = [deltas[k : k + g] for k in range(0, len(deltas), g)]
    blocks = list(_row_blocks(len(images), max(rows * cols, bins * (bins + 1) ** g)))
    spans = [range(rows)[s] for s in _row_blocks(rows, cols)]
    reach = top + bottom + 1 - stride  # slab rows beyond stride per anchor row
    buf = np.empty(
        (len(images[blocks[0]]), len(spans[0]) * stride + reach, left + width + right),
        np.min_scalar_type(bins),
    )
    buf[:, :, :left], buf[:, :, left + width :] = bins, bins
    out = np.empty((len(images), len(deltas), bins, bins))

    def block(i: slice) -> None:  # its counts go on return
        ranks = ((inverse, _bin_of(u, bins)) for inverse, u in map(_midranks, images[i]))
        if len(spans) > 1:  # one image, binned a slab at a time; else one rank lives at a time
            ranks = list(ranks)
        m, hists = len(images[i]), []
        for group in groups:
            hist = np.zeros(m * bins * (bins + 1) ** len(group), np.int64)
            digit = np.arange(m, dtype=np.min_scalar_type(hist.size - 1))[:, None, None] * bins
            hists.append((group, digit, hist))
        for span in spans:
            y0, ny = span.start * stride - top, len(span) * stride
            slab = buf[:m, : ny + reach]  # image rows y0 .. y0 + ny + reach
            lo, hi = max(y0, 0), min(y0 + ny + reach, height)
            for cell, (inverse, table) in zip(slab, ranks):
                cell[: lo - y0], cell[hi - y0 :] = bins, bins
                np.take(table, inverse[lo:hi], out=cell[lo - y0 : hi - y0, left : left + width])
            for group, digit, hist in hists:
                code = digit + slab[:, top:, left:][:, :ny:stride, :width:stride]  # digit's dtype
                for dx, dy in group:
                    code *= bins + 1
                    code += slab[:, top + dy :, left + dx :][:, :ny:stride, :width:stride]
                hist += np.bincount(code.ravel(), minlength=hist.size)
        for j, (group, _, hist) in enumerate(hists):
            hist = hist.reshape((m, bins) + (bins + 1,) * len(group))
            for a in range(2, hist.ndim):  # displacement j * g + a - 2, summed over the others
                k, others = j * g + a - 2, tuple(b for b in range(2, hist.ndim) if b != a)
                counts = np.add.reduce(hist, others)[:, :, :bins]
                for cells in np.divide(counts, n_pairs[k], out=out[i, k]):
                    EmpiricalCopula(cells)  # one record per displacement per image

    for i in blocks:
        block(i)
    return out, tuple(n_pairs)


def extract_family(
    img: GrayImage,
    deltas: Sequence[Displacement] = DEFAULT_DELTAS,
    bins: int = DEFAULT_BINS,
    stride: int = 1,
) -> CopulaFamily:
    """Histogram (u(p), u(p + delta)) over the stride-lattice of anchors p,
    for each delta, with u = rank_transform(img).u.

    Cell (i, j) of delta's copula, with i = floor(u(p) * B) and
    j = floor(u(p + delta) * B), both clamped to B - 1, is normalized by
    the pair count. stride = 1 uses every valid pair; stride >= 2 *
    max(|dx|, |dy|) + 1 makes the pairs disjoint (no pixel participates
    twice). Each distinct pixel value is binned once, and all displacements
    are counted together from one slab of bins at a time. The one-image
    case of _extract_families, the one place its counts become a family.
    """
    cells, n_pairs = _extract_families([img], deltas, bins, stride)
    return CopulaFamily(deltas, cells[0], n_pairs, stride)


def coarsen(family: CopulaFamily, factor: int) -> CopulaFamily:
    """Merge factor x factor blocks of each displacement's cells. factor must
    divide bins; deltas, n_pairs and stride are kept."""
    factor = _in_range("factor", factor, 2, math.inf, "[)", integer=True)
    if family.bins % factor != 0:
        raise ValueError(f"factor {factor} does not divide bins {family.bins}")
    nb = family.bins // factor
    merged = family.cells.reshape(-1, nb, factor, nb, factor).sum(axis=(2, 4))
    return CopulaFamily(family.deltas, merged, family.n_pairs, family.stride)


def non_overlapping_stride(deltas: Sequence[Displacement]) -> int:
    """Smallest lattice stride at which no pixel appears in two pairs."""
    m = max(max(abs(dx), abs(dy)) for dx, dy in _displacements(deltas))
    return 2 * m + 1
