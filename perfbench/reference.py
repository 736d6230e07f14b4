"""Reference implementation of the documented copsem formulas.

Written from the formulas in the copsem README and docstrings, with numpy
only and no import of the package under test, so the benchmark can tell a
wrong answer from a fast one:

* rank field: u = midrank / (N + 1), midrank = mean 1-based rank over ties;
* copula cell of a pair: floor(u * B) clamped to B - 1, per coordinate;
* copula cells: counts / n_pairs over the stride lattice of valid anchors;
* d_pc: mean over displacements of sqrt(JS), JS in nats with 0 log 0 = 0;
* PSNR: 10 log10(255^2 / MSE), inf for identical images;
* SSIM: mean over non-overlapping 8x8 windows of the unweighted SSIM with
  population moments; an image smaller than 8 in either direction is one
  window.
"""

from __future__ import annotations

import json
import math

import numpy as np

DEFAULT_DELTAS = ((1, 0), (0, 1), (1, 1), (1, -1))
DEFAULT_BINS = 8
SSIM_C1 = (0.01 * 255.0) ** 2
SSIM_C2 = (0.03 * 255.0) ** 2
SSIM_WINDOW = 8


def parse_pgm(data: bytes) -> np.ndarray:
    """Canonical P5 bytes as written by the benchmark: one header line per field."""
    magic, dims, maxval, payload = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError("not a canonical 8-bit P5 stream")
    width, height = (int(t) for t in dims.split())
    return np.frombuffer(payload[: width * height], dtype=np.uint8).reshape(height, width)


def pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(pixels, np.uint8).tobytes()


def midranks(pixels: np.ndarray) -> np.ndarray:
    """Mean 1-based rank of each 8-bit pixel's value among all pixels (exact halves).

    A value held by c pixels with b pixels below it has ranks b+1 .. b+c,
    whose mean is b + (c + 1) / 2.
    """
    px = np.asarray(pixels)
    if px.dtype != np.uint8:
        raise TypeError("reference ranks are defined for 8-bit pixels")
    counts = np.bincount(px.ravel(), minlength=256)
    below = np.cumsum(counts) - counts
    return (below + (counts + 1) / 2.0)[px]


def rank_field(pixels: np.ndarray) -> np.ndarray:
    return midranks(pixels) / (np.asarray(pixels).size + 1)


def _anchors(extent: int, offset: int, stride: int) -> slice:
    """Anchor coordinates: multiples of stride whose partner stays inside the image."""
    lo = -(-max(0, -offset) // stride) * stride
    return slice(lo, max(lo, extent - max(0, offset)), stride)


def copula_counts(cell: np.ndarray, delta, bins: int, stride: int = 1) -> tuple[np.ndarray, int]:
    """Integer B x B pair counts and the pair count for one displacement.

    cell holds each pixel's bin index floor(u * B) clamped to B - 1.
    """
    dx, dy = delta
    h, w = cell.shape
    xs = _anchors(w, dx, stride)
    ys = _anchors(h, dy, stride)
    a = cell[ys, xs]
    b = cell[ys.start + dy : ys.stop + dy : stride, xs.start + dx : xs.stop + dx : stride]
    counts = np.bincount((a * bins + b).ravel(), minlength=bins * bins).reshape(bins, bins)
    return counts, int(a.size)


def family(pixels: np.ndarray, deltas=DEFAULT_DELTAS, bins: int = DEFAULT_BINS, stride: int = 1) -> dict:
    """Family as plain data: deltas, n_pairs, integer counts and cells = counts / n_pairs."""
    cell = np.minimum(np.floor(rank_field(pixels) * bins).astype(np.int64), bins - 1)
    counts, n_pairs = zip(*(copula_counts(cell, d, bins, stride) for d in deltas))
    return {
        "bins": bins,
        "stride": stride,
        "deltas": [list(d) for d in deltas],
        "n_pairs": list(n_pairs),
        "counts": [c.tolist() for c in counts],
        "cells": [(c / n).ravel() for c, n in zip(counts, n_pairs)],
    }


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JS in nats written as sum over cells of the two KL halves against M = (p+q)/2."""
    total = 0.0
    for pi, qi in zip(np.ravel(p).tolist(), np.ravel(q).tolist()):
        m = 0.5 * (pi + qi)
        if pi > 0.0:
            total += 0.5 * pi * math.log(pi / m)
        if qi > 0.0:
            total += 0.5 * qi * math.log(qi / m)
    return min(max(total, 0.0), math.log(2.0))


def d_pc(fam_a: dict, fam_b: dict) -> float:
    terms = [math.sqrt(js_divergence(a, b)) for a, b in zip(fam_a["cells"], fam_b["cells"])]
    return sum(terms) / len(terms)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    x = a.astype(np.float64)
    y = b.astype(np.float64)
    h, w = x.shape
    k = SSIM_WINDOW
    if h < k or w < k:
        xb, yb = x.reshape(1, -1), y.reshape(1, -1)
    else:
        bh, bw = h // k, w // k
        xb = x[: bh * k, : bw * k].reshape(bh, k, bw, k).transpose(0, 2, 1, 3).reshape(-1, k * k)
        yb = y[: bh * k, : bw * k].reshape(bh, k, bw, k).transpose(0, 2, 1, 3).reshape(-1, k * k)
    mx, my = xb.mean(axis=1), yb.mean(axis=1)
    vx = ((xb - mx[:, None]) ** 2).mean(axis=1)
    vy = ((yb - my[:, None]) ** 2).mean(axis=1)
    cov = ((xb - mx[:, None]) * (yb - my[:, None])).mean(axis=1)
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return float(np.mean(num / den))


def family_mismatch(text: str, ref: dict) -> str | None:
    """Compare a family JSON document with the reference, cell values bit for bit.

    Returns None when they agree, else a one-line reason.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return f"family JSON does not parse: {exc}"
    for key in ("bins", "stride", "deltas", "n_pairs"):
        if doc.get(key) != ref[key]:
            return f"{key}: got {doc.get(key)!r}, reference {ref[key]!r}"
    cells = doc.get("cells")
    if not isinstance(cells, list) or len(cells) != len(ref["cells"]):
        return "cells: wrong number of copulas"
    for k, (got, want) in enumerate(zip(cells, ref["cells"])):
        got = np.asarray(got, dtype=np.float64)
        if got.shape != want.shape or not np.array_equal(got, want):
            bad = int(np.argmax(got != want)) if got.shape == want.shape else -1
            return f"copula {k} ({ref['deltas'][k]}): cells differ from counts / n_pairs (first at {bad})"
    return None


def close(got: float, want: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= abs_tol + rel * abs(want)


def report_mismatch(csv_text: str, pixels_a: np.ndarray, pixels_b: np.ndarray) -> str | None:
    """Check a `copsem dpc` report on two images against the reference formulas.

    The family terms are floating-point sums, which a faithful implementation
    may order differently. Each sqrt-JS term is therefore checked through its
    square against the reference JS (absolute 1e-14, where sqrt would amplify
    last-digit residue near zero), d_pc against the mean of the printed terms,
    and PSNR and SSIM to a relative 1e-9.
    """
    lines = csv_text.splitlines()
    if len(lines) != 3 or lines[0] != "#schema=copsem.distortion_report.v1":
        return f"report is not a one-row distortion report: {csv_text[:120]!r}"
    header = lines[1].split(",")
    row = lines[2].split(",")
    want_header = (
        ["image_a", "image_b"]
        + [f"sqrt_js_{dx}_{dy}" for dx, dy in DEFAULT_DELTAS]
        + ["d_pc", "psnr", "ssim"]
    )
    if header != want_header or len(row) != len(header):
        return f"report header {header!r} != {want_header!r}"
    try:
        values = [float(text) for text in row[2:]]
    except ValueError:
        return f"non-numeric value in report row {row!r}"
    *terms, got_dpc, got_psnr, got_ssim = values
    fam_a, fam_b = family(pixels_a), family(pixels_b)
    for name, got, a, b in zip(header[2:], terms, fam_a["cells"], fam_b["cells"]):
        want_js = js_divergence(a, b)
        if not close(got * got, want_js, abs_tol=1e-14):
            return f"{name}: got {got!r}, reference sqrt({want_js!r})"
    if not close(got_dpc, sum(terms) / len(terms), rel=1e-12):
        return f"d_pc {got_dpc!r} is not the mean of the printed terms"
    for name, got, want in (
        ("psnr", got_psnr, psnr(pixels_a, pixels_b)),
        ("ssim", got_ssim, ssim(pixels_a, pixels_b)),
    ):
        if not close(got, want):
            return f"{name}: got {got!r}, reference {want!r}"
    return None
