"""Seeded input generator for the image workloads.

Everything here is numpy only, so the inputs do not change when the program
under test does. The same seed gives the same bytes.

* ingest-2048: smoothed-noise textures cut into all 256 codes at quantile
  thresholds bent by a per-image power, so the code histogram is uneven
  and every tie group holds thousands of pixels.
* compare-512: full-range textures, each paired with one degradation from
  the program's default bank (blur 7, awgn 10, block DCT at quality 20,
  requantized gamma 0.5), reimplemented here.
"""

from __future__ import annotations

import math
import os

import numpy as np

from reference import pgm_bytes

INGEST_SIZE = 2048
INGEST_IMAGES = 3
COMPARE_SIZE = 512
COMPARE_ORIGINALS = 2
DEGRADATIONS = ("blur7", "awgn10", "dctq20", "gamma0.5")


def _smooth(x: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic Gaussian smoothing through the FFT."""
    h, w = x.shape
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    gain = np.exp(-2.0 * (math.pi * sigma) ** 2 * (fx * fx + fy * fy))
    return np.fft.irfft2(np.fft.rfft2(x) * gain, s=(h, w))


def texture(rng: np.random.Generator, size: int, power: float = 1.0) -> np.ndarray:
    """u8 texture using every code 0..255; power bends the code histogram.

    Codes come from 255 thresholds at the quantiles (k / 256) ** (1 / power)
    of a random sample of the texture, so with power 1 the histogram is
    nearly flat and every code has size^2 / 256 pixels on average.
    """
    tex = _smooth(rng.standard_normal((size, size)), rng.uniform(0.8, 3.0))
    tex += 0.25 * tex.std() * rng.standard_normal(tex.shape)
    sample = tex.ravel()[rng.integers(0, tex.size, size=1 << 16)]
    levels = (np.arange(1, 256) / 256.0) ** (1.0 / power)
    thresholds = np.quantile(sample, levels)
    return np.searchsorted(thresholds, tex, side="right").astype(np.uint8)


def _gauss_blur(x: np.ndarray, kernel: int, sigma: float) -> np.ndarray:
    """Separable Gaussian with mirrored edges (edge sample repeated)."""
    c = (kernel - 1) / 2.0
    taps = np.exp(-((np.arange(kernel) - c) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    r = kernel // 2
    for axis in (0, 1):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (r, r)
        xp = np.pad(x, pad, mode="symmetric")
        n = x.shape[axis]
        x = sum(t * np.take(xp, np.arange(k, k + n), axis=axis) for k, t in enumerate(taps))
    return x


def _dct_matrix(n: int = 8) -> np.ndarray:
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    m = np.cos(math.pi * (2 * i + 1) * k / (2 * n)) * math.sqrt(2.0 / n)
    m[0] /= math.sqrt(2.0)
    return m


def _block_dct_quant(x: np.ndarray, step: float) -> np.ndarray:
    h, w = x.shape
    blocks = x.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3)
    c = _dct_matrix()
    co = c @ blocks @ c.T
    rec = c.T @ (np.round(co / step) * step) @ c
    return rec.transpose(0, 2, 1, 3).reshape(h, w)


def degrade(px: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    x = px.astype(np.float64)
    if kind == "blur7":
        y = _gauss_blur(x, 7, 7 / 6.0)
    elif kind == "awgn10":
        y = x + rng.normal(0.0, 10.0, x.shape)
    elif kind == "dctq20":
        y = _block_dct_quant(x, 40.0)  # libjpeg scaling of a flat step 16 at quality 20
    elif kind == "gamma0.5":
        y = 255.0 * (x / 255.0) ** 0.5
    else:
        raise ValueError(f"unknown degradation {kind!r}")
    return np.clip(np.round(y), 0, 255).astype(np.uint8)


def code_stats(images: list[np.ndarray], l2_bytes: int | None = None) -> dict:
    """Input properties the rank and copula layers depend on."""
    distinct, groups, weighted = [], [], []
    for px in images:
        counts = np.bincount(px.ravel(), minlength=256)
        counts = counts[counts > 0]
        distinct.append(int(counts.size))
        groups.append(px.size / counts.size)
        weighted.append(float((counts * counts).sum() / px.size))
    n = int(images[0].size)
    field = 8 * n
    return {
        "images": len(images),
        "pixels_per_image": n,
        "distinct_codes": [min(distinct), max(distinct)],
        "mean_tie_group": float(np.mean(groups)),
        "pixel_weighted_tie_group": float(np.mean(weighted)),
        "rank_field_bytes": field,
        "rank_field_over_l2": None if not l2_bytes else field / l2_bytes,
    }


def make_ingest(seed: int, out_dir: str, l2_bytes: int | None) -> tuple[list[str], dict]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2048)))
    paths, stats_src = [], []
    for k in range(INGEST_IMAGES):
        px = texture(rng, INGEST_SIZE, power=rng.uniform(0.7, 1.4))
        path = os.path.join(out_dir, f"ingest{k}.pgm")
        with open(path, "wb") as fh:
            fh.write(pgm_bytes(px))
        paths.append(path)
        stats_src.append(px)
    return paths, code_stats(stats_src, l2_bytes)


def make_compare(seed: int, out_dir: str, l2_bytes: int | None) -> tuple[list[tuple[str, str]], dict]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 512)))
    pairs, stats_src = [], []
    for k in range(COMPARE_ORIGINALS):
        orig = texture(rng, COMPARE_SIZE)
        for kind in DEGRADATIONS:
            deg = degrade(orig, kind, rng)
            a = os.path.join(out_dir, f"pair{k}_{kind}_a.pgm")
            b = os.path.join(out_dir, f"pair{k}_{kind}_b.pgm")
            for path, px in ((a, orig), (b, deg)):
                with open(path, "wb") as fh:
                    fh.write(pgm_bytes(px))
            pairs.append((a, b))
            stats_src += [orig, deg]
    return pairs, code_stats(stats_src, l2_bytes)
