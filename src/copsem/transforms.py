"""Reference image transforms: monotone maps and structural degradations.

Monotone point maps (brightness, contrast, gamma) are computed in real
arithmetic and can stay in the real domain, where they provably preserve
ranks, or be requantized back to 8 bits, which merges codes wherever the
map is locally contracting and is therefore only approximately monotone.
Degradations (blur, noise, block-DCT quantization) are structural by
design. awgn and dctq always requantize; their definitions include it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_io import REAL, U8, GrayImage, _in_range

BRIGHTNESS = "brightness"
CONTRAST = "contrast"
GAMMA = "gamma"
BLUR = "blur"
AWGN = "awgn"
DCTQ = "dctq"

_DOMAIN_TOKENS = {"real": REAL, "requant": U8}
_HONORS_DOMAIN = {BRIGHTNESS, CONTRAST, GAMMA, BLUR}
_ANY = (-math.inf, math.inf, "()")
_POSITIVE = (0.0, math.inf, "()")
# each kind's parameters in order, as the (name, lo, hi, ends[, integer]) of _in_range
_PARAMS = {
    BRIGHTNESS: (("brightness offset", *_ANY),),
    CONTRAST: (("contrast scale", *_POSITIVE), ("contrast bias", *_ANY)),
    GAMMA: (("gamma exponent", *_POSITIVE),),
    BLUR: (("blur kernel size", 1, math.inf, "[)"), ("blur sigma", *_POSITIVE)),
    AWGN: (("awgn sigma", 0.0, math.inf, "[)"), ("awgn seed", 0, math.inf, "[)", True)),
    DCTQ: (("dctq quality", 1, 100, "[]", True),),
}


def _num(v) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


@dataclass(frozen=True)
class TransformSpec:
    """kind, positional params, and output domain ("u8" or "real")."""

    kind: str
    params: tuple
    domain: str = U8

    def __post_init__(self):
        if self.kind not in _PARAMS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        rules = _PARAMS[self.kind]
        if len(self.params) != len(rules):
            raise ValueError(f"{self.kind} takes {len(rules)} params, got {len(self.params)}")
        if self.domain not in (U8, REAL):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.domain == REAL and self.kind not in _HONORS_DOMAIN:
            raise ValueError(f"{self.kind} output is always requantized")
        for value, (name, *interval) in zip(self.params, rules):
            _in_range(name, value, *interval)
        if self.kind == BLUR and self.params[0] % 2 != 1:
            raise ValueError(f"blur kernel size must be odd, got {self.params[0]!r}")

    def canonical(self) -> str:
        parts = [self.kind] + [_num(v) for v in self.params]
        if self.kind in _HONORS_DOMAIN:
            parts.append("real" if self.domain == REAL else "requant")
        return ":".join(parts)

    @classmethod
    def parse(cls, text: str) -> "TransformSpec":
        parts = text.strip().split(":")
        if not parts or parts[0] not in _PARAMS:
            raise ValueError(f"unknown transform kind in {text!r}")
        kind = parts[0]
        rest = parts[1:]
        domain = U8
        if kind in _HONORS_DOMAIN and rest and rest[-1] in _DOMAIN_TOKENS:
            domain = _DOMAIN_TOKENS[rest[-1]]
            rest = rest[:-1]
        if len(rest) != len(_PARAMS[kind]):
            raise ValueError(f"{kind} takes {len(_PARAMS[kind])} params: {text!r}")
        try:
            params = tuple(float(v) for v in rest)
        except ValueError:
            raise ValueError(f"non-numeric parameter in {text!r}") from None
        return cls(kind, params, domain)


def brightness(offset: float, domain: str = U8) -> TransformSpec:
    return TransformSpec(BRIGHTNESS, (float(offset),), domain)


def contrast(scale: float, bias: float = 0.0, domain: str = U8) -> TransformSpec:
    return TransformSpec(CONTRAST, (float(scale), float(bias)), domain)


def gamma(g: float, domain: str = U8) -> TransformSpec:
    return TransformSpec(GAMMA, (float(g),), domain)


def blur(kernel: int, sigma: float | None = None, domain: str = U8) -> TransformSpec:
    if sigma is None:
        sigma = kernel / 6.0
    return TransformSpec(BLUR, (kernel, float(sigma)), domain)


def awgn(sigma: float, seed: int) -> TransformSpec:
    return TransformSpec(AWGN, (float(sigma), seed), U8)


def block_dct_quant(quality: int) -> TransformSpec:
    return TransformSpec(DCTQ, (quality,), U8)


def monotone_check(spec: TransformSpec) -> bool:
    """True iff the real-domain map is strictly increasing pixel-wise."""
    return spec.kind in (BRIGHTNESS, CONTRAST, GAMMA)


def requantize(img: GrayImage) -> GrayImage:
    """Round to nearest and clip to [0, 255]; the only path back to u8."""
    if img.domain == U8:
        return img
    px = np.clip(np.round(img.pixels), 0.0, 255.0).astype(np.uint8)
    return GrayImage(img.width, img.height, px, U8)


def gaussian_blur_array(arr: np.ndarray, kernel: int, sigma: float) -> np.ndarray:
    """Separable Gaussian with explicit odd tap count and reflect padding."""
    from scipy.ndimage import convolve1d  # here, not at the top: importing copsem loads numpy only

    c = (kernel - 1) / 2.0
    taps = np.exp(-((np.arange(kernel) - c) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = convolve1d(arr.astype(np.float64), taps, axis=0, mode="reflect")
    return convolve1d(out, taps, axis=1, mode="reflect")


def _dct_step(quality: int) -> float:
    # libjpeg-style quality scaling applied to a flat base step of 16
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return max(1.0, round(16.0 * scale / 100.0))


def _block_dct_quant_array(x: np.ndarray, quality: int) -> np.ndarray:
    import scipy.fft  # here, not at the top: importing copsem loads numpy only

    step = _dct_step(quality)
    h, w = x.shape
    ph, pw = (-h) % 8, (-w) % 8
    xp = np.pad(x, ((0, ph), (0, pw)), mode="edge")
    hh, ww = xp.shape
    blocks = xp.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    co = scipy.fft.dctn(blocks, type=2, axes=(2, 3), norm="ortho")
    co = np.round(co / step) * step
    rec = scipy.fft.idctn(co, type=2, axes=(2, 3), norm="ortho")
    return rec.transpose(0, 2, 1, 3).reshape(hh, ww)[:h, :w]


def apply_transform(img: GrayImage, spec: TransformSpec) -> GrayImage:
    """Apply spec to a u8 image; output domain follows spec.domain."""
    if img.domain != U8:
        raise ValueError("transforms take u8 input")
    x = img.pixels.astype(np.float64)
    p = spec.params
    if spec.kind == BRIGHTNESS:
        y = x + p[0]
    elif spec.kind == CONTRAST:
        y = p[0] * x + p[1]
    elif spec.kind == GAMMA:
        y = 255.0 * (x / 255.0) ** p[0]
    elif spec.kind == BLUR:
        y = gaussian_blur_array(x, int(p[0]), p[1])
    elif spec.kind == AWGN:
        rng = np.random.default_rng(int(p[1]))
        y = x + rng.normal(0.0, p[0], size=x.shape)
    elif spec.kind == DCTQ:
        y = _block_dct_quant_array(x, int(p[0]))
    else:  # pragma: no cover
        raise ValueError(f"unknown transform kind {spec.kind!r}")
    real = GrayImage(img.width, img.height, y, REAL)
    if spec.domain == REAL:
        return real
    return requantize(real)


def default_bank(awgn_seed: int = 7) -> list[TransformSpec]:
    """Axiom-table bank: monotone maps in both domains plus the degradations.

    The requantized monotone subset intentionally stays saturation-free on
    corpora bounded by 170 (brightness +80 and contrast 1.5 then top out at
    exactly 255), so its distortion measures tie-merging alone.
    """
    return [
        brightness(80.0, REAL),
        contrast(1.5, 0.0, REAL),
        gamma(0.5, REAL),
        gamma(3.0, REAL),
        brightness(80.0, U8),
        contrast(1.5, 0.0, U8),
        gamma(0.5, U8),
        blur(7),
        awgn(10.0, awgn_seed),
        block_dct_quant(20),
    ]
