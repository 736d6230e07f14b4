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

from .image_io import REAL, U8, DomainError, GrayImage, _in_range, _row_blocks

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


def _reflect_rows(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """x correlated along axis 0 with symmetric taps over reflect padding (d c b a |
    a b c d | d c b a, repeated for any radius), in ndimage's order: the centre tap,
    then (x[i-j] + x[i+j]) * taps[r-j] for j = r down to 1, on contiguous rows."""
    r, n = len(taps) // 2, len(x)
    i = np.arange(-r, n + r) % (2 * n)
    xp = x[np.minimum(i, 2 * n - 1 - i)]
    out = xp[r : r + n] * taps[r]
    for j in range(r, 0, -1):
        out += (xp[r - j : r - j + n] + xp[r + j : r + j + n]) * taps[r - j]
    return out


def gaussian_blur_array(arr: np.ndarray, kernel: int, sigma: float) -> np.ndarray:
    """Separable Gaussian, odd tap count, reflect padding: axis 0, then axis 1."""
    c = (kernel - 1) / 2.0
    taps = np.exp(-((np.arange(kernel) - c) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = _reflect_rows(arr.astype(np.float64), taps)
    return np.ascontiguousarray(_reflect_rows(out.T, taps).T)


def _dct_step(quality: int) -> float:
    # libjpeg-style quality scaling applied to a flat base step of 16
    scale = 5000.0 / quality if quality < 50 else 200.0 - 2.0 * quality
    return max(1.0, round(16.0 * scale / 100.0))


# pocketfft's twiddles cos(k*pi/16), k = 1..7, by its octant rule: sin of the
# complement from k = 4 on (a plain cos differs in the last bit at k = 4..7)
_W = np.array([math.cos(k * math.pi / 16) if k < 4 else math.sin((8 - k) * math.pi / 16) for k in range(1, 8)])
_LO, _HI = _W[:3, None], _W[6:3:-1, None]  # the twiddles of c_k and of c_(8-k), k = 1..3


def _dct2(c: np.ndarray, fct: float) -> np.ndarray:
    """Orthonormal 8-point DCT-II along axis 0 of an (8, M) array, scaled by
    fct: pocketfft's steps around an inverse real FFT (Makhoul's construction)."""
    x = np.empty((5, c.shape[1]), dtype=np.complex128)
    x[0], x[4] = 2.0 * c[0], 2.0 * c[7]
    x.real[1:4] = c[1:7:2] + c[2:7:2]
    x.imag[1:4] = c[2:7:2] - c[1:7:2]
    y = np.fft.irfft(x, 8, axis=0, norm="forward")
    y *= fct
    lo, hi = y[1:4], y[7:4:-1]
    t1, t2 = _LO * hi + _HI * lo, _LO * lo - _HI * hi
    y[1:4], y[7:4:-1] = 0.5 * (t1 + t2), 0.5 * (t1 - t2)
    y[4] *= _W[3]
    y[0] *= math.sqrt(2.0) * 0.5
    return y


def _dct3(c: np.ndarray, fct: float) -> np.ndarray:
    """Orthonormal 8-point DCT-III along axis 0 of an (8, M) array, scaled by
    fct, the inverse DCT-II: pocketfft's steps around a forward real FFT."""
    y = np.empty_like(c)
    y[0] = c[0] * math.sqrt(2.0)
    lo, hi = c[1:4], c[7:4:-1]
    t1, t2 = lo + hi, lo - hi
    y[1:4] = _LO * t2 + _HI * t1
    y[7:4:-1] = _LO * t1 - _HI * t2
    y[4] = c[4] * (2.0 * _W[3])
    x = np.fft.rfft(y, axis=0)
    y[0], y[7] = x.real[0], x.real[4]
    y[1:7:2], y[2:7:2] = x.real[1:4], x.imag[1:4]
    y *= fct
    y[1:7:2], y[2:7:2] = y[1:7:2] - y[2:7:2], y[2:7:2] + y[1:7:2]
    return y


def _swap(a: np.ndarray) -> np.ndarray:
    """(8, 8*M) with one in-block axis first -> the other in-block axis first."""
    return a.reshape(8, 8, -1).swapaxes(0, 1).reshape(8, -1)


def _block_dct_quant_array(x: np.ndarray, quality: int) -> np.ndarray:
    """8x8 block DCT, uniform quantization and inverse, as pocketfft's orthonormal dctn/idctn
    over axes (2, 3) of the (hb, wb, 8, 8) blocks (2 by 1/16, then 3), in place by block-row strips."""
    step = _dct_step(quality)
    h, w = x.shape
    xp = np.pad(x, ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    wb = xp.shape[1] // 8
    for s in _row_blocks(xp.shape[0] // 8, 64 * wb):
        strip = xp[8 * s.start : 8 * s.stop]
        a = strip.reshape(-1, 8, wb, 8).transpose(1, 3, 0, 2).reshape(8, -1)  # (row in block, ...)
        co = _dct2(_swap(_dct2(a, 1.0 / 16)), 1.0)  # column in block first
        co = np.round(co / step) * step
        rec = _dct3(_swap(_dct3(_swap(co), 1.0 / 16)), 1.0)
        strip[:] = rec.reshape(8, 8, -1, wb).transpose(2, 1, 3, 0).reshape(strip.shape)
    return xp[:h, :w]


def apply_transform(img: GrayImage, spec: TransformSpec) -> GrayImage:
    """Apply spec to a u8 image; output domain follows spec.domain."""
    if img.domain != U8:
        raise DomainError("transforms take u8 input")
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
