"""Grayscale images, binary PGM (P5) I/O, synthetic sources and the shared rules.

Images live in one of two pixel domains: 8-bit integers ("u8", the only
domain that can be persisted) or unbounded reals ("real", produced by
real-valued transforms and consumed by the rank pipeline, which only
looks at order). Persisting a real image requires an explicit
requantization step (see transforms.requantize).
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass, fields

import numpy as np

U8 = "u8"
REAL = "real"
_BLOCK = 1 << 16  # elements per block of the one working-set rule, _row_blocks


def _in_range(name: str, value, lo, hi, ends: str = "[]", integer: bool = False):
    """The one range rule: raise ValueError unless value lies between lo and
    hi, each end closed where ends has "[" or "]" and open where it has "("
    or ")", and is whole where integer is set. NaN lies in no interval.
    Returns value, as a Python int where integer is set (8.0 becomes 8)."""
    above = value >= lo if ends[0] == "[" else value > lo
    below = value <= hi if ends[1] == "]" else value < hi
    if not (above and below):
        raise ValueError(f"{name} must be in {ends[0]}{lo!r}, {hi!r}{ends[1]}, got {value!r}")
    if integer and value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value) if integer else value


def _sweep(name: str, values) -> tuple[float, ...]:
    """The one sweep rule: values as floats, ascending. ValueError when there
    is none or one repeats: a fit or an ordering check needs distinct points."""
    values = tuple(sorted(float(v) for v in values))
    if not values:
        raise ValueError(f"empty {name} sweep")
    for a, b in zip(values, values[1:]):
        if a == b:
            raise ValueError(f"{name} {a!r} repeated in the sweep")
    return values


def _row_blocks(rows: int, cols: int, least: int = 1):
    """The one working-set rule: slices covering range(rows) in order,
    max(least, _BLOCK // cols) whole rows each (the last may hold fewer):
    about _BLOCK elements of a (rows, cols) array, but never under least rows.
    A block at a time keeps temporaries in cache (the pixel and count kernels,
    flip planes, the decoder-weight solve) or bounded (concentration draws)."""
    step = max(least, _BLOCK // cols)
    return (slice(r, r + step) for r in range(0, rows, step))


_forking = False  # True while a _fork_map runs here, and in its children


def _fork_map(fn, items) -> list:
    """The one fork-join: [fn(x) for x in items] in contiguous chunks, one per
    usable CPU, the first here and each other in a forked child that pipes
    back its pickled results, or its first error. Read in item order, the
    first failing item raises; every child is reaped (killed first if the map
    is abandoned). One CPU, no fork or affinity call, another live thread or
    a call inside a running map take the plain loop."""
    global _forking
    items = list(items)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    cpus = min(cpus, len(items)) if hasattr(os, "fork") else 1
    if cpus < 2 or _forking or threading.active_count() > 1:
        return [fn(x) for x in items]
    cuts = [len(items) * c // cpus for c in range(cpus + 1)]
    pids, fds = [], []
    _forking = True
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: exit 0 once the chunk's message is sent, else 1
                try:
                    try:
                        msg = pickle.dumps((True, [fn(x) for x in items[lo:hi]]), -1)
                    except BaseException as exc:
                        msg = pickle.dumps((False, exc), -1)
                    with open(w, "wb") as fh:
                        fh.write(msg)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(w)
            pids.append(pid)
            fds.append(r)
        out = [fn(x) for x in items[: cuts[1]]]
        for fd in fds:
            with open(fd, "rb", closefd=False) as fh:
                msg = fh.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(0), 0)[1])
            if not msg:
                raise RuntimeError(f"a forked worker exited with status {status} and no result")
            ok, value = pickle.loads(msg)
            if not ok:
                raise value
            out.extend(value)
        return out
    finally:
        _forking = False
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _same_values(self, other):
    """The __eq__ of the value types that hold arrays (and so stay unhashable):
    the same type and every dataclass field equal, arrays by np.array_equal."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


class PgmError(ValueError):
    """Malformed PGM stream."""


class PgmHeaderError(PgmError):
    """Bad magic or non-integer header token."""


class PgmDimensionError(PgmError):
    """Width or height below 1."""


class PgmMaxvalError(PgmError):
    """Maxval outside [1, 255]; 16-bit PGM is out of scope."""


class PgmTruncatedError(PgmError):
    """Payload shorter than width * height."""


class PgmPixelError(PgmError):
    """A pixel value above the header's maxval."""


class DomainError(ValueError):
    """Operation applied to an image in the wrong pixel domain."""


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Single-channel image. pixels is a (height, width) row-major array."""

    width: int
    height: int
    pixels: np.ndarray
    domain: str = U8

    def __post_init__(self):
        for name in ("width", "height"):
            value = _in_range(name, getattr(self, name), 1, math.inf, "[)", integer=True)
            object.__setattr__(self, name, value)
        if self.domain not in (U8, REAL):
            raise ValueError(f"unknown pixel domain {self.domain!r}")
        px = np.asarray(self.pixels)
        if px.ndim >= 2 and px.shape != (self.height, self.width):
            # a mis-oriented 2-D array would survive a bare size check and
            # be silently reshaped into scrambled rows
            raise ValueError(
                f"pixel array shape {px.shape} does not match "
                f"(height, width) = ({self.height}, {self.width})"
            )
        if px.size != self.width * self.height:
            raise ValueError(
                f"pixel count {px.size} does not match {self.width}x{self.height}"
            )
        px = px.reshape(self.height, self.width)
        if self.domain == U8:
            if px.dtype != np.uint8:  # a uint8 array holds only valid values
                if not np.issubdtype(px.dtype, np.integer):
                    if not np.all(px == np.round(px)):
                        raise DomainError("u8 image requires integer pixel values")
                if px.min() < 0 or px.max() > 255:
                    raise DomainError("u8 image requires pixel values in [0, 255]")
            px = px.astype(np.uint8)  # a copy: the image never aliases the caller's buffer
        else:
            px = px.astype(np.float64)
            if not np.all(np.isfinite(px)):
                raise ValueError("real image requires finite pixel values")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    __eq__ = _same_values


def read_pgm(data: bytes) -> GrayImage:
    """Parse a binary (P5) PGM byte stream into a u8 GrayImage.

    Header comments (lines starting with '#') are skipped. Exactly one
    whitespace byte separates the maxval token from the payload.
    """
    if not data.startswith(b"P5"):
        raise PgmHeaderError("not a binary PGM stream (magic != P5)")
    pos = 2
    tokens: list[int] = []
    n = len(data)
    while len(tokens) < 3:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tok = data[start:pos]
        if not tok:
            raise PgmHeaderError("header ended before width/height/maxval")
        try:
            tokens.append(int(tok))
        except ValueError:
            raise PgmHeaderError(f"non-integer header token {tok!r}") from None
    if pos >= n or not data[pos : pos + 1].isspace():
        raise PgmHeaderError("missing whitespace after maxval")
    pos += 1
    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise PgmDimensionError(f"invalid dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise PgmMaxvalError(f"maxval {maxval} outside [1, 255]")
    if n - pos < width * height:
        raise PgmTruncatedError(f"payload holds {n - pos} bytes, needs {width * height}")
    px = np.frombuffer(data, np.uint8, width * height, pos)
    top = px.max()
    if top > maxval:
        raise PgmPixelError(f"pixel value {top} exceeds maxval {maxval}")
    return GrayImage(width, height, px, U8)


def _load_pgm(path: str) -> tuple[str, GrayImage]:
    """(stem, image) of the binary PGM file at path; the stem names the image."""
    with open(path, "rb") as fh:
        img = read_pgm(fh.read())
    return os.path.splitext(os.path.basename(path))[0], img


def write_pgm(img: GrayImage) -> bytes:
    """Serialize a u8 GrayImage to canonical binary PGM bytes."""
    if img.domain != U8:
        raise DomainError("only u8 images can be written; requantize first")
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def synth_gradient(width: int, height: int) -> GrayImage:
    """Raster ramp: pixel k of N is round(k * 255 / (N - 1)), 0 when N = 1.

    Strictly increasing in raster order (all values distinct) whenever
    width * height <= 256.
    """
    n = width * height
    px = np.round(np.arange(n) * 255.0 / max(n - 1, 1)).astype(np.uint8)
    return GrayImage(width, height, px.reshape(height, width), U8)


def synth_noise(width: int, height: int, seed: int) -> GrayImage:
    """Reproducible uniform byte noise."""
    rng = np.random.default_rng(seed)
    px = rng.integers(0, 256, size=(height, width), dtype=np.uint8)
    return GrayImage(width, height, px, U8)
