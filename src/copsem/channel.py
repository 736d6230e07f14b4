"""Binary symmetric channel and the end-to-end corruption experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import QuantizedFamily, _dequantize_rows, _unpack_rows, dequantize, pack
from .image_io import _in_range
from .metrics import _d_pc_batch
from .rank_copula import _check_masses

# Trials decoded and scored together in ber_experiment. The block bounds the
# working set: its bit planes are (block, payload bits) uint8.
TRIAL_BLOCK = 64


def transmit(data: bytes, ber: float, seed: int) -> bytes:
    """Flip each bit independently with probability ber. Length-preserving;
    the seed fixes the flip mask."""
    _in_range("ber", ber, 0.0, 0.5)
    if ber == 0.0 or not data:
        return bytes(data)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    rng = np.random.default_rng(seed)
    mask = rng.random(bits.size) < ber
    return np.packbits(bits ^ mask).tobytes()


def trial_seed(master_seed: int, *tags: int) -> int:
    """Counter-based seed for the stream named by tags (a trial index, or a
    sweep tag and point index); stable across platforms."""
    ss = np.random.SeedSequence((master_seed, *tags))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ChannelExperiment:
    """Monte-Carlo summary of quantize -> pack -> BSC -> unpack -> dequantize."""

    ber: float
    alpha: float
    bits_per_cell: int
    trials: int
    mean_d_pc: float
    std_d_pc: float
    shape_lra: float
    distortions: tuple[float, ...]


def ber_experiment(
    q: QuantizedFamily,
    ber: float,
    trials: int,
    master_seed: int,
) -> ChannelExperiment:
    """Distortion of the corrupted decode against the error-free decode.

    The shape factor L * r * alpha is the predicted scaling shape; the
    proportionality constant in front of it is fitted by the harness, never
    assumed. Each trial is its own transmit call; a block of TRIAL_BLOCK
    corrupted streams is unpacked, dequantized, checked and scored at once.
    """
    _in_range("trials", trials, 1, math.inf, "[)")
    n = len(q.deltas)
    reference = dequantize(q).cells.reshape(n, -1)
    payload = pack(q)
    out = []
    for start in range(0, trials, TRIAL_BLOCK):
        streams = [
            transmit(payload, ber, trial_seed(master_seed, t))
            for t in range(start, min(start + TRIAL_BLOCK, trials))
        ]
        indices = _unpack_rows(streams, q.alpha, q.indices.size)
        cells = _dequantize_rows(indices.reshape(len(streams), n, -1), q.alpha, q.bins)
        _check_masses(cells.reshape(-1, cells.shape[-1]), "cell masses")
        out.extend(_d_pc_batch(reference, cells).tolist())
    arr = np.asarray(out)
    return ChannelExperiment(
        ber=ber,
        alpha=q.alpha,
        bits_per_cell=q.bits,
        trials=trials,
        mean_d_pc=float(arr.mean()),
        std_d_pc=float(arr.std()),
        shape_lra=q.bits * ber * q.alpha,
        distortions=tuple(out),
    )

