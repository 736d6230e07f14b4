"""Binary symmetric channel and the end-to-end corruption experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import QuantizedFamily, _decode_bits, _dequantize_rows, dequantize, pack
from .image_io import _in_range, _row_blocks
from .metrics import _d_pc_batch
from .rank_copula import _check_masses


def transmit(data: bytes, ber: float, seed: int) -> bytes:
    """Flip each bit independently with probability ber. Length-preserving;
    the seed fixes the flip mask."""
    _in_range("ber", ber, 0.0, 0.5)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return np.packbits(bits ^ _flips(bits.size, ber, seed)).tobytes()


def _flips(n_bits: int, ber: float, seed: int) -> np.ndarray:
    """The one flip rule: bit i flips when draw i of default_rng(seed) is below ber."""
    return np.random.default_rng(seed).random(n_bits) < ber


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
    assumed. The one-run case of _ber_experiments.
    """
    return _ber_experiments(q, [(ber, trials, master_seed)])[0]


def _check_runs(runs) -> None:
    """ValueError unless each (ber, trials, master_seed) run has a trial and a ber in [0, 0.5]."""
    for ber, trials, _ in runs:
        _in_range("trials", trials, 1, math.inf, "[)")
        _in_range("ber", ber, 0.0, 0.5)


def _ber_experiments(q: QuantizedFamily, runs, map_blocks=map) -> list[ChannelExperiment]:
    """One ChannelExperiment per (ber, trials, master_seed) run; trial t flips
    the bits transmit(payload, ber, trial_seed(master_seed, t)) flips. map_blocks
    scores the _row_blocks of each run's (trials, payload bits) flip plane, as
    map would; each block XORs its flip plane with the payload bits once."""
    _check_runs(runs)
    n = len(q.deltas)
    reference = dequantize(q).cells.reshape(n, -1)
    bits = np.unpackbits(np.frombuffer(pack(q), dtype=np.uint8)).astype(bool)

    def score(block: tuple[int, slice]) -> list[float]:
        ber, trials, seed = runs[block[0]]
        ts = range(trials)[block[1]]
        plane = np.stack([_flips(bits.size, ber, trial_seed(seed, t)) for t in ts])
        plane ^= bits
        indices = _decode_bits(plane, q.alpha, q.indices.size).reshape(len(ts), n, -1)
        cells = _dequantize_rows(indices, q.alpha, q.bins)
        _check_masses(cells.reshape(-1, cells.shape[-1]), "cell masses")
        return _d_pc_batch(reference, cells).tolist()

    blocks = [(k, s) for k, r in enumerate(runs) for s in _row_blocks(r[1], bits.size)]
    scored = iter(map_blocks(score, blocks))
    out = []
    for ber, trials, _ in runs:
        d = [x for _ in _row_blocks(trials, bits.size) for x in next(scored)]
        mean, std, lra = float(np.mean(d)), float(np.std(d)), q.bits * ber * q.alpha
        out.append(ChannelExperiment(ber, q.alpha, q.bits, trials, mean, std, lra, tuple(d)))
    return out
