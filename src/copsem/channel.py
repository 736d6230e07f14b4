"""Binary symmetric channel and the end-to-end corruption experiment."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .codec import QuantizedFamily, _decode_bits, _dequantize_rows, pack
from .image_io import _fork_map, _in_range, _row_blocks
from .metrics import _d_pc_batch
from .rank_copula import _check_masses


def transmit(data: bytes, ber: float, seed: int) -> bytes:
    """Flip each bit independently with probability ber. Length-preserving;
    the seed fixes the flip mask: draw i of default_rng(seed) flips bit i."""
    _in_range("ber", ber, 0.0, 0.5)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    seeds = _seed_hash(_words(seed)[None], 8)
    return np.packbits(bits ^ _flips(np.random.default_rng(0), seeds, bits.size, ber)[0]).tobytes()


def _flips(g: np.random.Generator, seeds: np.ndarray, n_bits: int, ber: float) -> np.ndarray:
    """The one flip rule: row i of the (len(seeds), n_bits) plane flips bit j
    when draw j of the stream _seeded(g, seeds[i]) starts is below ber."""
    plane = np.empty((len(seeds), n_bits))
    for row, words in zip(plane, seeds.tolist()):
        _seeded(g, words).random(out=row)
    return plane < ber


def trial_seed(master_seed: int, *tags: int) -> int:
    """Counter-based seed for the stream named by tags (a trial index, or a
    sweep tag and point index); stable across platforms. Equals
    SeedSequence((master_seed, *tags)).generate_state(1, np.uint64)[0]."""
    lo, hi = _seed_hash(_words(master_seed, *tags)[None], 2)[0].tolist()
    return hi << 32 | lo


# numpy's SeedSequence hash constants (bit_generator.pyx), PCG64's multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R = (
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715
)
_PCG_MULT, _MASK32, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 32) - 1, (1 << 128) - 1


def _words(*ints: int) -> np.ndarray:
    """SeedSequence's uint32 entropy words of ints: each int little-endian, 0 as one word."""
    ints = [operator.index(x) for x in ints]
    if min(ints) < 0:
        raise ValueError(f"expected non-negative integers, got {ints}")
    words = [x >> s & _MASK32 for x in ints for s in range(0, max(x.bit_length(), 1), 32)]
    return np.array(words, np.uint32)


def _seed_hash(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence(row).generate_state(n_words, np.uint32) for each row of a
    (rows, words) uint32 entropy array; a row under 4 words mixes as if
    zero-padded. The hash constants are a data-free chain of Python ints, and
    uint32 arrays wrap silently, so no overflow warning can fire."""
    e = np.zeros((max(entropy.shape[1], 4), len(entropy)), np.uint32)
    e[: entropy.shape[1]] = entropy.T
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v, h = v ^ h, h * _MULT_A & _MASK32
        v = v * h
        return v ^ v >> 16

    def mix(x, y):
        r = x * _MIX_L - y * _MIX_R
        return r ^ r >> 16

    pool = [hashmix(w) for w in e[:4]]
    for s, d in ((s, d) for s in range(4) for d in range(4) if s != d):
        pool[d] = mix(pool[d], hashmix(pool[s]))
    for w, d in ((w, d) for w in e[4:] for d in range(4)):
        pool[d] = mix(pool[d], hashmix(w))
    out, h = np.empty((len(entropy), n_words), np.uint32), _INIT_B
    for i in range(n_words):
        v, h = pool[i % 4] ^ h, h * _MULT_B & _MASK32
        v = v * h
        out[:, i] = v ^ v >> 16
    return out


def _trial_seeds(prefix: tuple[int, ...], trials: int, hops: int = 1) -> np.ndarray:
    """(trials, 8) uint32: generate_state(8) of the stream trial t < 2^32 draws,
    default_rng(SeedSequence((*prefix, t))) at hops=1 and
    default_rng(trial_seed(*prefix, t)) at hops=2. Hashed a few thousand
    trials at a time, so the hash's temporaries stay bounded."""
    head, ts = _words(*prefix), np.arange(trials, dtype=np.uint32)
    out = np.empty((trials, 8), np.uint32)
    for s in _row_blocks(trials, 16):
        e = np.column_stack([np.broadcast_to(head, (len(ts[s]), head.size)), ts[s]])
        for _ in range(hops - 1):
            e = _seed_hash(e, 2)  # trial_seed's two words: a zero high word mixes as if dropped
        out[s] = _seed_hash(e, 8)
    return out


def _seeded(g: np.random.Generator, w: list[int]) -> np.random.Generator:
    """g at the PCG64 state that generate_state(8) words w seed: the words
    join pairwise, low first, into generate_state(4, np.uint64), and
    pcg64_set_seed reads (initstate, initseq) from it, high half first."""
    initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _MASK128
    state = {"state": ((inc + initstate) * _PCG_MULT + inc) & _MASK128, "inc": inc}
    g.bit_generator.state = dict(bit_generator="PCG64", state=state, has_uint32=0, uinteger=0)
    return g


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


def _ber_experiments(q: QuantizedFamily, runs) -> list[ChannelExperiment]:
    """One ChannelExperiment per (ber, trials, master_seed) run; trial t flips
    the bits transmit(payload, ber, trial_seed(master_seed, t)) flips. _fork_map
    scores the _row_blocks of each run's (trials, payload bits) flip plane;
    each block XORs its flip plane with the payload bits once.
    Each run hashes all its trials' streams up front; one generator draws them."""
    _check_runs(runs)
    n = len(q.deltas)
    reference = _dequantize_rows(q.indices.reshape(n, -1), q.alpha, q.bins)
    _check_masses(reference, "cell masses")
    bits = np.unpackbits(np.frombuffer(pack(q), dtype=np.uint8)).astype(bool)
    seeds = [_trial_seeds((seed,), trials, hops=2) for _, trials, seed in runs]
    g = np.random.default_rng(0)

    def score(block: tuple[int, slice]) -> list[float]:
        plane = _flips(g, seeds[block[0]][block[1]], bits.size, runs[block[0]][0])
        plane ^= bits
        indices = _decode_bits(plane, q.alpha, q.indices.size).reshape(len(plane), n, -1)
        cells = _dequantize_rows(indices, q.alpha, q.bins)
        _check_masses(cells.reshape(-1, cells.shape[-1]), "cell masses")
        return _d_pc_batch(reference, cells).tolist()

    blocks = [(k, s) for k, r in enumerate(runs) for s in _row_blocks(r[1], bits.size)]
    scored = iter(_fork_map(score, blocks))
    out = []
    for ber, trials, _ in runs:
        d = [x for _ in _row_blocks(trials, bits.size) for x in next(scored)]
        mean, std, lra = float(np.mean(d)), float(np.std(d)), q.bits * ber * q.alpha
        out.append(ChannelExperiment(ber, q.alpha, q.bits, trials, mean, std, lra, tuple(d)))
    return out
