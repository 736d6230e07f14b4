import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from copsem import image_io
from copsem.channel import (
    _seed_hash,
    _seeded,
    _trial_seeds,
    _words,
    ber_experiment,
    transmit,
    trial_seed,
)
from copsem.codec import dequantize, pack, quantize, unpack
from copsem.image_io import _BLOCK
from copsem.metrics import d_pc

from conftest import make_family


def test_ber_range_validated():
    for ber in (0.6, -0.1, float("nan")):
        with pytest.raises(ValueError):
            transmit(b"\x00", ber, 1)


def test_zero_ber_is_identity(rng):
    data = rng.integers(0, 256, 200, dtype=np.uint8).tobytes()
    assert transmit(data, 0.0, 99) == data


def test_half_ber_flip_fraction():
    data = bytes(125_000)  # 10^6 zero bits
    out = transmit(data, 0.5, 2024)
    flipped = int(np.unpackbits(np.frombuffer(out, dtype=np.uint8)).sum())
    assert abs(flipped / 1e6 - 0.5) < 0.002


def test_transmit_deterministic(rng):
    data = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
    assert transmit(data, 0.1, 31337) == transmit(data, 0.1, 31337)
    assert transmit(data, 0.1, 31338) != transmit(data, 0.1, 31337)


@given(st.binary(min_size=0, max_size=300), st.sampled_from([0.0, 0.01, 0.3, 0.5]))
def test_transmit_preserves_length(data, ber):
    assert len(transmit(data, ber, 5)) == len(data)


def test_trial_seeds_distinct():
    seeds = {trial_seed(42, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert trial_seed(42, 7) == trial_seed(42, 7)
    assert trial_seed(42, 7) != trial_seed(43, 7)


# entropy ints of every word count: 0 (one word), a 64-bit value whose high
# word is 0 (one word), 64 bits (two) and up to 130 bits (five)
_ENTROPY_INT = st.one_of(
    st.just(0), st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), st.integers(0, 2**130 - 1)
)
_ENTROPY = st.lists(_ENTROPY_INT, min_size=1, max_size=7).map(tuple)


@given(_ENTROPY, st.integers(1, 9))
@example((0,), 4)
@example((2**32 - 1, 71, 0, 5), 4)  # a 64-bit seed whose high word is 0, as trial_seed gives
@example((2**64 - 1, 71, 1, 3), 4)  # five words: the mixing rounds past the pool
@example((2**130 - 1, 0, 2**64 - 1, 2**32, 9, 0, 1), 1)  # 17 words
def test_seed_hash_is_numpys_seed_sequence(entropy, k):
    ss = np.random.SeedSequence(entropy)
    words = _words(*entropy)[None]
    assert np.array_equal(_seed_hash(words, k)[0], ss.generate_state(k, np.uint32))
    w = _seed_hash(words, 2 * k)[0].astype(np.uint64)
    assert np.array_equal(w[0::2] | w[1::2] << np.uint64(32), ss.generate_state(k, np.uint64))
    ours = _seeded(np.random.default_rng(1), _seed_hash(words, 8)[0].tolist())
    theirs = np.random.default_rng(ss)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(7), theirs.random(7))
    assert np.array_equal(ours.integers(0, 2**63, 3), theirs.integers(0, 2**63, 3))


def test_words_refuse_what_seed_sequence_refuses():
    for bad in (-1, 1.5):
        with pytest.raises((TypeError, ValueError)):
            np.random.SeedSequence(bad)
        with pytest.raises((TypeError, ValueError)):
            _words(bad)


@pytest.mark.parametrize("seed", [0, 42, 2**32 + 7, 2**64 - 1])
def test_trial_seeds_are_the_streams_of_each_trial(monkeypatch, seed):
    # 64-element blocks hash 4 trials at a time
    monkeypatch.setattr(image_io, "_BLOCK", 64)
    trials = 23
    one_hop, two_hops = _trial_seeds((seed, 71, 1), trials), _trial_seeds((seed,), trials, hops=2)
    for t in range(trials):
        ss = np.random.SeedSequence((seed, 71, 1, t))
        assert np.array_equal(one_hop[t], ss.generate_state(8))
        ss = np.random.SeedSequence(trial_seed(seed, t))
        assert np.array_equal(two_hops[t], ss.generate_state(8))
        ss = np.random.SeedSequence((seed, t))
        assert trial_seed(seed, t) == int(ss.generate_state(1, np.uint64)[0])


def test_experiment_zero_ber(rng):
    q = quantize(make_family(rng), 1 / 64)
    exp = ber_experiment(q, 0.0, 5, 17)
    assert exp.mean_d_pc == 0.0
    assert exp.std_d_pc == 0.0


def test_experiment_deterministic(rng):
    q = quantize(make_family(rng), 1 / 64)
    a = ber_experiment(q, 1e-3, 20, 555)
    b = ber_experiment(q, 1e-3, 20, 555)
    assert a.distortions == b.distortions
    assert a.mean_d_pc == b.mean_d_pc


def test_experiment_shape_factor(rng):
    q = quantize(make_family(rng), 1 / 64)
    exp = ber_experiment(q, 1e-3, 5, 9)
    assert exp.bits_per_cell == 7
    assert abs(exp.shape_lra - 7 * 1e-3 / 64) < 1e-18


def test_mean_grows_with_ber(rng):
    fam = make_family(rng)
    q = quantize(fam, 1 / 64)
    lo = ber_experiment(q, 1e-3, 100, 1001)
    hi = ber_experiment(q, 1e-2, 100, 1002)
    assert 0.0 < lo.mean_d_pc < hi.mean_d_pc


def test_corrupted_roundtrip_still_decodes(rng):
    fam = make_family(rng)
    q = quantize(fam, 1 / 64)
    noisy = transmit(pack(q), 0.05, 4)
    back = unpack(noisy, 1 / 64, 8, fam.deltas)
    assert int(back.indices.max()) < q.levels


def _trial_by_trial(q, ber, trials, master_seed):
    """The distortions as ber_experiment scored them before blocking: one
    transmit, unpack, dequantize and d_pc per trial."""
    reference = dequantize(q)
    payload = pack(q)
    out = []
    for t in range(trials):
        corrupted = transmit(payload, ber, trial_seed(master_seed, t))
        out.append(d_pc(reference, dequantize(unpack(corrupted, q.alpha, q.bins, q.deltas))).d_pc)
    return tuple(out)


def _pin_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _trials_per_block(q):
    """Trials in a full block: whole rows of about _BLOCK elements of the
    (trials, payload bits) flip plane, and at least one."""
    return max(1, _BLOCK // (8 * len(pack(q))))


def _recorded_planes(monkeypatch):
    """The corrupted bit plane of each block, in the order they are decoded, on
    one CPU: a forked child's blocks would be decoded out of sight."""
    from copsem import channel

    _pin_cpus(monkeypatch, 1)
    planes = []
    decode = channel._decode_bits

    def recording_decode(bits, alpha, n_cells):
        planes.append(bits.copy())
        return decode(bits, alpha, n_cells)

    monkeypatch.setattr(channel, "_decode_bits", recording_decode)
    return planes


@pytest.mark.parametrize("alpha", [1 / 64, 0.1])  # 0.1: 11 levels in 4 bits, so indices clamp
@pytest.mark.parametrize("ber", [0.0, 1e-3, 0.5])
def test_blocked_trials_match_trial_by_trial(rng, monkeypatch, alpha, ber):
    q = quantize(make_family(rng, conc=0.3), alpha)
    step = _trials_per_block(q)  # 36 trials of 1792 bits at 1/64, 64 of 1024 bits at 0.1
    trials = step + 6  # one full block and one short block
    planes = _recorded_planes(monkeypatch)
    exp = ber_experiment(q, ber, trials, 31)
    assert [len(p) for p in planes] == [step, 6]
    assert exp.distortions == _trial_by_trial(q, ber, trials, 31)
    assert len(exp.distortions) == trials


def test_ber_experiment_forks_its_blocks_to_the_same_values(rng, monkeypatch):
    # two blocks at two CPUs: the second is scored in one forked child
    q = quantize(make_family(rng, conc=0.3), 1 / 64)
    trials, forks, fork = _trials_per_block(q) + 6, [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    runs = {}
    for cpus in (1, 2):
        _pin_cpus(monkeypatch, cpus)
        runs[cpus] = ber_experiment(q, 1e-2, trials, 31)
    assert len(forks) == 1
    assert runs[1] == runs[2]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # the child was reaped


def test_payload_longer_than_a_block_goes_one_trial_a_block(rng, monkeypatch):
    # 64 bins: 4 * 4096 cells of 7 bits, a 114,688-bit payload, more than _BLOCK
    q = quantize(make_family(rng, bins=64, conc=0.3), 1 / 64)
    assert 8 * len(pack(q)) == 114_688 > _BLOCK
    planes = _recorded_planes(monkeypatch)
    exp = ber_experiment(q, 1e-2, 3, 31)
    assert [len(p) for p in planes] == [1, 1, 1]
    assert exp.distortions == _trial_by_trial(q, 1e-2, 3, 31)


@pytest.mark.parametrize("ber", [0.0, 1e-2, 0.5])
def test_flip_plane_rows_are_transmitted_streams(rng, monkeypatch, ber):
    # each row of a block's corrupted bit plane is the bits of one transmit call
    planes = _recorded_planes(monkeypatch)
    q = quantize(make_family(rng, conc=0.3), 0.1)  # 4 bits a cell
    payload = pack(q)
    step = _trials_per_block(q)
    trials, seed = step + 6, 77
    ber_experiment(q, ber, trials, seed)
    assert [len(p) for p in planes] == [step, 6]
    for t, row in enumerate(np.concatenate(planes)):
        sent = transmit(payload, ber, trial_seed(seed, t))
        assert np.array_equal(row, np.unpackbits(np.frombuffer(sent, dtype=np.uint8)))
