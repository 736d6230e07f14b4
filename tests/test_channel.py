import numpy as np
import pytest
from hypothesis import given, strategies as st

from copsem.channel import (
    TRIAL_BLOCK,
    ber_experiment,
    transmit,
    trial_seed,
)
from copsem.codec import dequantize, pack, quantize, unpack
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


@pytest.mark.parametrize("alpha", [1 / 64, 0.1])  # 0.1: 11 levels in 4 bits, so indices clamp
@pytest.mark.parametrize("ber", [0.0, 1e-3, 0.5])
def test_blocked_trials_match_trial_by_trial(rng, alpha, ber):
    q = quantize(make_family(rng, conc=0.3), alpha)
    trials = TRIAL_BLOCK + 6  # one full block and one partial block
    exp = ber_experiment(q, ber, trials, 31)
    assert exp.distortions == _trial_by_trial(q, ber, trials, 31)
    assert len(exp.distortions) == trials


@pytest.mark.parametrize("ber", [0.0, 1e-2, 0.5])
def test_flip_plane_rows_are_transmitted_streams(rng, monkeypatch, ber):
    # each row of a block's corrupted bit plane is the bits of one transmit call
    from copsem import channel

    planes = []
    decode = channel._decode_bits

    def recording_decode(bits, alpha, n_cells):
        planes.append(bits.copy())
        return decode(bits, alpha, n_cells)

    monkeypatch.setattr(channel, "_decode_bits", recording_decode)
    q = quantize(make_family(rng, conc=0.3), 0.1)  # 4 bits a cell
    payload = pack(q)
    trials, seed = TRIAL_BLOCK + 6, 77
    ber_experiment(q, ber, trials, seed)
    assert [len(p) for p in planes] == [TRIAL_BLOCK, 6]
    for t, row in enumerate(np.concatenate(planes)):
        sent = transmit(payload, ber, trial_seed(seed, t))
        assert np.array_equal(row, np.unpackbits(np.frombuffer(sent, dtype=np.uint8)))
