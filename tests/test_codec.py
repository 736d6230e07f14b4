import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copsem.codec import (
    QuantizedFamily,
    bits_per_cell,
    dequantize,
    entropy_bits,
    levels_for_alpha,
    pack,
    quantize,
    rd_point,
    rd_sweep,
    unpack,
)
from copsem import image_io
from copsem.bounds import enc_distortion_bound, rate_achievability
from copsem.metrics import SQRT_LN2, d_pc
from copsem.rank_copula import CopulaFamily, Displacement

from conftest import make_family

RIGHT = Displacement(1, 0)


def two_cell_family(cells):
    return CopulaFamily((RIGHT,), np.asarray([cells], dtype=float), (0,), stride=0)


@pytest.mark.parametrize(
    "alpha,levels,bits",
    [
        (1.0, 2, 1),
        (0.5, 3, 2),
        (0.25, 5, 3),
        (1 / 8, 9, 4),
        (1 / 64, 65, 7),
        (1 / 256, 257, 9),
    ],
)
def test_levels_table(alpha, levels, bits):
    assert levels_for_alpha(alpha) == levels
    assert bits_per_cell(alpha) == bits


def test_quantize_lattice_example():
    fam = two_cell_family([[0.5, 0.0], [0.0, 0.5]])
    q = quantize(fam, 0.25)
    assert q.indices[0].tolist() == [[2, 0], [0, 2]]
    back = dequantize(q)
    assert np.array_equal(back.cells[0], fam.cells[0])


def test_quantize_alpha_one():
    fam = two_cell_family([[0.5, 0.0], [0.0, 0.5]])
    q = quantize(fam, 1.0)
    assert q.bits == 1
    assert set(np.unique(q.indices[0])) <= {0, 1}


def test_quantize_alpha_range():
    fam = two_cell_family([[1.0, 0.0], [0.0, 0.0]])
    # below 2**-62 indices or bit shifts overflow int64: 1e-320 and 1e-300
    # used to end in an OverflowError or in wrapped indices
    for alpha in (0.0, 1.5, math.nan, 1e-320, 1e-300, 2.0**-63):
        with pytest.raises(ValueError):
            quantize(fam, alpha)
        with pytest.raises(ValueError):
            unpack(b"\x00", alpha, 1, (RIGHT,))
    q = quantize(fam, 2.0**-62)
    assert (q.levels, q.bits) == (2**62 + 1, 63)
    assert q.indices[0].tolist() == [[2**62, 0], [0, 0]]
    assert unpack(pack(q), 2.0**-62, 2, (RIGHT,)) == q


def test_uniform_fixed_point(rng):
    fam = make_family(rng, bins=4)
    n = len(fam.deltas)
    uniform = CopulaFamily(fam.deltas, np.full((n, 4, 4), 1 / 16), (0,) * n, stride=0)
    back = dequantize(quantize(uniform, 1 / 16))
    assert np.allclose(back.cells, 1 / 16, atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1 / 8, 1 / 64, 0.3, 0.4]))
def test_per_cell_error_below_half_step(seed, alpha):
    r = np.random.default_rng(seed)
    fam = make_family(r, bins=4, n_deltas=2)
    q = quantize(fam, alpha)
    assert np.abs(q.indices * alpha - fam.cells).max() <= alpha / 2 + 1e-12


def test_zero_sum_decodes_to_uniform():
    # all cells quantize to index 0, decode substitutes the uniform copula
    cells = np.full((8, 8), 1.0 / 64)
    fam = CopulaFamily((RIGHT,), cells[None], (0,), stride=0)
    q = quantize(fam, 1 / 8)
    assert int(q.indices[0].max()) == 0
    back = dequantize(q)
    assert np.allclose(back.cells[0], 1.0 / 64)


def test_pack_layout_single_byte():
    # indices 2,0,0,2 at two bits each, first index in the high bits:
    # 10 00 00 10 -> 0x82
    q = QuantizedFamily(
        alpha=1 / 3,
        bins=2,
        deltas=(RIGHT,),
        indices=(np.array([[2, 0], [0, 2]]),),
    )
    assert pack(q) == b"\x82"


def test_pack_pads_at_stream_end():
    q = QuantizedFamily(
        alpha=1 / 3,
        bins=2,
        deltas=(RIGHT, Displacement(0, 1)),
        indices=(np.array([[2, 0], [0, 2]]), np.array([[1, 1], [1, 1]])),
    )
    data = pack(q)
    # 8 indices x 2 bits = 16 bits exactly, no padding byte
    assert len(data) == 2
    assert unpack(data, 1 / 3, 2, q.deltas) == q


@given(st.integers(0, 2**32 - 1), st.sampled_from([1 / 8, 1 / 32, 1 / 64, 0.3]))
def test_pack_unpack_roundtrip(seed, alpha):
    r = np.random.default_rng(seed)
    fam = make_family(r, bins=8, n_deltas=3)
    q = quantize(fam, alpha)
    assert unpack(pack(q), alpha, 8, fam.deltas) == q


def test_unpack_truncated():
    q = quantize(two_cell_family([[0.5, 0.0], [0.0, 0.5]]), 1 / 64)
    data = pack(q)
    with pytest.raises(ValueError):
        unpack(data[:-1], 1 / 64, 2, (RIGHT,))
    with pytest.raises(ValueError):
        unpack(data + b"\x00", 1 / 64, 2, (RIGHT,))
    with pytest.raises(ValueError):
        unpack(b"", 1 / 64, 2, ())


@given(st.data())
def test_unpack_arbitrary_bytes_parses_or_raises_value_error(data):
    alpha = data.draw(st.sampled_from([1.0, 0.4, 1 / 3, 1 / 64, 2.0**-62]))
    bins = data.draw(st.integers(1, 4))
    deltas = (RIGHT, Displacement(0, 1))[: data.draw(st.integers(1, 2))]
    size = (len(deltas) * bins * bins * bits_per_cell(alpha) + 7) // 8
    blob = data.draw(st.binary(min_size=size, max_size=size))
    try:
        q = unpack(blob, alpha, bins, deltas)
    except ValueError:
        return
    assert isinstance(q, QuantizedFamily)
    assert q.indices.shape == (len(deltas), bins, bins)
    assert 0 <= q.indices.min() and q.indices.max() < q.levels
    assert unpack(pack(q), alpha, bins, deltas) == q


def test_repeated_displacement_rejected():
    # both used to build a quantized family that counts one copula twice
    with pytest.raises(ValueError, match="^displacements must be distinct$"):
        QuantizedFamily(1 / 4, 2, (RIGHT, RIGHT), np.zeros((2, 2, 2), np.int64))
    with pytest.raises(ValueError, match="^displacements must be distinct$"):
        unpack(bytes(3), 1 / 4, 2, (RIGHT, RIGHT))  # 2 x 4 cells x 3 bits


def test_whole_float_bins_act_as_ints(rng):
    q = quantize(make_family(rng, bins=8, n_deltas=2), 1 / 16)
    back = unpack(pack(q), q.alpha, 8.0, q.deltas)
    assert back == q and type(back.bins) is int
    assert type(QuantizedFamily(q.alpha, 8.0, q.deltas, q.indices).bins) is int


@pytest.mark.parametrize("bins", [8.5, 0, -8, math.nan])
def test_bins_outside_the_range_rule_raise(rng, bins):
    q = quantize(make_family(rng, bins=8, n_deltas=2), 1 / 16)
    with pytest.raises(ValueError, match="^bins must be"):
        unpack(pack(q), q.alpha, bins, q.deltas)
    with pytest.raises(ValueError, match="^bins must be"):
        QuantizedFamily(q.alpha, bins, q.deltas, q.indices)


def test_unpack_clamps_corrupt_indices():
    # levels = 3 at alpha = 0.4, but two bits can encode 3; a corrupted
    # stream with bit pattern 11 must clamp to the top valid level
    data = bytes([0b11000000])
    q = unpack(data, 0.4, 1, (RIGHT,))
    assert q.indices[0].tolist() == [[2]]


def test_rate_anchor_values(rng):
    fam = make_family(rng, bins=8, n_deltas=4)
    pt = rd_point(fam, 1 / 64)
    assert pt.rate_theory_bits == 4 * 63 * 6
    assert pt.rate_theory_bits == 1512
    pt1 = rd_point(fam, 1.0)
    assert pt1.rate_theory_bits == 0.0
    assert pt1.distortion <= SQRT_LN2 + 1e-12


def test_entropy_envelope(rng):
    for _ in range(20):
        fam = make_family(rng, bins=8, n_deltas=4)
        pt = rd_point(fam, 1 / 32)
        assert pt.rate_empirical_bits <= pt.rate_theory_bits + 4 * 64
        assert pt.rate_empirical_bits >= 0.0


def test_entropy_bits_known():
    assert entropy_bits(np.array([0, 0, 1, 1])) == 1.0
    assert entropy_bits(np.array([3, 3, 3])) == 0.0


def test_enc_bound_anchor(rng):
    # each operating point carries the encoder distortion bound for its step
    bound = rd_point(make_family(rng, bins=8), 1 / 64).bound
    assert abs(bound - 0.2081386527894244) < 1e-15
    assert abs(bound - (math.sqrt(math.log(2)) / 4) * 64 / 64) < 1e-15


def test_sweep_order_and_bounds(rng):
    fam = make_family(rng, bins=8)
    alphas = (1 / 64, 1 / 8, 1 / 16)
    pts = rd_sweep(fam, alphas)
    assert [p.alpha for p in pts] == sorted(alphas, reverse=True)
    for p in pts:
        assert p.distortion <= 2.0 * p.bound + 1e-12
    with pytest.raises(ValueError, match=r"^alpha 0\.125 repeated in the sweep$"):
        rd_sweep(fam, (1 / 8, 1 / 16, 1 / 8))
    with pytest.raises(ValueError, match="^empty alpha sweep$"):
        rd_sweep(fam, ())


def test_sweep_endpoint_trend(rng):
    # the coarsest step never beats the finest one, even for the
    # families whose interior points resonate (see below)
    for _ in range(30):
        fam = make_family(rng, bins=8, conc=float(rng.choice([0.05, 0.3, 1.0, 5.0])))
        pts = rd_sweep(fam, (1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 128, 1 / 256))
        assert pts[-1].distortion <= pts[0].distortion + 1e-12
        for p in pts:
            assert p.distortion <= 2.0 * p.bound + 1e-12


def test_sweep_interior_resonance_is_real():
    """Distortion along the sweep is not pointwise monotone for every
    family, and that is a fact of round-to-nearest, not a bug.

    Cells sitting at half-lattice points of a step carry the maximal
    per-cell rounding error. This family puts every cell at 1/64, which
    is exactly half of 1/32: the checkerboard jitter rounds half the
    cells up and half down to zero, the decoded support halves, and the
    distortion at alpha=1/32 dwarfs its neighbors on both sides.
    """
    sign = (np.indices((8, 8)).sum(axis=0) % 2) * 2 - 1
    cells = np.full((8, 8), 1.0 / 64) * (1.0 + 0.02 * sign)
    cells /= cells.sum()
    fam = CopulaFamily((RIGHT,), cells[None], (0,), stride=0)
    pts = rd_sweep(fam, (1 / 16, 1 / 32, 1 / 64))
    d16, d32, d64 = (p.distortion for p in pts)
    assert d32 > 10.0 * d16
    assert d32 > 10.0 * d64
    assert d32 <= 2.0 * pts[1].bound


def test_decoded_family_distortion_matches_metric(rng):
    fam = make_family(rng, bins=8)
    pt = rd_point(fam, 1 / 32)
    direct = d_pc(fam, dequantize(quantize(fam, 1 / 32))).d_pc
    assert pt.distortion == direct


def _rd_point_per_alpha(family, alpha):
    """The sweep point as computed one alpha at a time: quantize, dequantize,
    one np.unique entropy per index grid summed by Python's sum, one d_pc."""
    q = quantize(family, alpha)
    b2 = family.bins * family.bins
    rate_emp = 0
    for grid in q.indices:
        _, counts = np.unique(grid.ravel(), return_counts=True)
        p = counts / counts.sum()
        rate_emp += b2 * float(-(p * np.log2(p)).sum())
    return (
        alpha,
        rate_achievability(len(family.deltas), family.bins, alpha),
        rate_emp,
        d_pc(family, dequantize(q)).d_pc,
        enc_distortion_bound(family.bins, alpha),
    )


# 1.0 quantizes every cell to 0 or 1, 2**-40 keeps more than 2**40 levels
SWEEP_ALPHAS = (1.0, 0.5, 1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 256, 2.0**-40)


@pytest.mark.parametrize("bins", [2, 8, 16])
@pytest.mark.parametrize("conc", [0.05, 0.3, 1.0])
def test_rd_sweep_is_the_per_alpha_points(rng, bins, conc):
    # every float to the last bit and the sign of a zero: repr tells -0.0 from 0.0.
    # Ten families each, as about one grid in five sums its entropy terms to other
    # last bits when the zeros between runs are summed too
    for _ in range(10):
        fam = make_family(rng, bins=bins, conc=conc)
        pts = rd_sweep(fam, SWEEP_ALPHAS)
        want = [_rd_point_per_alpha(fam, a) for a in sorted(SWEEP_ALPHAS, reverse=True)]
        assert [list(map(repr, astuple(p))) for p in pts] == [list(map(repr, w)) for w in want]
        for a, p in zip(sorted(SWEEP_ALPHAS, reverse=True), pts):
            assert rd_point(fam, a) == p


def test_rd_sweep_of_a_grid_that_decodes_to_uniform():
    # every cell of 1/16 rounds to 0 at alpha = 1 and 0.5: an all-zero grid, the
    # uniform decode, distortion 0 and an entropy of one run (0.0, not -0.0)
    fam = CopulaFamily((RIGHT, Displacement(0, 1)), np.full((2, 4, 4), 1 / 16), (0, 0), stride=0)
    pts = rd_sweep(fam, (1.0, 0.5, 1 / 32))
    want = [_rd_point_per_alpha(fam, a) for a in (1.0, 0.5, 1 / 32)]
    assert [list(map(repr, astuple(p))) for p in pts] == [list(map(repr, w)) for w in want]
    assert [(p.rate_empirical_bits, p.distortion) for p in pts[:2]] == [(0.0, 0.0)] * 2
    assert math.copysign(1.0, pts[0].rate_empirical_bits) == 1.0


def test_rd_sweep_in_alpha_blocks_is_the_per_alpha_points(rng, monkeypatch):
    # 768 cells a block: three alphas of 4 x 8 x 8 at a time, the last block of two
    monkeypatch.setattr(image_io, "_BLOCK", 3 * 4 * 64)
    fam = make_family(rng, bins=8, conc=0.3)
    want = [_rd_point_per_alpha(fam, a) for a in sorted(SWEEP_ALPHAS, reverse=True)]
    assert [astuple(p) for p in rd_sweep(fam, SWEEP_ALPHAS)] == want


def test_rd_sweep_holds_one_alpha_working_set_at_256_bins(rng):
    # 4 x 256 x 256 cells are above _BLOCK, so eight alphas are swept one at a
    # time and peak about as high as one alpha
    fam = make_family(rng, bins=256, conc=0.3)

    def peak(alphas):
        rd_sweep(fam, alphas)
        tracemalloc.start()
        try:
            rd_sweep(fam, alphas)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, eight = peak(SWEEP_ALPHAS[:1]), peak(SWEEP_ALPHAS)
    assert eight < 1.5 * one, (one, eight)
