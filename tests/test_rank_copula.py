import json
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from copsem import image_io, rank_copula
from copsem.image_io import _BLOCK, REAL, GrayImage, _row_blocks, synth_gradient, synth_noise
from copsem.rank_copula import (
    DEFAULT_DELTAS,
    CopulaFamily,
    Displacement,
    EmptySampleError,
    EmpiricalCopula,
    RankField,
    _extract_families,
    coarsen,
    extract_family,
    non_overlapping_stride,
    rank_transform,
)

RIGHT = Displacement(1, 0)
DOWN = Displacement(0, 1)


def as_image(values) -> GrayImage:
    px = np.asarray(values, dtype=np.uint8)
    return GrayImage(px.shape[1], px.shape[0], px)


def test_rank_midrank_values():
    img = GrayImage(4, 1, np.array([[5.0, 7.0, 7.0, 9.0]]), domain=REAL)
    field = rank_transform(img)
    assert field.u.tolist() == [[0.2, 0.5, 0.5, 0.8]]


def test_rank_constant_image():
    field = rank_transform(as_image(np.full((3, 3), 42)))
    assert np.all(field.u == 0.5)


def test_rank_open_interval(rng):
    field = rank_transform(as_image(rng.integers(0, 256, (13, 9))))
    assert np.all(field.u > 0.0) and np.all(field.u < 1.0)


def test_rank_field_copies_its_array():
    values = np.full((2, 3), 0.5)
    field = RankField(3, 2, values)
    values[0, 0] = 0.9
    assert field.u[0, 0] == 0.5


# (300, 300) and (3, 70000) cross blocks of the value count: a ragged last
# block, and one row per block
@pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 48), (200, 3), (300, 300), (3, 70000)])
def test_rank_matches_scipy_average_ranks(rng, shape):
    heavy_ties = rng.integers(100, 104, shape)  # four codes, so nearly every pixel is tied
    full_range = rng.integers(0, 256, shape)
    real = np.round(rng.normal(0.0, 1.0, shape), 1)  # REAL domain with ties
    for img in (
        as_image(heavy_ties),
        as_image(full_range),
        GrayImage(shape[1], shape[0], real, domain=REAL),
        GrayImage(shape[1], shape[0], rng.normal(0.0, 1.0, shape), domain=REAL),
    ):
        want = rankdata(img.pixels.ravel(), method="average") / (img.pixels.size + 1)
        got = rank_transform(img).u
        assert np.array_equal(got, want.reshape(shape)), img.domain


def _gather_counts(u, delta, bins, stride):
    """Reference estimate: np.ix_ gathers of the stride lattice of anchors."""
    h, w = u.shape
    ys, xs = (
        np.array([p for p in range(0, n, stride) if 0 <= p + d < n])
        for n, d in ((h, delta.dy), (w, delta.dx))
    )
    a = u[np.ix_(ys, xs)].ravel()
    b = u[np.ix_(ys + delta.dy, xs + delta.dx)].ravel()
    i = np.minimum((a * bins).astype(np.int64), bins - 1)
    j = np.minimum((b * bins).astype(np.int64), bins - 1)
    return np.bincount(i * bins + j, minlength=bins * bins).reshape(bins, bins), a.size


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("bins", [2, 5, 8])
def test_copula_matches_gather_reference(stride, bins):
    img = synth_noise(23, 17, 11)
    field = rank_transform(img)
    for delta in (RIGHT, DOWN, (1, 1), (1, -1), (-2, 3), (0, -4), (5, -1)):
        delta = Displacement(*delta)
        counts, n_pairs = _gather_counts(field.u, delta, bins, stride)
        fam = extract_family(img, [delta], bins, stride)
        assert fam.n_pairs == (n_pairs,), delta
        assert np.array_equal(fam.cells[0], counts / n_pairs), delta


# one row; rows wider than a block, one a block; a ragged last block;
# four blocks that divide the rows evenly; blocks of 7281 nine-pixel rows
@pytest.mark.parametrize(
    "rows, cols", [(1, 1), (1, 70000), (5, 70000), (300, 300), (37, 2400), (512, 512), (9001, 9)]
)
def test_row_blocks_cover_rows_once_in_order(rows, cols):
    step = max(1, _BLOCK // cols)
    held = [range(rows)[s] for s in _row_blocks(rows, cols)]
    assert [r for block in held for r in block] == list(range(rows))
    assert all(len(block) == step for block in held[:-1])
    assert 0 < len(held[-1]) <= step


# 300 x 300 has a ragged last block of rows; 70000 columns make one row a
# block, and 7 rows leave anchors for (0, -4) at stride 3
@pytest.mark.parametrize("shape", [(300, 300), (7, 70000)])
@pytest.mark.parametrize("bins", [8, 17])
@pytest.mark.parametrize("stride", [1, 2, 3])
def test_blocked_counts_match_gather_reference(shape, bins, stride):
    h, w = shape
    assert h * w > _BLOCK
    deltas = [Displacement(*d) for d in ((1, 0), (0, 1), (3, -2), (0, -4), (-1, 5))]
    _check_against_gather(synth_noise(w, h, 13), deltas, bins, stride)


def _check_against_gather(u8, deltas, bins, stride):
    """extract_family of u8 and of a REAL image in the same order equals the
    gather reference."""
    real = GrayImage(u8.width, u8.height, u8.pixels * 0.37 - 1.5, domain=REAL)
    for img in (u8, real):
        fam = extract_family(img, deltas, bins, stride)
        field = rank_transform(img)
        for d, cells, n_pairs in zip(deltas, fam.cells, fam.n_pairs):
            counts, want_pairs = _gather_counts(field.u, d, bins, stride)
            assert n_pairs == want_pairs, d
            assert np.array_equal(cells, counts / n_pairs), d


def _group_size(bins, anchors):
    """Displacements per joint count: the largest g with bins * (bins + 1)^g
    at most max(bins * (bins + 1), min(_BLOCK, anchors // 8))."""
    cap = max(bins * (bins + 1), min(_BLOCK, anchors // 8))
    return max(g for g in range(1, 64) if bins * (bins + 1) ** g <= cap)


ROW = [Displacement(*d) for d in ((1, 0), (3, 0), (-2, 0), (-1, 0), (2, 0), (5, 0))]
COLUMN = [Displacement(dy, dx) for dx, dy in ROW]
SIX = [Displacement(*d) for d in ((1, 0), (0, 1), (1, 1), (1, -1), (-3, 2), (0, -3))]


# (shape, bins, deltas, g at stride 1). bins 64 and up count one displacement
# at a time, and 256 and 300 need uint32 joint codes; five and six
# displacements at bins 8 split into groups; 1 x N and N x 1 images pad on
# one axis only; on a 12 x 12 or 96 x 96 image the anchor count caps g
GROUPED_CASES = [
    ((60, 50), 2, SIX, 4),
    ((300, 300), 16, SIX[:5], 2),
    ((60, 50), 64, SIX, 1),
    ((60, 50), 256, SIX[:4], 1),
    ((60, 50), 300, SIX[:4], 1),
    ((7, 70000), 8, SIX[:5], 4),
    ((7, 70000), 8, SIX, 4),
    ((1, 40000), 8, ROW, 2),
    ((40000, 1), 5, COLUMN, 3),
    ((12, 12), 8, SIX, 1),
    ((96, 96), 8, SIX[:5], 2),
]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize(
    "shape, bins, deltas, g",
    GROUPED_CASES,
    ids=[f"{c[0]}-b{c[1]}-d{len(c[2])}" for c in GROUPED_CASES],
)
def test_grouped_counts_match_gather_reference(shape, bins, deltas, g, stride):
    h, w = shape
    assert _group_size(bins, h * w) == g
    _check_against_gather(synth_noise(w, h, 29), deltas, bins, stride)


def _tied_image(shape, real, levels, seed):
    px = np.random.default_rng(seed).integers(0, levels, shape)
    return GrayImage(shape[1], shape[0], px * 0.37 - 1.5, domain=REAL) if real else as_image(px)


@given(
    shape=st.tuples(st.integers(1, 16), st.integers(1, 16)),
    real=st.booleans(),
    levels=st.sampled_from([1, 2, 3, 5, 256]),  # few levels, so most pixels are tied
    seed=st.integers(0, 2**32 - 1),
    deltas=st.lists(
        st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (-2, 3), (5, -1), (0, -4)]),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    bins=st.integers(2, 16) | st.integers(17, 20),  # uint8 bin codes, then uint16
    stride=st.integers(1, 3),
)
@settings(max_examples=150)
def test_family_equals_stacked_copulas(shape, real, levels, seed, deltas, bins, stride):
    img = _tied_image(shape, real, levels, seed)
    deltas = [Displacement(*d) for d in deltas]
    try:
        singles = [extract_family(img, [d], bins, stride) for d in deltas]
    except EmptySampleError as exc:
        with pytest.raises(EmptySampleError, match=re.escape(str(exc))):
            extract_family(img, deltas, bins, stride)
        return
    fam = extract_family(img, deltas, bins, stride)
    assert np.array_equal(fam.cells, [one.cells[0] for one in singles])
    assert fam.n_pairs == tuple(one.n_pairs[0] for one in singles)
    u = rank_transform(img).u
    for d, cells, n_pairs in zip(deltas, fam.cells, fam.n_pairs):
        counts, want_pairs = _gather_counts(u, d, bins, stride)
        assert n_pairs == want_pairs, d
        assert np.array_equal(cells, counts / n_pairs), d


@pytest.mark.parametrize(
    "bins, stride, deltas, error, message",
    [
        (1, 0, [(0, 0), (9, 0)], ValueError, "bins must be in [2, inf), got 1"),
        (-1, 1, [(1, 0)], ValueError, "bins must be in [2, inf), got -1"),
        (17, 0, [(0, 0), (9, 0)], ValueError, "stride must be in [1, inf), got 0"),
        (17, 1, [(1, 0), (0, 0), (9, 0)], ValueError, "displacement (0, 0) is degenerate"),
        (
            2,
            2,
            [(1, 0), (0, 9), (0, 0)],
            EmptySampleError,
            "no valid anchors for delta=(0, 9) stride=2 on a 4x3 field",
        ),
    ],
)
@pytest.mark.parametrize("real", [False, True])
def test_family_errors_keep_their_order(real, bins, stride, deltas, error, message):
    img = _tied_image((3, 4), real, 3, 0)
    deltas = [Displacement(*d) for d in deltas]
    with pytest.raises(ValueError) as info:
        extract_family(img, deltas, bins, stride)
    assert (type(info.value), str(info.value)) == (error, message)


def test_copula_two_by_two():
    fam = extract_family(as_image([[1, 2], [3, 4]]), deltas=(RIGHT,), bins=2)
    assert fam.cells[0].tolist() == [[0.5, 0.0], [0.0, 0.5]]
    assert fam.n_pairs[0] == 2


def test_copula_empty_sample():
    img = as_image([[1], [2], [3]])
    for delta, stride in ((RIGHT, 1), ((0, 5), 1), ((0, -5), 1), ((0, -1), 5)):
        with pytest.raises(EmptySampleError):
            extract_family(img, [delta], bins=2, stride=stride)


def test_copula_iid_uniform_cells():
    img = synth_noise(1024, 1024, 314)
    cells = extract_family(img, deltas=(RIGHT,), bins=4).cells[0]
    assert np.abs(cells - 1.0 / 16).max() < 0.005


def test_constant_image_point_mass():
    fam = extract_family(as_image(np.full((5, 5), 9)), deltas=(RIGHT,), bins=8)
    cells = fam.cells[0]
    # every pair lands in the middle bin: u = 0.5 -> bin 4
    assert cells[4, 4] == 1.0
    assert cells.sum() == 1.0


MONOTONE_MAPS = (
    lambda x: 3.0 * x + 11.0,
    lambda x: (x / 255.0) ** 0.5,
    lambda x: (x / 255.0) ** 3,
    lambda x: np.exp(x / 64.0),
)


@given(seed=st.integers(0, 2**32 - 1), map_idx=st.integers(0, 3))
def test_monotone_invariance(seed, map_idx):
    img = synth_noise(24, 18, seed)
    remap = GrayImage(
        24, 18, MONOTONE_MAPS[map_idx](img.pixels.astype(float)), domain=REAL
    )
    fa = extract_family(img, bins=8)
    fb = extract_family(remap, bins=8)
    assert np.array_equal(fa.cells, fb.cells)


def test_marginal_uniformity_all_distinct(rng):
    perm = rng.permutation(256).astype(np.uint8).reshape(16, 16)
    fam = extract_family(GrayImage(16, 16, perm), bins=8)
    for cells, n_pairs in zip(fam.cells, fam.n_pairs):
        bound = 8.0 / n_pairs + 8.0 / 256.0
        for axis in (0, 1):
            marg = cells.sum(axis=axis)
            assert np.abs(marg - 1.0 / 8).max() <= 2.0 * bound


def test_translation_consistency():
    big = synth_noise(512, 256, 424242)
    left = GrayImage(256, 256, big.pixels[:, :256].copy())
    right = GrayImage(256, 256, big.pixels[:, 256:].copy())
    fl = extract_family(left)
    fr = extract_family(right)
    for a, b in zip(fl.cells, fr.cells):
        assert np.abs(a - b).sum() < 0.05


def test_non_overlapping_stride():
    assert non_overlapping_stride(DEFAULT_DELTAS) == 3
    assert non_overlapping_stride((Displacement(2, 0),)) == 5
    # an empty set used to fail inside max(); a repeated one was accepted
    with pytest.raises(ValueError, match="^a family needs at least one displacement$"):
        non_overlapping_stride([])
    with pytest.raises(ValueError, match="^displacements must be distinct$"):
        non_overlapping_stride([RIGHT, RIGHT])


def test_repeated_displacement_refused_before_any_pixel_is_binned(monkeypatch):
    from copsem import rank_copula

    ranked = []
    monkeypatch.setattr(rank_copula, "_midranks", lambda img: ranked.append(img))
    for deltas, message in [
        ([RIGHT, RIGHT], "displacements must be distinct"),
        ([], "a family needs at least one displacement"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            extract_family(synth_noise(16, 16, 3), deltas, bins=4)
    assert ranked == []


def test_strided_extraction_counts():
    img = synth_noise(32, 32, 4)
    dense = extract_family(img, deltas=(RIGHT,), bins=4, stride=1)
    sparse = extract_family(img, deltas=(RIGHT,), bins=4, stride=3)
    assert dense.n_pairs[0] == 32 * 31
    assert sparse.n_pairs[0] == 11 * 11
    assert sparse.stride == 3


def test_family_validation():
    img = synth_noise(8, 8, 0)
    with pytest.raises(ValueError):
        extract_family(img, deltas=(RIGHT, RIGHT), bins=4)
    with pytest.raises(ValueError):
        extract_family(img, deltas=(), bins=4)
    uniform = np.full((2, 2, 2), 0.25)
    nan = uniform.copy()
    nan[1, 0, 0] = np.nan
    bad_cells = [
        nan,  # NaN slips past "min < 0" and "|sum - 1| > tol" alike
        np.array([[[0.5, -0.25], [0.5, 0.25]]] * 2),
        uniform * 1.01,
        uniform[:1],
        np.full((2, 2, 3), 1 / 6),
    ]
    for cells in bad_cells:
        with pytest.raises(ValueError):
            CopulaFamily((RIGHT, DOWN), cells, (0, 0), stride=0)
    with pytest.raises(ValueError):
        CopulaFamily((RIGHT, DOWN), uniform, (0,), stride=0)
    doc = CopulaFamily((RIGHT, DOWN), uniform, (0, 0), stride=0).to_json()
    bad_docs = [doc.replace("0.25", token, 1) for token in ("NaN", "Infinity", "-Infinity")]
    bad_docs += ["[1]", doc.replace('"n_pairs"', '"pairs"'), doc.replace('"stride":0', '"stride":null')]
    # each of these three used to end in an OverflowError or a RecursionError
    bad_docs += [doc.replace("0.25", "1" + "0" * 400, 1), '{"version": 1, "bins": 1e999}', "[" * 10**5]
    # each of these eight used to be coerced into a family
    fields = json.loads(doc)
    for key, value in (
        ("deltas", ["10", [0, 1]]),
        ("n_pairs", [1.5, 0]),
        ("n_pairs", "10"),
        ("n_pairs", [True, 0]),
        ("stride", 1.9),
        ("stride", True),
        ("bins", 2.7),
        ("bins", "2"),
    ):
        bad_docs.append(json.dumps({**fields, key: value}))
    for text in bad_docs:
        with pytest.raises(ValueError):
            CopulaFamily.from_json(text)


def test_coarsen_blocks():
    img = synth_noise(64, 64, 12)
    fam = extract_family(img, (RIGHT, DOWN), bins=8, stride=2)
    half = coarsen(fam, 2)
    assert half.bins == 4
    assert (half.deltas, half.n_pairs, half.stride) == (fam.deltas, fam.n_pairs, fam.stride)
    assert np.all(np.abs(half.cells.sum(axis=(1, 2)) - 1.0) < 1e-12)
    assert np.all(np.abs(half.cells[:, 0, 0] - fam.cells[:, :2, :2].sum(axis=(1, 2))) < 1e-15)
    single = coarsen(coarsen(half, 2), 2)
    assert single.bins == 1 and np.all(np.abs(single.cells - 1.0) < 1e-12)


def test_coarsen_bad_factor():
    fam = CopulaFamily((RIGHT,), np.full((1, 8, 8), 1.0 / 64), (0,), stride=0)
    with pytest.raises(ValueError):
        coarsen(fam, 3)
    with pytest.raises(ValueError):
        coarsen(fam, 1)


_IMG = synth_noise(6, 5, 3)
_UNIFORM = np.full((2, 2), 0.25)
_UNIFORM_FAMILY = CopulaFamily((RIGHT,), _UNIFORM[None], (0,), 0)

# (build from the value, name, accepted interval, an out-of-range finite value)
SCALAR_RANGES = [
    (lambda v: extract_family(_IMG, (RIGHT,), v), "bins", "[2, inf)", 1),
    (lambda v: CopulaFamily((RIGHT,), _UNIFORM[None], (v,), 1), "n_pairs", "[0, inf)", -1),
    (lambda v: extract_family(_IMG, (RIGHT,), 2, v), "stride", "[1, inf)", 0),
    (lambda v: CopulaFamily((RIGHT,), _UNIFORM[None], (0,), v), "stride", "[0, inf)", -1),
    (lambda v: coarsen(_UNIFORM_FAMILY, v), "factor", "[2, inf)", 1),
]


SCALAR_RANGE_IDS = [
    "extract_family-bins",
    "CopulaFamily-n_pairs",
    "extract_family-stride",
    "CopulaFamily-stride",
    "coarsen-factor",
]


@pytest.mark.parametrize("build, name, interval, outside", SCALAR_RANGES, ids=SCALAR_RANGE_IDS)
def test_scalar_parameters_outside_their_range_raise(build, name, interval, outside):
    for bad in (math.nan, math.inf, -math.inf, outside):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be in {interval}, got {bad!r}"


@pytest.mark.parametrize(
    "build, name, interval", [case[:3] for case in SCALAR_RANGES], ids=SCALAR_RANGE_IDS
)
def test_integer_parameters_reject_fractions(build, name, interval):
    fraction = int(interval[1]) + 0.5  # inside the interval, so only the integer check fails
    for bad in (fraction, np.float64(fraction)):
        with pytest.raises(ValueError) as info:
            build(bad)
        assert str(info.value) == f"{name} must be an integer, got {bad!r}"


SIZE_BUILDS = [case[0] for case in SCALAR_RANGES] + [
    lambda v: GrayImage(v, 2, np.zeros((2, 2), np.uint8)),
    lambda v: GrayImage(2, v, np.zeros((2, 2), np.uint8)),
]


@pytest.mark.parametrize(
    "build", SIZE_BUILDS, ids=SCALAR_RANGE_IDS + ["GrayImage-width", "GrayImage-height"]
)
def test_whole_float_sizes_act_as_ints(build):
    want = build(2)
    for whole in (2.0, np.float64(2.0)):
        got = build(whole)
        assert got == want
        assert repr(got) == repr(want)  # the size is stored as the int 2, not as 2.0


def test_serialization_roundtrip():
    fam = extract_family(synth_noise(40, 30, 77), bins=8, stride=2)
    doc = fam.to_json()
    back = CopulaFamily.from_json(doc)
    assert back.deltas == fam.deltas
    assert back.stride == fam.stride
    assert np.array_equal(back.cells, fam.cells)
    assert back.n_pairs == fam.n_pairs
    payload = json.loads(doc)
    assert payload["version"] == 1
    assert len(payload["cells"][0]) == 64


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner),
    max_leaves=16,
)
FAMILY_KEYS = ("bins", "deltas", "cells", "n_pairs", "stride")


@given(
    st.text()
    | JSON_VALUES.map(json.dumps)
    | st.fixed_dictionaries(
        {"version": st.sampled_from([1, 1.0, "1"])},
        optional={k: JSON_VALUES for k in FAMILY_KEYS},
    ).map(json.dumps)
)
def test_from_json_parses_or_raises_value_error(text):
    try:
        fam = CopulaFamily.from_json(text)
    except ValueError:
        return
    assert isinstance(fam, CopulaFamily)
    assert np.isfinite(fam.cells).all()


def test_serial_matches_threaded():
    img = synth_noise(50, 50, 3)
    serial = [extract_family(img, [d], 8) for d in DEFAULT_DELTAS]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda d: extract_family(img, [d], 8), DEFAULT_DELTAS))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.cells, b.cells)


def test_gradient_family_smoke():
    fam = extract_family(synth_gradient(16, 16))
    assert fam.cells.shape[0] == 4
    for cells in fam.cells:
        assert abs(cells.sum() - 1.0) < 1e-12


# (shape, bins, deltas): at 40 bins a joint code holds one displacement (g = 1),
# at 300 the stack's codes need uint32, and a 300 x 300 image takes several row
# blocks of its own
STACK_CASES = [
    ((40, 37), 8, DEFAULT_DELTAS),
    ((40, 37), 40, [(3, -2), (1, 0), (0, 1)]),
    ((30, 33), 300, [(3, -2), (1, 1)]),
    ((300, 300), 8, [(3, -2), (1, 0)]),
]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize(
    "shape, bins, deltas", STACK_CASES, ids=[f"{c[0]}-b{c[1]}" for c in STACK_CASES]
)
def test_stacked_families_are_per_image_families(monkeypatch, shape, bins, deltas, stride):
    h, w = shape
    u8 = synth_noise(w, h, 31)
    images = [u8, GrayImage(w, h, u8.pixels * 0.37 - 1.5, domain=REAL)]
    images += [_tied_image(shape, False, 3, 1), _tied_image(shape, True, 5, 2)]
    deltas = [Displacement(*d) for d in deltas]
    if bins == 40:
        assert _group_size(bins, h * w) == 1
    made = []
    post_init = EmpiricalCopula.__post_init__
    monkeypatch.setattr(EmpiricalCopula, "__post_init__", lambda c: made.append(c) or post_init(c))
    stacked, stacked_pairs = _extract_families(images, deltas, bins, stride)
    assert len(made) == len(images) * len(deltas)  # one copula per displacement per image
    assert all(np.shares_memory(c.cells, stacked) for c in made)  # views of the one stack
    made.clear()
    singles = [extract_family(img, deltas, bins, stride) for img in images]
    assert len(made) == len(images) * len(deltas)
    assert np.array_equal(stacked, [fam.cells for fam in singles])
    assert all(fam.n_pairs == stacked_pairs and fam.stride == stride for fam in singles)
    for img, image_cells in zip(images, stacked):
        u = rank_transform(img).u
        for d, cells, n_pairs in zip(deltas, image_cells, stacked_pairs):
            counts, want_pairs = _gather_counts(u, d, bins, stride)
            assert n_pairs == want_pairs, d
            assert np.array_equal(cells, counts / n_pairs), d


def test_stacks_of_two_images_are_per_image_families(monkeypatch):
    # a block of 2 * 1480 anchors takes two of the four 40 x 37 images at a time
    monkeypatch.setattr(image_io, "_BLOCK", 2 * 40 * 37)
    u8 = synth_noise(37, 40, 31)
    images = [u8, GrayImage(37, 40, u8.pixels * 0.37 - 1.5, domain=REAL)]
    images += [_tied_image((40, 37), False, 3, 1), _tied_image((40, 37), True, 5, 2)]
    for stride in (1, 2):
        stacked, n_pairs = _extract_families(images, DEFAULT_DELTAS, 8, stride)
        singles = [extract_family(img, DEFAULT_DELTAS, 8, stride) for img in images]
        assert np.array_equal(stacked, [fam.cells for fam in singles])
        assert all(fam.n_pairs == n_pairs and fam.stride == stride for fam in singles)


def _transient_bytes(call):
    """What call allocated at its peak beyond what its result still holds."""
    call()  # once untraced, so first-call caches do not count
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


def test_each_extracted_family_is_validated_once(monkeypatch):
    # a stack of cells is not checked where it is counted (its caller checks
    # it); extract_family's family checks its cells once, in one call for
    # all its copulas
    checked, check = [], rank_copula._check_masses
    counted = lambda rows, name: checked.append(rows.shape) or check(rows, name)  # noqa: E731
    monkeypatch.setattr(rank_copula, "_check_masses", counted)
    images = [synth_noise(96, 96, seed) for seed in range(11)]
    _extract_families(images, DEFAULT_DELTAS, 8, 1)
    assert checked == []
    for img in images:
        extract_family(img)
    assert checked == [(len(DEFAULT_DELTAS), 64)] * len(images)


def test_the_package_exports_no_per_displacement_copula():
    with pytest.raises(ImportError):
        from copsem import EmpiricalCopula  # noqa: F401


def test_stacked_count_holds_one_image_working_set_at_256_bins():
    # one image's histogram at 256 bins is 256 * 257 cells, above _BLOCK, so
    # eleven images are counted one at a time: beyond the families returned,
    # the stack needs about what one image needs, not eleven times it
    images = [synth_noise(96, 96, seed) for seed in range(11)]
    one = _transient_bytes(lambda: _extract_families(images[:1], DEFAULT_DELTAS, 256, 1))
    eleven = _transient_bytes(lambda: _extract_families(images, DEFAULT_DELTAS, 256, 1))
    assert eleven < 1.5 * one, (one, eleven)


def test_extract_family_holds_no_image_sized_buffer():
    # each block of anchor rows is binned into one slab of the working-set
    # size with its halo rows, so the transient peak does not grow with the
    # image: one block's codes, their intp copy in np.bincount and the
    # histogram, about 1.5 MB at 1024² and at 2048², where the image is 4 MB
    small, big = synth_noise(1024, 1024, 5), synth_noise(2048, 2048, 5)
    peaks = [_transient_bytes(lambda img=img: extract_family(img)) for img in (small, big)]
    assert peaks[1] < big.pixels.nbytes // 2, peaks
    assert peaks[1] - peaks[0] < small.pixels.nbytes // 16, peaks


def test_stacked_families_refuse_as_one_image_does():
    img = _tied_image((3, 4), False, 3, 0)
    cases = [
        (1, 1, [(1, 0)], "bins must be in [2, inf), got 1"),
        (8, 0, [(1, 0)], "stride must be in [1, inf), got 0"),
        (2, 2, [(1, 0), (0, 9)], "no valid anchors for delta=(0, 9) stride=2 on a 4x3 field"),
    ]
    for bins, stride, deltas, message in cases:
        for images in ([img], [img, img]):
            with pytest.raises(ValueError, match=re.escape(message)):
                _extract_families(images, [Displacement(*d) for d in deltas], bins, stride)
    with pytest.raises(ValueError, match="one shape"):
        _extract_families([img, _tied_image((4, 3), False, 3, 0)], DEFAULT_DELTAS, 8, 1)
