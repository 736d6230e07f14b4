import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copsem.codec import dequantize, quantize
from copsem.harness import _cell
from copsem.image_io import GrayImage, synth_noise
from copsem.metrics import (
    LN2,
    _d_pc_batch,
    _js_scorer,
    _mean_sqrt,
    _ssim_batch,
    _support_sums,
    SQRT_LN2,
    SSIM_C1,
    SSIM_C2,
    IncomparableFamiliesError,
    d_pc,
    js_divergence,
    l1_distance,
    psnr,
    ssim,
    tv_distance,
)
from copsem.rank_copula import coarsen, extract_family, Displacement

from conftest import make_family


def test_js_identity(rng):
    p = rng.dirichlet(np.ones(16))
    assert js_divergence(p, p) == 0.0


def test_js_disjoint_supports():
    assert abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - LN2) < 1e-15


def test_js_oracle_values():
    # frozen extended-precision evaluations of the defining sum
    assert abs(js_divergence([0.7, 0.3], [0.4, 0.6]) - 0.046200829181513525) < 1e-15
    assert abs(js_divergence([0.5, 0.5], [1.0, 0.0]) - 0.2157615543388357) < 1e-15


def test_js_symmetry(rng):
    for _ in range(50):
        p = rng.dirichlet(np.ones(9))
        q = rng.dirichlet(np.ones(9))
        assert js_divergence(p, q) == js_divergence(q, p)
        assert 0.0 <= js_divergence(p, q) <= LN2


def test_js_length_mismatch():
    with pytest.raises(ValueError):
        js_divergence([1.0], [0.5, 0.5])


def test_js_rejects_non_distribution():
    for bad in ([0.5, 0.6], [float("nan"), 0.5], [float("inf"), 0.5], [1.5, -0.5]):
        with pytest.raises(ValueError):
            js_divergence(bad, [0.5, 0.5])


def test_l1_tv():
    assert l1_distance([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    p = [0.25, 0.75]
    assert l1_distance(p, p) == 0.0


def test_js_within_linear_tv_bound(rng):
    # JS <= ln2 * TV holds for every pair; the supremum of the ratio is 1,
    # attained only on disjoint supports
    for _ in range(500):
        n = int(rng.integers(2, 65))
        p = rng.dirichlet(np.full(n, float(rng.choice([0.2, 1.0, 5.0]))))
        q = rng.dirichlet(np.full(n, float(rng.choice([0.2, 1.0, 5.0]))))
        assert js_divergence(p, q) <= LN2 * tv_distance(p, q) + 1e-12
    assert js_divergence([1.0, 0.0], [0.0, 1.0]) == LN2


def test_quadratic_tv_bound_fails_on_mass_into_empty_cell():
    """The tighter comparison JS <= ln2 * TV^2 (equivalently sqrt(JS) <=
    (sqrt(ln 2)/2) * L1) describes small spread-out perturbations but is
    not a theorem: moving mass s into a cell where P has none costs
    JS ~ (ln2/2) * s, linear in TV, so the quadratic budget ln2 * s^2 is
    exceeded without limit as s shrinks. This is why the codec's step
    budget is enforced empirically with a 2x gate rather than assumed."""
    js = js_divergence([1.0, 0.0], [0.8, 0.2])
    tv = tv_distance([1.0, 0.0], [0.8, 0.2])
    assert js == pytest.approx(0.07488176162235429, abs=1e-15)
    assert js > 2.7 * LN2 * tv * tv  # quadratic budget exceeded 2.7x
    assert js <= LN2 * tv  # linear budget still holds
    # strictly positive pairs violate it too
    js2 = js_divergence([0.9, 0.1], [0.6, 0.4])
    assert js2 > LN2 * 0.3 * 0.3
    # and the violation factor diverges as the moved mass shrinks
    s = 1e-3
    ratio = js_divergence([1.0, 0.0], [1.0 - s, s]) / (LN2 * s * s)
    assert ratio > 400.0


def test_sqrt_js_triangle(rng):
    for _ in range(300):
        p = rng.dirichlet(np.ones(12))
        q = rng.dirichlet(np.ones(12))
        r = rng.dirichlet(np.ones(12))
        dpq = math.sqrt(js_divergence(p, q))
        dqr = math.sqrt(js_divergence(q, r))
        dpr = math.sqrt(js_divergence(p, r))
        assert dpr <= dpq + dqr + 1e-12


def test_coarsen_never_increases_js(rng):
    for _ in range(100):
        a = make_family(rng, bins=8, n_deltas=1)
        b = make_family(rng, bins=8, n_deltas=1)
        js_fine = js_divergence(a.cells.ravel(), b.cells.ravel())
        for factor in (2, 4):
            ca, cb = coarsen(a, factor), coarsen(b, factor)
            js_coarse = js_divergence(ca.cells.ravel(), cb.cells.ravel())
            assert js_coarse <= js_fine + 1e-12


def test_d_pc_identity():
    fam = extract_family(synth_noise(20, 20, 3))
    report = d_pc(fam, fam)
    assert report.d_pc == 0.0
    assert all(r[2] == 0.0 for r in report.per_delta)


def test_d_pc_maximum():
    from copsem.rank_copula import CopulaFamily

    deltas = (Displacement(1, 0), Displacement(0, 1))
    a = np.array([[0.5, 0.5], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.5, 0.5]])
    fam_a = CopulaFamily(deltas, np.array([a, a]), (0, 0), stride=0)
    fam_b = CopulaFamily(deltas, np.array([b, b]), (0, 0), stride=0)
    report = d_pc(fam_a, fam_b)
    assert abs(report.d_pc - SQRT_LN2) < 1e-12
    assert abs(report.d_pc - 0.832555) < 1e-6


def test_d_pc_mean_of_sqrt_js(rng):
    fam_a = make_family(rng)
    fam_b = make_family(rng)
    report = d_pc(fam_a, fam_b)
    assert abs(report.d_pc - np.mean([r[2] for r in report.per_delta])) < 1e-12
    assert report.d_pc == d_pc(fam_b, fam_a).d_pc
    # decoded families with empty cells: each row sums over its own support,
    # so every per-displacement term is the one-row JS bit for bit, and both
    # equal the support-only sum the metric has always used
    for alpha in (1 / 8, 1 / 16, 1 / 32):
        dec_a = dequantize(quantize(make_family(rng, conc=0.3), alpha))
        dec_b = dequantize(quantize(make_family(rng, conc=0.3), alpha))
        assert (dec_a.cells == 0.0).any() and (dec_b.cells == 0.0).any()
        rows = d_pc(dec_a, dec_b).per_delta
        for k, (_, js, root) in enumerate(rows):
            p, q = dec_a.cells[k].ravel(), dec_b.cells[k].ravel()
            assert js == js_divergence(p, q) == _support_sum_js(p, q)
            assert root == math.sqrt(js)


def _support_sum_js(p, q):
    """Reference JS: each KL term summed over its own support only."""
    m = 0.5 * (p + q)
    pm, qm = p > 0.0, q > 0.0
    js = 0.5 * float(np.sum(p[pm] * np.log(p[pm] / m[pm]))) + 0.5 * float(
        np.sum(q[qm] * np.log(q[qm] / m[qm]))
    )
    return min(max(js, 0.0), LN2)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _poison_dropped(a, keep):
    """NaN and +-inf at the dropped positions, as _js_scorer passes 0 * log 0
    there: a sum that reads or zero-multiplies a dropped term is no longer
    finite."""
    a = a.copy()
    a[~keep] = np.resize([np.nan, np.inf, -np.inf], int((~keep).sum()))
    return a


@pytest.mark.parametrize("width", [*range(1, 65), 100, 127, 128, 129, 136, 200, 256, 257, 300])
def test_row_sums_match_one_dimensional_np_sum(width):
    # each width holds every support size from 0 to the full row; the widths
    # above 128, which 16 bins per axis need, reach numpy's blocking of long
    # sums
    rng = np.random.default_rng(width)
    rows = 2 * (width + 1)
    a = rng.standard_normal((rows, width)) * rng.random((rows, width)) ** 3
    keep = np.arange(width) < (np.arange(rows) % (width + 1))[:, None]
    scatter = rng.permuted(np.tile(np.arange(width), (rows, 1)), axis=1)
    keep[width + 1 :] = np.take_along_axis(keep[width + 1 :], scatter[width + 1 :], axis=1)
    a = _poison_dropped(a, keep)
    want = [np.sum(row[k]) for row, k in zip(a, keep)]
    assert _bits(_support_sums(a, keep)) == _bits(want)
    assert _support_sums(a[:0], keep[:0]).shape == (0,)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 63, 64, 127, 128, 129, 136, 255, 256, 300])
def test_row_sums_of_one_row_match_np_sum(size):
    # a lone row, so its block is the whole call
    rng = np.random.default_rng(size)
    a = rng.standard_normal((1, 300))
    keep = rng.permutation(np.arange(300) < size)[None]
    a = _poison_dropped(a, keep)
    assert _bits(_support_sums(a, keep)) == _bits([np.sum(a[0][keep[0]])])


def _per_row_d_pc(ref, cand):
    """d_pc as the one-row sums always scored it: JS of each row pair over its
    own support, sqrt, then the mean in Python's sum order."""
    roots = [math.sqrt(_support_sum_js(p, q)) for p, q in zip(ref, cand)]
    return sum(roots) / len(roots)


def _zero_cell(rows, cell):
    out = rows.copy()
    out[:, cell] = 0.0
    return out / out.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("bins", [2, 3, 8, 16])
def test_batched_d_pc_matches_per_row_reference(bins):
    rng = np.random.default_rng(bins)
    fams = [make_family(rng, bins=bins, conc=c) for c in (0.05, 0.3, 1.0, 5.0)]
    fams += [dequantize(quantize(f, a)) for f, a in zip(fams, (1 / 8, 1 / 16, 1 / 32, 1 / 64))]
    rows = [f.cells.reshape(4, -1) for f in fams]
    ref = _zero_cell(rows[5], 0)  # zero cells on the reference side
    point = np.zeros_like(ref)
    point[:, 0] = 1.0  # all mass where the reference has none: JS = ln 2
    mixed = rows[0].copy()
    mixed[2] = ref[2]  # one row identical to the reference, the others not
    cand = np.stack([*rows, _zero_cell(rows[2], -1), point, mixed, ref])
    got = _d_pc_batch(ref, cand)
    assert _bits(got) == _bits([_per_row_d_pc(ref, c) for c in cand])
    assert got[-1] == 0.0 and got[-3] == SQRT_LN2
    # 12 displacements: the mean must add them in sequence, not pairwise
    ref12, cand12 = np.concatenate([ref, rows[1], rows[6]]), np.concatenate([cand] * 3, axis=1)
    assert _bits(_d_pc_batch(ref12, cand12)) == _bits([_per_row_d_pc(ref12, c) for c in cand12])
    one = d_pc(fams[0], fams[4]).d_pc
    assert one == _d_pc_batch(rows[0], rows[4][None])[0]


@pytest.mark.parametrize("bins", [3, 8, 16])
def test_batched_d_pc_takes_one_reference_per_candidate(bins):
    # a (C, D, n) reference scores candidate c against reference c alone
    rng = np.random.default_rng(100 + bins)
    fams = [make_family(rng, bins=bins, conc=c) for c in (0.05, 0.3, 1.0, 5.0)]
    fams += [dequantize(quantize(f, 1 / 16)) for f in fams]  # zero cells on both sides
    pairs = [(a, b) for a in fams for b in fams]
    ref = np.stack([a.cells.reshape(4, -1) for a, _ in pairs])
    cand = np.stack([b.cells.reshape(4, -1) for _, b in pairs])
    assert _bits(_d_pc_batch(ref, cand)) == _bits([d_pc(a, b).d_pc for a, b in pairs])


def test_scorer_sums_a_mix_that_lost_support_over_its_own_support():
    # w / B^2 == 0 leaves the reference's zero cells out of a mix's support, so
    # the stack is not of full support and goes through its own layout; the
    # first call and a reuse of the scorer's buffers give the per-row bits
    rng = np.random.default_rng(7)
    fams = [dequantize(quantize(make_family(rng, conc=0.3), 1 / 16)) for _ in range(3)]
    ref = np.stack([f.cells.reshape(4, -1) for f in fams])
    assert (ref == 0.0).any()
    score = _js_scorer(ref, ref.shape)
    for w in ([0.5, 5e-324, 0.25], [0.0, 0.0, 0.0], [0.5, 0.75, 0.25]):
        w = np.array(w)[:, None, None]
        mix = (1.0 - w) * ref + w / 64
        assert ((mix == 0.0).any() == (w / 64 == 0.0).any())
        want = [_per_row_d_pc(r, c) for r, c in zip(ref, mix)]
        assert _bits(_mean_sqrt(score(mix))) == _bits(want)
        assert _bits(_mean_sqrt(score(mix))) == _bits(want)


TINY_W = 2.7755575615628914e-16  # the bisection's weight on tex02 at T = 300


def _tex02_encoded():
    from copsem.harness import ExperimentConfig, load_corpus
    from copsem.rank_copula import non_overlapping_stride

    cfg = ExperimentConfig()
    img = dict(load_corpus(cfg))["tex02"]
    est = extract_family(img, cfg.deltas, cfg.bins, stride=non_overlapping_stride(cfg.deltas))
    return dequantize(quantize(est, 1 / 64))


def test_tiny_mix_changes_cells_and_next_float_scores():
    from copsem.harness import mix_with_uniform

    enc = _tex02_encoded()
    assert (mix_with_uniform(enc, TINY_W).cells != enc.cells).sum() == 46
    assert d_pc(enc, mix_with_uniform(enc, math.nextafter(TINY_W, 1.0))).d_pc > 4e-9


@pytest.mark.xfail(
    strict=True,
    reason=(
        "JS is summed as p*log(p/m) terms whose first-order parts cancel, so a "
        "JS below about 1e-17 is rounding residue clamped to 0: on tex02 the "
        "mix at w = 2.7755575615628914e-16 changes 46 cells yet scores 0.0, "
        "and the next float up scores 4.2e-9; a more accurate formula would "
        "change the recorded golden CSV bytes"
    ),
)
def test_tiny_mix_scores_above_zero():
    from copsem.harness import mix_with_uniform

    enc = _tex02_encoded()
    assert d_pc(enc, mix_with_uniform(enc, TINY_W)).d_pc > 0.0


def test_d_pc_incomparable(rng):
    fam_a = make_family(rng, bins=8)
    fam_b = make_family(rng, bins=4)
    with pytest.raises(IncomparableFamiliesError):
        d_pc(fam_a, fam_b)
    fam_c = make_family(rng, n_deltas=2)
    with pytest.raises(IncomparableFamiliesError):
        d_pc(fam_a, fam_c)


def const_image(value, size=16):
    return GrayImage(size, size, np.full((size, size), value, dtype=np.uint8))


def test_psnr_identical_is_inf():
    img = synth_noise(10, 10, 1)
    assert math.isinf(psnr(img, img))


def test_psnr_extreme_single_pixel():
    a = GrayImage(1, 1, np.array([[0]], dtype=np.uint8))
    b = GrayImage(1, 1, np.array([[255]], dtype=np.uint8))
    assert psnr(a, b) == 0.0


def test_psnr_constant_offset():
    assert abs(psnr(const_image(100), const_image(116)) - 24.04840395556061) < 1e-12


def test_psnr_dimension_mismatch():
    with pytest.raises(ValueError):
        psnr(const_image(0, 8), const_image(0, 16))


def test_ssim_identical():
    img = synth_noise(32, 32, 2)
    assert ssim(img, img) == 1.0


def test_ssim_constant_offset():
    assert abs(ssim(const_image(100), const_image(116)) - 0.9890889729260551) < 1e-12


def test_ssim_bounded(rng):
    a = synth_noise(24, 24, 5)
    b = synth_noise(24, 24, 6)
    v = ssim(a, b)
    assert -1.0 <= v <= 1.0
    assert ssim(a, b) == ssim(b, a)


def _ssim_window_loop(a: GrayImage, b: GrayImage) -> float:
    """Reference: one 8x8 window at a time, the whole image when it is smaller."""
    x = a.pixels.astype(np.float64)
    y = b.pixels.astype(np.float64)
    h, w = x.shape
    if h < 8 or w < 8:
        wins_x, wins_y = [x], [y]
    else:
        bh, bw = h // 8, w // 8
        wins_x = x[: bh * 8, : bw * 8].reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
        wins_y = y[: bh * 8, : bw * 8].reshape(bh, 8, bw, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    vals = []
    for wx, wy in zip(wins_x, wins_y):
        mx, my = wx.mean(), wy.mean()
        vx, vy = wx.var(), wy.var()
        cov = ((wx - mx) * (wy - my)).mean()
        num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
        den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
        vals.append(num / den)
    return float(np.mean(vals))


# the last three span several row strips of about _BLOCK pixels: (300, 300)
# two ssim strips, the second ragged, at a width not a multiple of 8;
# (17, 9000) one window row a strip and a cropped 17th row; (9001, 9) many
# psnr strips of whole rows
PIXEL_SHAPES = [(1, 1), (1, 9), (7, 7), (3, 1001), (1200, 5), (8, 8), (13, 21), (64, 64), (97, 130)]
PIXEL_SHAPES += [(300, 300), (17, 9000), (9001, 9)]


def _pixel_pairs(rng, shape):
    """Random, near and flat partners of a random image, then the saturated
    pairs: all 0 against all 255, and a 0/255 checkerboard against both and
    against its negative."""
    h, w = shape
    a = rng.integers(0, 256, shape)
    near = np.clip(a + rng.integers(-20, 21, shape), 0, 255)
    checker = 255 * (np.add.outer(np.arange(h), np.arange(w)) % 2)
    zero, full = np.zeros(shape, int), np.full(shape, 255)
    pairs = [(a, near), (a, rng.integers(0, 256, shape)), (a, np.full(shape, 77))]
    pairs += [(zero, full), (checker, zero), (checker, full), (checker, 255 - checker)]
    return [(GrayImage(w, h, x), GrayImage(w, h, y)) for x, y in pairs]


@pytest.mark.parametrize("shape", PIXEL_SHAPES)
def test_ssim_matches_window_loop(rng, shape):
    for a, b in _pixel_pairs(rng, shape):
        assert ssim(a, b) == _ssim_window_loop(a, b), shape
    flat = GrayImage(shape[1], shape[0], np.full(shape, 77))
    assert ssim(flat, flat) == _ssim_window_loop(flat, flat) == 1.0


# one strip of 96 x 96, one window of 5 x 300 (the float moments), and six
# strips of 600 x 600
@pytest.mark.parametrize("shape", [(96, 96), (5, 300), (600, 600)])
def test_ssim_batch_is_per_pair_ssim(rng, shape):
    h, w = shape
    a = rng.integers(0, 256, shape)
    partners = [np.clip(a + rng.integers(-20, 21, shape), 0, 255), rng.integers(0, 256, shape)]
    partners += [np.full(shape, 77), a, 255 - a]
    ref, cands = GrayImage(w, h, a), [GrayImage(w, h, b) for b in partners]
    got = _ssim_batch(ref, cands).tolist()
    assert got == [ssim(ref, b) for b in cands] == [_ssim_window_loop(ref, b) for b in cands]
    assert _ssim_batch(ref, []).shape == (0,)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _ssim_batch(ref, [cands[0], GrayImage(w + 1, h, np.zeros((h, w + 1)))])


@pytest.mark.parametrize("shape", PIXEL_SHAPES)
def test_psnr_matches_float_formula(rng, shape):
    for a, b in _pixel_pairs(rng, shape):
        diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
        mse = float(np.mean(diff * diff))
        want = math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)
        assert psnr(a, b) == want, shape


def test_format_float():
    assert _cell(0.1) == "0.1"
    assert float(_cell(1 / 3)) == 1 / 3
    assert _cell(math.inf) == "inf"


@given(st.integers(0, 2**32 - 1))
def test_d_pc_range(seed):
    r = np.random.default_rng(seed)
    report = d_pc(make_family(r), make_family(r))
    assert 0.0 <= report.d_pc <= SQRT_LN2 + 1e-12
