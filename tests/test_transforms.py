import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st

from copsem.image_io import REAL, U8, GrayImage, synth_gradient, synth_noise
from copsem.metrics import d_pc
from copsem.rank_copula import extract_family
from copsem.transforms import (
    TransformSpec,
    _block_dct_quant_array,
    _dct2,
    _dct3,
    apply_transform,
    awgn,
    block_dct_quant,
    blur,
    brightness,
    contrast,
    default_bank,
    gamma,
    gaussian_blur_array,
    monotone_check,
    requantize,
)

from conftest import scipy_blur, scipy_dctq


def test_canonical_forms():
    assert brightness(80.0, domain="real").canonical() == "brightness:80:real"
    assert contrast(1.5).canonical() == "contrast:1.5:0:requant"
    assert gamma(0.5, domain="real").canonical() == "gamma:0.5:real"
    assert blur(7).canonical() == "blur:7:1.1666666666666667:requant"
    assert awgn(10.0, 7).canonical() == "awgn:10:7"
    assert block_dct_quant(20).canonical() == "dctq:20"


def test_parse_roundtrip_bank():
    for spec in default_bank():
        assert TransformSpec.parse(spec.canonical()) == spec


@given(
    st.sampled_from(["brightness", "contrast", "gamma"]),
    st.floats(0.1, 200.0, allow_nan=False),
    st.sampled_from(["real", "u8"]),
)
def test_parse_roundtrip_random(kind, value, domain):
    ctor = {"brightness": brightness, "contrast": contrast, "gamma": gamma}[kind]
    spec = ctor(value, domain=domain)
    assert TransformSpec.parse(spec.canonical()) == spec


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        TransformSpec.parse("sharpen:3")
    with pytest.raises(ValueError):
        TransformSpec.parse("brightness")


# (builder, valid params, index of the bad one, name, accepted interval, an
# out-of-range finite value or None where every finite value is accepted)
PARAM_RANGES = [
    (brightness, (80.0,), 0, "brightness offset", "(-inf, inf)", None),
    (contrast, (1.5, 0.0), 0, "contrast scale", "(0.0, inf)", 0.0),
    (contrast, (1.5, 0.0), 1, "contrast bias", "(-inf, inf)", None),
    (gamma, (0.5,), 0, "gamma exponent", "(0.0, inf)", -1.0),
    (blur, (7, 1.0), 0, "blur kernel size", "[1, inf)", -1),
    (blur, (7, 1.0), 1, "blur sigma", "(0.0, inf)", 0.0),
    (awgn, (10.0, 7), 0, "awgn sigma", "[0.0, inf)", -1.0),
    (awgn, (10.0, 7), 1, "awgn seed", "[0, inf)", -1),
    (block_dct_quant, (20,), 0, "dctq quality", "[1, 100]", 101),
]


@pytest.mark.parametrize("builder, valid, at, name, interval, outside", PARAM_RANGES)
def test_parameters_outside_their_range_fail_at_construction(
    builder, valid, at, name, interval, outside
):
    kind = builder(*valid).kind
    bad_values = [math.nan, math.inf, -math.inf] + ([] if outside is None else [outside])
    for bad in bad_values:
        params = list(valid)
        params[at] = bad
        with pytest.raises(ValueError) as info:
            builder(*params)
        assert str(info.value) == f"{name} must be in {interval}, got {bad!r}"
        text = ":".join([kind] + [str(v) for v in params])
        with pytest.raises(ValueError) as info:
            TransformSpec.parse(text)
        assert str(info.value) == f"{name} must be in {interval}, got {float(bad)!r}", text


@pytest.mark.parametrize(
    "builder, valid, at, name",
    [(awgn, (10.0, 7), 1, "awgn seed"), (block_dct_quant, (20,), 0, "dctq quality")],
)
def test_integer_parameters_reject_fractions(builder, valid, at, name):
    params = list(valid)
    params[at] = valid[at] + 0.5
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {params[at]}$"):
        builder(*params)
    text = ":".join([builder(*valid).kind] + [str(v) for v in params])
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {params[at]}$"):
        TransformSpec.parse(text)
    whole = ":".join([builder(*valid).kind] + [f"{float(v)}" for v in valid])
    assert TransformSpec.parse(whole).canonical() == builder(*valid).canonical()


def test_blur_kernel_must_be_odd():
    for kernel in (2, 8, 7.5):
        with pytest.raises(ValueError, match=f"^blur kernel size must be odd, got {kernel}$"):
            blur(kernel, 1.0)
    with pytest.raises(ValueError, match=r"^blur kernel size must be odd, got 8\.0$"):
        TransformSpec.parse("blur:8:1")


def test_monotone_classification():
    assert monotone_check(brightness(80.0))
    assert monotone_check(contrast(1.5))
    assert monotone_check(gamma(0.5))
    assert monotone_check(gamma(3.0))
    assert not monotone_check(blur(7))
    assert not monotone_check(awgn(10.0, 1))
    assert not monotone_check(block_dct_quant(20))


def test_brightness_real_no_clipping():
    img = synth_gradient(8, 8)
    out = apply_transform(img, brightness(80.0, domain="real"))
    assert out.domain == REAL
    assert float(out.pixels.max()) == 335.0
    assert np.array_equal(out.pixels, img.pixels.astype(float) + 80.0)


def test_brightness_requant_saturates():
    img = synth_gradient(8, 8)
    out = apply_transform(img, brightness(80.0))
    assert out.domain == U8
    assert int(out.pixels.max()) == 255
    assert int(out.pixels.min()) == 80


def test_gamma_real_matches_formula():
    img = synth_gradient(4, 4)
    out = apply_transform(img, gamma(0.5, domain="real"))
    expect = 255.0 * (img.pixels.astype(float) / 255.0) ** 0.5
    assert np.allclose(out.pixels, expect, atol=0.0)


def test_requantize_rounds_and_clips():
    img = GrayImage(3, 1, np.array([[-4.2, 13.5001, 300.0]]), domain=REAL)
    out = requantize(img)
    assert out.domain == U8
    assert out.pixels.tolist() == [[0, 14, 255]]


def test_requantize_u8_identity():
    img = synth_noise(6, 6, 8)
    assert requantize(img) == img


def test_blur_constant_is_identity():
    img = GrayImage(9, 9, np.full((9, 9), 77, dtype=np.uint8))
    out = apply_transform(img, blur(7))
    assert np.array_equal(out.pixels, img.pixels)


def test_blur_array_normalized_impulse():
    impulse = np.zeros((11, 11))
    impulse[5, 5] = 1.0
    out = gaussian_blur_array(impulse, 5, 1.0)
    assert abs(out.sum() - 1.0) < 1e-12
    assert out[5, 5] == out.max()
    assert abs(out[5, 4] - out[5, 6]) < 1e-15
    assert abs(out[4, 5] - out[5, 6]) < 1e-15


def _oracle_shapes(rng, count):
    """1x1, single rows and columns, then random sides 1..130, mostly not multiples of 8."""
    return [(1, 1), (1, 9), (13, 1), (2, 3)] + [tuple(rng.integers(1, 131, 2)) for _ in range(count)]


def test_blur_matches_scipy_convolve1d():
    # radius 40 on sides down to 1: the reflect padding repeats, and the taps
    # are added in the reference's own order, so the bits agree
    rng = np.random.default_rng(1801)
    for i, (h, w) in enumerate(_oracle_shapes(rng, 120)):
        x = rng.normal(0.0, 50.0, (h, w))
        kernel = 81 if i < 4 else 2 * int(rng.integers(0, 41)) + 1
        sigma = rng.uniform(0.3, 8.0)
        got = gaussian_blur_array(x, kernel, sigma)
        assert got.flags.c_contiguous
        assert np.array_equal(got, scipy_blur(x, kernel, sigma)), (h, w, kernel, sigma)


def test_block_dct_quant_matches_scipy_dctn():
    # the last two span several block-row strips: 76 block rows of 66 blocks in
    # strips of 15 (the last holds 1), and block rows of 1125 blocks, one a strip
    rng = np.random.default_rng(1802)
    for i, (h, w) in enumerate(_oracle_shapes(rng, 100) + [(601, 523), (17, 9000)]):
        x = rng.integers(0, 256, (h, w)).astype(np.float64)
        if i % 2:  # the quantizer takes any real input, not only pixel codes
            x += rng.uniform(-0.5, 0.5, (h, w))
        quality = int(rng.integers(1, 101))
        # called first: the strips are overwritten in place, in a padded copy of x only
        assert np.array_equal(_block_dct_quant_array(x, quality), scipy_dctq(x, quality)), (h, w, quality)


def test_dct_rows_match_scipy_dct():
    # the 8-point transforms alone, on rows of mixed magnitude; fct 1/4 is the
    # orthonormal scale of one axis
    rng = np.random.default_rng(1803)
    rows = rng.normal(0.0, 1.0, (20000, 8)) * 10.0 ** rng.integers(-3, 4, (20000, 1))
    assert np.array_equal(_dct2(rows.T, 0.25).T, scipy.fft.dct(rows, type=2, norm="ortho"))
    assert np.array_equal(_dct3(rows.T, 0.25).T, scipy.fft.idct(rows, type=2, norm="ortho"))


def test_awgn_seeded_and_requantized():
    img = synth_gradient(16, 16)
    spec = awgn(10.0, 7)
    a = apply_transform(img, spec)
    b = apply_transform(img, spec)
    assert a == b
    assert a.domain == U8
    assert not np.array_equal(a.pixels, img.pixels)


def test_awgn_rejects_real_domain_input():
    img = GrayImage(4, 4, np.zeros((4, 4)), domain=REAL)
    with pytest.raises(ValueError):
        apply_transform(img, awgn(10.0, 7))
    with pytest.raises(ValueError):
        apply_transform(img, block_dct_quant(20))


def test_dct_quant_severity_ordering():
    img = synth_noise(64, 64, 15)
    fam = extract_family(img)
    strong = d_pc(fam, extract_family(apply_transform(img, block_dct_quant(5)))).d_pc
    weak = d_pc(fam, extract_family(apply_transform(img, block_dct_quant(90)))).d_pc
    assert strong > weak


def test_dct_quant_non_multiple_of_eight():
    img = synth_noise(20, 13, 2)
    out = apply_transform(img, block_dct_quant(20))
    assert out.width == 20 and out.height == 13


def test_requant_monotone_keeps_ranks_exactly():
    """Integer maps that stay strictly increasing after rounding leave
    the rank field untouched, so the representation cannot move."""
    rng = np.random.default_rng(21)
    px = rng.integers(0, 171, (24, 24)).astype(np.uint8)
    img = GrayImage(24, 24, px)
    fam = extract_family(img)
    plus = d_pc(fam, extract_family(apply_transform(img, brightness(80.0)))).d_pc
    scaled = d_pc(fam, extract_family(apply_transform(img, contrast(1.5)))).d_pc
    assert plus == 0.0
    assert scaled == 0.0


def test_default_bank_composition():
    bank = default_bank(awgn_seed=3)
    kinds = [s.kind for s in bank]
    assert kinds.count("brightness") == 2
    assert kinds.count("contrast") == 2
    assert kinds.count("gamma") == 3
    assert "blur" in kinds and "awgn" in kinds and "dctq" in kinds
    monotone = [s for s in bank if monotone_check(s)]
    damaging = [s for s in bank if not monotone_check(s)]
    assert len(monotone) == 7 and len(damaging) == 3
