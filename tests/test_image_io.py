import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copsem.image_io import (
    U8,
    REAL,
    DomainError,
    GrayImage,
    PgmDimensionError,
    PgmHeaderError,
    PgmError,
    PgmMaxvalError,
    PgmPixelError,
    PgmTruncatedError,
    read_pgm,
    synth_gradient,
    synth_noise,
    write_pgm,
)
from copsem.codec import QuantizedFamily
from copsem.metrics import psnr, ssim
from copsem.rank_copula import CopulaFamily
from copsem.transforms import apply_transform, brightness


def test_roundtrip_noise():
    img = synth_noise(33, 17, 5)
    back = read_pgm(write_pgm(img))
    assert back == img
    assert back.width == 33 and back.height == 17


def test_write_single_pixel_layout():
    img = GrayImage(1, 1, np.zeros((1, 1), dtype=np.uint8))
    data = write_pgm(img)
    assert data == b"P5\n1 1\n255\n\x00"
    assert read_pgm(data) == img


def test_header_comments_skipped():
    data = b"P5\n# made by hand\n2 2\n# another note\n255\n\x01\x02\x03\x04"
    img = read_pgm(data)
    assert img.pixels.tolist() == [[1, 2], [3, 4]]


def test_bad_magic():
    with pytest.raises(PgmHeaderError):
        read_pgm(b"P6\n1 1\n255\n\x00")


def test_bad_maxval():
    with pytest.raises(PgmMaxvalError):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_bad_dimensions():
    with pytest.raises(PgmDimensionError):
        read_pgm(b"P5\n0 4\n255\n")


@pytest.mark.parametrize("name, at", [("width", 0), ("height", 1)])
def test_dimensions_outside_their_range_raise(name, at):
    for bad in (math.nan, math.inf, -math.inf, 0):
        dims = [2, 2]
        dims[at] = bad
        with pytest.raises(ValueError) as info:
            GrayImage(*dims, np.zeros((2, 2), dtype=np.uint8))
        assert str(info.value) == f"{name} must be in [1, inf), got {bad!r}"


@pytest.mark.parametrize("name, at", [("width", 0), ("height", 1)])
def test_dimensions_must_be_integers(name, at):
    dims = [2, 2]
    dims[at] = 2.5
    with pytest.raises(ValueError) as info:
        GrayImage(*dims, np.zeros(5, dtype=np.uint8))
    assert str(info.value) == f"{name} must be an integer, got 2.5"


def test_truncated_payload():
    with pytest.raises(PgmTruncatedError):
        read_pgm(b"P5\n2 2\n255\n\x01\x02\x03")


def test_read_pgm_copies_the_payload():
    data = bytearray(b"P5\n3 2\n255\n" + bytes(range(6)))
    img = read_pgm(data)
    data[-6:] = bytes(6 * [9])
    assert img.pixels.tolist() == [[0, 1, 2], [3, 4, 5]]
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 3


@pytest.mark.parametrize(
    "data, error, message",
    [
        (b"P6\n1 1\n255\n\x00", PgmHeaderError, "not a binary PGM stream (magic != P5)"),
        (b"P5 2 2", PgmHeaderError, "header ended before width/height/maxval"),
        (b"P5 2 x 9 ", PgmHeaderError, "non-integer header token b'x'"),
        (b"P5 1 1 255", PgmHeaderError, "missing whitespace after maxval"),
        (b"P5\n0 4\n255\n", PgmDimensionError, "invalid dimensions 0x4"),
        (b"P5\n1 1\n65535\n\x00\x00", PgmMaxvalError, "maxval 65535 outside [1, 255]"),
        (b"P5\n2 2\n255\n\x01\x02\x03", PgmTruncatedError, "payload holds 3 bytes, needs 4"),
        (b"P5 2 2 10 " + bytes([0, 5, 200, 255]), PgmPixelError, "pixel value 255 exceeds maxval 10"),
    ],
)
def test_read_pgm_error_types_and_messages(data, error, message):
    with pytest.raises(PgmError) as info:
        read_pgm(data)
    assert (type(info.value), str(info.value)) == (error, message)


def test_pixel_above_maxval():
    with pytest.raises(PgmPixelError, match="pixel value 255 exceeds maxval 10"):
        read_pgm(b"P5 2 2 10 " + bytes([0, 5, 200, 255]))
    assert read_pgm(b"P5 2 2 10 " + bytes([0, 5, 10, 3])).pixels.max() == 10


@given(
    st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda head, body: head + body,
            st.sampled_from([b"P5 2 2 10 ", b"P5\n3 1\n255\n", b"P5 1 1 0 ", b"P5 -1 2 9 "]),
            st.binary(max_size=8),
        ),
    )
)
def test_read_pgm_parses_or_raises_pgm_error(data):
    try:
        img = read_pgm(data)
    except PgmError:
        return
    assert isinstance(img, GrayImage) and img.domain == U8
    assert img.pixels.shape == (img.height, img.width)


def test_gradient_values():
    img = synth_gradient(4, 3)
    assert img.pixels.tolist() == [
        [0, 23, 46, 70],
        [93, 116, 139, 162],
        [185, 209, 232, 255],
    ]
    assert img.pixels.dtype == np.uint8


def test_gradient_single_pixel():
    assert synth_gradient(1, 1).pixels.tolist() == [[0]]


def test_noise_deterministic():
    a = synth_noise(16, 16, 7)
    b = synth_noise(16, 16, 7)
    assert a == b
    assert a != synth_noise(16, 16, 8)


def test_pixels_not_writeable():
    img = synth_noise(8, 8, 1)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 3


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        GrayImage(4, 3, np.zeros((4, 3), dtype=np.uint8))


def test_real_domain_accepts_floats():
    img = GrayImage(2, 2, np.array([[0.5, 300.0], [-4.0, 1.0]]), domain=REAL)
    assert img.domain == REAL


def test_u8_domain_rejects_floats():
    with pytest.raises(DomainError):
        GrayImage(2, 2, np.array([[0.5, 1.0], [2.0, 3.0]]), domain=U8)


def test_u8_operations_on_a_real_image_raise_domain_error():
    real = GrayImage(8, 8, np.zeros((8, 8)), domain=REAL)
    u8 = synth_noise(8, 8, 1)
    with pytest.raises(DomainError):
        apply_transform(real, brightness(10.0))
    for baseline in (psnr, ssim):
        for a, b in ((real, u8), (u8, real)):
            with pytest.raises(DomainError):
                baseline(a, b)


# Each value type holding an array, its constructor keywords, and changes
# of one field each (width and height only change together with the shape).
VALUE_TYPES = [
    pytest.param(
        GrayImage,
        dict(width=2, height=1, pixels=[[1, 2]], domain=U8),
        [dict(pixels=[[1, 3]]), dict(domain=REAL), dict(width=1, height=2, pixels=[[1], [2]])],
        id="GrayImage",
    ),
    pytest.param(
        CopulaFamily,
        dict(deltas=[(1, 0)], cells=[[[0.5, 0.0], [0.0, 0.5]]], n_pairs=(4,), stride=1),
        [
            dict(deltas=[(0, 1)]),
            dict(cells=[[[0.25, 0.25], [0.25, 0.25]]]),
            dict(n_pairs=(3,)),
            dict(stride=2),
        ],
        id="CopulaFamily",
    ),
    pytest.param(
        QuantizedFamily,
        dict(alpha=0.25, bins=2, deltas=[(1, 0)], indices=[[[2, 0], [0, 2]]]),
        [
            dict(alpha=0.125),
            dict(bins=1, indices=[[[4]]]),
            dict(deltas=[(0, 1)]),
            dict(indices=[[[1, 1], [1, 1]]]),
        ],
        id="QuantizedFamily",
    ),
]


@pytest.mark.parametrize("cls, fields, changes", VALUE_TYPES)
def test_value_types_compare_every_field(cls, fields, changes):
    value = cls(**fields)
    assert value == cls(**fields) and not value != cls(**fields)
    for change in changes:
        assert value != cls(**{**fields, **change}), change
    assert value.__eq__(5) is NotImplemented and value != 5
    with pytest.raises(TypeError):
        hash(value)
