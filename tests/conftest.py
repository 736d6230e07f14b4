import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from copsem.rank_copula import CopulaFamily, Displacement
from copsem.transforms import _dct_step

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("suite")


def make_family(rng, bins=8, n_deltas=4, conc=1.0):
    """Random Dirichlet copula family, not tied to any image."""
    deltas = ((1, 0), (0, 1), (1, 1), (1, -1))[:n_deltas]
    cells = np.array(
        [rng.dirichlet(np.full(bins * bins, conc)).reshape(bins, bins) for _ in range(n_deltas)]
    )
    return CopulaFamily(
        tuple(Displacement(*d) for d in deltas), cells, (0,) * n_deltas, stride=0
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def scipy_blur(x, kernel: int, sigma: float) -> np.ndarray:
    """Reference for gaussian_blur_array: scipy's convolve1d along axis 0, then 1."""
    from scipy.ndimage import convolve1d

    c = (kernel - 1) / 2.0
    taps = np.exp(-((np.arange(kernel) - c) ** 2) / (2.0 * sigma * sigma))
    taps /= taps.sum()
    out = convolve1d(np.asarray(x, dtype=np.float64), taps, axis=0, mode="reflect")
    return convolve1d(out, taps, axis=1, mode="reflect")


def scipy_dctq(x, quality: int) -> np.ndarray:
    """Reference for the block-DCT quantizer: scipy.fft's orthonormal dctn over
    the 8x8 blocks of the edge-padded image, rounding to the step, idctn."""
    import scipy.fft

    step = _dct_step(quality)
    h, w = x.shape
    xp = np.pad(np.asarray(x, dtype=np.float64), ((0, (-h) % 8), (0, (-w) % 8)), mode="edge")
    hh, ww = xp.shape
    blocks = xp.reshape(hh // 8, 8, ww // 8, 8).transpose(0, 2, 1, 3)
    co = scipy.fft.dctn(blocks, type=2, axes=(2, 3), norm="ortho")
    co = np.round(co / step) * step
    rec = scipy.fft.idctn(co, type=2, axes=(2, 3), norm="ortho")
    return rec.transpose(0, 2, 1, 3).reshape(hh, ww)[:h, :w]
