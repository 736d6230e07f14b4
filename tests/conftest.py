import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from copsem.rank_copula import CopulaFamily, Displacement

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
