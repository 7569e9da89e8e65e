import numpy as np
import pytest

from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS


@pytest.fixture(scope="session")
def fig3_params():
    return build_params(FIGURE_PARAMS["fig3"])


@pytest.fixture(scope="session")
def fig3_scales(fig3_params):
    return derived_scales(fig3_params)


@pytest.fixture(scope="session")
def fig5_params():
    return build_params(FIGURE_PARAMS["fig5"])


@pytest.fixture(scope="session")
def fig2_params():
    return build_params(FIGURE_PARAMS["fig2"])


@pytest.fixture(scope="session")
def free_params():
    """No coupling, no damping, no bias: bare tunneling dynamics."""
    return build_params(
        {"Omega": 1.0, "alpha": 0.0, "g": 0.0, "gamma": 0.0, "beta": 10.0, "Delta": 1.0, "epsilon": 0.0}
    )


@pytest.fixture(scope="session")
def fig3_series(fig3_params):
    """Default-settings population trace, shared by untimed tests."""
    from effbath.gme import simulate_population

    return simulate_population(fig3_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def _energy_outside(processed, n_pad, m):
    """Fraction of the periodic-Hann-weighted trace's energy past the first m bins of its n_pad-point DFT."""
    n = processed.shape[0]
    weighted = processed * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    power = np.abs(np.fft.rfft(weighted, n_pad)[:m]) ** 2
    return 1.0 - (2.0 * power.sum() - power[0]) / (n_pad * float(weighted @ weighted))


@pytest.fixture(scope="session")
def energy_outside():
    """Parseval's energy check of a band, from numpy's FFT rather than the library's."""
    return _energy_outside
