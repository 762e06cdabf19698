import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no deadline, so
# a slow shared host neither changes nor fails them.
settings.register_profile("tvarch", derandomize=True, database=None, deadline=None, max_examples=25)
settings.load_profile("tvarch")

from tvarch import CoefficientFunction, NoiseSpec, SimulationConfig, TvArchModel, simulate_path


@pytest.fixture(scope="session")
def sptv2_model():
    """Constant-lags model with a sinusoidal intercept (the estimation benchmark)."""
    return TvArchModel(
        p=2,
        coeffs=(
            CoefficientFunction.sine(2.0, 1.0),
            CoefficientFunction.constant(0.3),
            CoefficientFunction.constant(0.2),
        ),
        noise=NoiseSpec.gaussian(),
    )


@pytest.fixture(scope="session")
def tv1_model():
    """tv(1) model with constant first lag (constancy-test null)."""
    return TvArchModel(
        p=1,
        coeffs=(CoefficientFunction.sine(2.0, 1.0), CoefficientFunction.constant(0.5)),
    )


@pytest.fixture(scope="session")
def series_small(sptv2_model):
    return simulate_path(sptv2_model, SimulationConfig(T=60, seed=42))


@pytest.fixture(scope="session")
def series_mid(sptv2_model):
    return simulate_path(sptv2_model, SimulationConfig(T=400, seed=17))
