import numpy as np
import pytest

from opsparse import JacobiParams, build_plan


@pytest.fixture(scope="session")
def legendre_plan_64():
    return build_plan(JacobiParams(0.0, 0.0), 64)


@pytest.fixture(scope="session")
def legendre_plan_256():
    return build_plan(JacobiParams(0.0, 0.0), 256)


@pytest.fixture(scope="session")
def legendre_plan_4096():
    """Shared by the solver unit tests and the end-to-end criteria."""
    return build_plan(JacobiParams(0.0, 0.0), 4096)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)
