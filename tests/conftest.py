import numpy as np
import pytest

from hhlab.navier import NavierProblem, solve_positive
from hhlab.radial import HardyHenonParams


@pytest.fixture(scope="session")
def unit_problem():
    """The reference Navier problem: n=4, m=2, p=2, t=0 on the unit ball."""
    return NavierProblem(HardyHenonParams(4, 2, 0.0, 2.0), 1.0)


@pytest.fixture(scope="session")
def unit_solution(unit_problem):
    return solve_positive(unit_problem)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
