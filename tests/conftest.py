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
    return solve_positive(unit_problem, unit_problem.default_grid())


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def liouville_calls(monkeypatch):
    """Count the calls of liouville's span check, a < 2 check and Taylor
    starts, each wrapped in place for the test."""
    import hhlab.liouville as LV
    counts = {}
    for name in ("_check_run", "_check_origin_weight", "taylor_starts"):
        counts[name] = 0

        def counted(*args, _name=name, _real=getattr(LV, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(LV, name, counted)
    return counts
