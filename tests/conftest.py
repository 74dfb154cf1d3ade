import numpy as np
import pytest

from dyadbloom import Weight

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture
def unit_weight():
    def make(depth):
        return Weight(np.ones(1 << depth))

    return make


@pytest.fixture
def weight_13():
    # leaves (1, 3) at depth 1: [w]_{A2} = 4/3 by hand
    return Weight(np.array([1.0, 3.0]))


@pytest.fixture
def weight_4411():
    # leaves (4, 4, 1, 1) at depth 2: [w]_{A2} = 25/16 by hand
    return Weight(np.array([4.0, 4.0, 1.0, 1.0]))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture
def random_positive():
    def make(depth, seed, low=0.25, high=4.0):
        r = np.random.default_rng(seed)
        vals = np.exp(r.uniform(np.log(low), np.log(high), 1 << depth))
        return Weight(vals)

    return make
