import sys

import numpy as np
import pytest

from dyadbloom import Weight

ACCEPTANCE_LINES: list[str] = []


def count_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Wrap module.name in every dyadbloom namespace that binds it (a
    consumer's ``from .module import name`` included) and return the list
    that collects each call's positional arguments, in call order."""
    original = getattr(module, name)
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and mod_name.split(".")[0] == "dyadbloom":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


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
