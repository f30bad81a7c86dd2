import sys

import numpy as np
import pytest

from lhvmodels.presets import (
    chsh_scenario,
    ghz_scenario,
    random_two_party_scenario,
)

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared sink for the per-criterion pass/fail lines; printed again in
    the terminal summary so they are visible even under output capture."""
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def chsh():
    return chsh_scenario()


@pytest.fixture(scope="session")
def ghz3():
    return ghz_scenario(3)


@pytest.fixture(scope="session")
def random23():
    """Random mixed state with 3-outcome POVMs, M_A=2, M_B=3."""
    return random_two_party_scenario(np.random.default_rng(424242))


@pytest.fixture
def digit_limit():
    """Sets Python's int-to-text digit limit for one test, and restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-text digit limit")
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)
