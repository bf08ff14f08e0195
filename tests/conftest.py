import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from rifslab import enumerate_orbit, make_padic_system, make_system

# Deterministic examples and no per-example deadline: the suite must give
# the same result on every run, also on slow or loaded machines.
settings.register_profile("rifslab", deadline=None, derandomize=True,
                          max_examples=60)
settings.load_profile("rifslab")


@pytest.fixture(scope="session")
def cantor_system():
    """x -> 3x and x -> 3x + 2: base-3 digits {0, 2}."""
    return make_system([(Fraction(3), Fraction(0)), (Fraction(3), Fraction(2))])


@pytest.fixture(scope="session")
def cantor_sample(cantor_system):
    sample = enumerate_orbit(cantor_system, 0, Fraction(3) ** 15)
    assert sample.complete
    return sample


@pytest.fixture(scope="session")
def binary_padic_system():
    """x -> 2x and x -> 2x + 1 read 2-adically."""
    return make_padic_system(2, [(1, 1, Fraction(0)), (1, 1, Fraction(1))])


@pytest.fixture(scope="session")
def renewal_system():
    """Mixed ratios 2 and 3; expansion logs have irrational ratio."""
    return make_system([(Fraction(2), Fraction(0)), (Fraction(3), Fraction(1))])


@pytest.fixture
def count_forks(monkeypatch):
    """The pids of the children os.fork makes in this test, in order."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


@pytest.fixture
def assert_no_child_left():
    """A check that every child this process forked has been reaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
