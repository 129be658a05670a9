import signal
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from inducibility.graphs import Graph
from inducibility.search import _classes
from inducibility.verify import run_check


@contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once it has run `seconds` seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"the call did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def within():
    """`with within(seconds):` bounds a block's wall time by SIGALRM."""
    return _within


@pytest.fixture(scope="session")
def classes_by_n():
    """One representative per isomorphism class, keyed by vertex count."""
    return {n: _classes(n) for n in range(8)}


class _Verified:
    """`verified(check)` is the result of one `verify` check, run the first
    time any test asks for it; `verified.seconds[check]` is how long it took."""

    def __init__(self):
        self.results, self.seconds = {}, {}

    def __call__(self, check):
        if check not in self.results:
            self.results[check], self.seconds[check] = run_check(check)
        return self.results[check]


@pytest.fixture(scope="session")
def verified():
    return _Verified()


@pytest.fixture
def p3():
    return Graph.path(3)


@pytest.fixture
def p4():
    return Graph.path(4)


@pytest.fixture
def two_k2():
    return Graph.from_edges(4, [(0, 1), (2, 3)])
