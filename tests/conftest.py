import signal
import sys
import time
from contextlib import contextmanager
from functools import cached_property
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from inducibility.graphs import Graph, canonical_key, complement, to_graph6
from inducibility.search import _classes, ind_exact
from inducibility.verify import run_check
from oracles import BIPARTITE, brute_count_induced, complete_bipartite_ind


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


class _ExactTable(dict):
    """`table[canonical_key(h), n]` is `ind_exact(h, n)` for every class h on
    2 to 5 vertices and every h.n <= n <= 8, computed pattern by pattern in
    `_classes` order, n increasing; `patterns[canonical_key(h)]` is h and
    `seconds` is how long the table took."""

    def __init__(self, classes_by_n):
        start = time.monotonic()
        self.patterns = {canonical_key(h): h for k in range(2, 6) for h in classes_by_n[k]}
        super().__init__(((key, n), ind_exact(h, n))
                         for key, h in self.patterns.items() for n in range(h.n, 9))
        self.seconds = time.monotonic() - start

    @cached_property
    def faults(self):
        """(graph6, n, check) for each entry that fails a check: its value
        equals its complement's, is at most its value at n - 1, is Brown and
        Sidorenko's for a complete bipartite pattern or its complement, and
        is the brute-force count of the copies in its n-vertex witness."""
        bipartite = {}
        for s, t in BIPARTITE:
            g = Graph.complete_bipartite(s, t)
            bipartite[canonical_key(g)] = bipartite[canonical_key(complement(g))] = (s, t)
        faults = []
        for (key, n), res in self.items():
            h = self.patterns[key]
            checks = {
                "complement": res.value == self[canonical_key(complement(h)), n].value,
                "monotone": n == h.n or res.value <= self[key, n - 1].value,
                "brown-sidorenko": key not in bipartite
                or res.value == complete_bipartite_ind(*bipartite[key], n),
                "brute recount": res.witness.n == n
                and brute_count_induced(h, res.witness) == res.value * comb(n, h.n),
            }
            faults += [(to_graph6(h), n, check) for check, ok in checks.items() if not ok]
        return faults

    def failing(self, check):
        """(graph6, n) of each entry that fails `check`, one of the four
        named in `faults`."""
        return [(g6, n) for g6, n, name in self.faults if name == check]


@pytest.fixture(scope="session")
def exact_table(classes_by_n):
    return _ExactTable(classes_by_n)


@pytest.fixture
def p3():
    return Graph.path(3)


@pytest.fixture
def p4():
    return Graph.path(4)


@pytest.fixture
def two_k2():
    return Graph.from_edges(4, [(0, 1), (2, 3)])
