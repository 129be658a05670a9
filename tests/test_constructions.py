import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from inducibility import constructions
from inducibility.cli import _fmt
from inducibility.constructions import (
    dtame_blowup,
    gnp_construction,
    split_construction,
    split_plus_edge,
)
from inducibility.density import induced_density
from inducibility.errors import InputError, PreconditionError, UnsupportedSizeError
from inducibility.graphs import Graph, is_isomorphic
from inducibility.search import _classes
from inducibility.structure import is_tamed_by
from oracles import brute_event_share

E = math.e


class TestSplit:
    def test_acceptance_value(self):
        rep = split_construction(3, 1, 300, 1 / 3)
        assert rep.achieved == Fraction(1990000, 4455100)
        assert abs(rep.limit_formula - 4 / 9) < 1e-12
        assert rep.graph is None  # host exceeds the 64-vertex universe

    def test_limit_near_inverse_e(self):
        rep = split_construction(100, 1, 10_000, 1 / 100)
        assert abs(rep.limit_formula - (99 / 100) ** 99) < 1e-12
        assert abs(rep.limit_formula - 1 / E) < 0.002

    def test_r2_limit_near_two_over_e_squared(self):
        rep = split_construction(200, 2, 40_000, 2 / 200)
        assert abs(rep.limit_formula - 2 / E**2) < 0.01

    def test_achieved_converges_to_limit(self):
        rep = split_construction(3, 1, 300, 1 / 3)
        assert abs(float(rep.achieved) - rep.limit_formula) <= 0.02

    def test_small_instance_consistency(self):
        rep = split_construction(3, 1, 30, 1 / 3)
        assert is_isomorphic(rep.target, Graph.path(3))
        assert rep.target_density == induced_density(rep.target, rep.graph).density
        assert rep.achieved <= rep.target_density

    def test_event_counts_match_direct_arithmetic(self):
        rep = split_construction(5, 2, 40, 0.3)
        small = round(0.3 * 40)
        expect = Fraction(
            math.comb(small, 2) * math.comb(40 - small, 3), math.comb(40, 5)
        )
        assert rep.achieved == expect

    def test_sigma_maximizer_at_r_over_k(self):
        k, r = 6, 2
        grid = [i / 200 for i in range(1, 200)]
        best = max(grid, key=lambda s: math.comb(k, r) * s**r * (1 - s) ** (k - r))
        assert abs(best - r / k) <= 1 / 200

    def test_input_errors(self):
        with pytest.raises(InputError):
            split_construction(3, 3, 10, 0.5)
        with pytest.raises(InputError):
            split_construction(3, 1, 10, 0.0)
        with pytest.raises(InputError):
            split_construction(5, 3, 100, 0.01)  # small side too small


class TestGnp:
    def test_limit_values(self):
        assert abs(gnp_construction(10, 12, 0).limit_formula - (44 / 45) ** 44) < 1e-12
        assert gnp_construction(2, 5, 1).limit_formula == 1.0
        assert abs(gnp_construction(50, 60, 0).limit_formula - 1 / E) < 0.01

    def test_achieved_is_sample_density(self):
        rep = gnp_construction(4, 10, seed=3)
        assert rep.seed == 3
        assert rep.achieved == induced_density(rep.target, rep.graph).density

    def test_seed_reproducible(self):
        assert gnp_construction(5, 12, seed=9) == gnp_construction(5, 12, seed=9)

    def test_target_shape(self):
        rep = gnp_construction(6, 8, seed=0)
        assert rep.target.n == 6 and rep.target.edge_count() == 1

    def test_negative_seed_rejected(self):
        # random.Random(-3) is random.Random(3): -3 would build seed 3's host
        with pytest.raises(InputError, match="seed must be >= 0, got -3"):
            gnp_construction(3, 8, seed=-3)


class TestSplitPlusEdge:
    def test_small_case(self):
        rep = split_plus_edge(4, 8)
        assert rep.achieved == Fraction(36, 70)
        assert rep.achieved > 0
        assert rep.limit_formula == 6 / 16
        assert rep.target_density == induced_density(rep.target, rep.graph).density
        assert rep.achieved <= rep.target_density

    def test_target_is_bipartite_plus_edge(self):
        rep = split_plus_edge(5, 10)
        t = rep.target
        assert t.n == 5 and t.edge_count() == 2 * 3 + 1
        assert t.has_edge(0, 1)

    def test_limit_approaches_two_over_e_squared(self):
        rep = split_plus_edge(60, 6000)
        assert abs(rep.limit_formula - 2 / E**2) < 0.02
        assert rep.graph is None and rep.target is not None

    def test_input_errors(self):
        with pytest.raises(InputError):
            split_plus_edge(3, 10)


class TestBlowup:
    def test_star_blowup_is_complete_bipartite(self):
        rep = dtame_blowup(Graph.star(3), {0}, 20)
        assert is_isomorphic(rep.graph, Graph.complete_bipartite(5, 15))
        assert abs(rep.limit_formula - 27 / 64) < 1e-12

    def test_complete_graph_blowup(self):
        rep = dtame_blowup(Graph.complete(4), set(), 10)
        assert rep.graph == Graph.complete(10)
        assert rep.achieved == 1 and rep.target_density == 1

    def test_p4_blowup_positive(self, p4):
        rep = dtame_blowup(p4, {0, 1, 2}, 8)
        assert rep.achieved == Fraction(16, 70)
        assert rep.target_density == induced_density(p4, rep.graph).density
        assert rep.achieved <= rep.target_density

    def test_event_subsets_induce_pattern(self, p4):
        # every one-per-group pick really is a copy: achieved <= density
        rep = dtame_blowup(p4, {1, 2, 3}, 9)
        assert 0 < rep.achieved <= rep.target_density

    def test_large_n_keeps_half_the_limit(self):
        rep = dtame_blowup(Graph.star(3), {0}, 200)
        assert float(rep.achieved) >= 0.5 * rep.limit_formula
        assert rep.graph is None

    def test_invalid_taming_set_rejected(self, p4):
        with pytest.raises(PreconditionError):
            dtame_blowup(p4, {1, 2}, 8)

    def test_empty_pattern_rejected(self):
        # the empty set tames the 0-vertex graph, which has no group to size
        with pytest.raises(InputError, match="0-vertex pattern"):
            dtame_blowup(Graph.empty(0), set(), 3)


@pytest.mark.parametrize("n, k", [(10, 1), (10, 5), (1000, 3), (10**6, 999_000), (10**30, 40),
                                  (10**400, 64)],
                         ids=["10-1", "10-5", "1000-3", "1e6-999000", "1e30-40", "1e400-64"])
def test_event_budget_reads_a_lower_bound(monkeypatch, n, k):
    """The refusal never fires below the budget, where min(k, n - k) times the
    digits of C(n, k) is the work, and fires once the work is 1.5 times it."""
    work = min(k, n - k) * math.log10(math.comb(n, k))
    monkeypatch.setattr(constructions, "EVENT_BUDGET", work * (1 + 1e-9))
    constructions._check_event_budget(n, k)
    monkeypatch.setattr(constructions, "EVENT_BUDGET", work / 1.5)
    with pytest.raises(UnsupportedSizeError, match="out of reach"):
        constructions._check_event_budget(n, k)


def _split_cases():
    for k in range(2, 6):
        for r in range(1, k):
            for n in (k, 7, 12):
                for sigma in (0.2, 1 / 3, 0.5, 0.75):
                    small = math.floor(sigma * n + 0.5)
                    if k <= n and r <= small:
                        yield (k, r, n, sigma), small


class TestAchievedAgainstBruteEvent:
    """`achieved` equals the share of k-subsets meeting the defining event,
    counted one subset at a time on hosts of at most 12 vertices."""

    def test_split(self):
        for (k, r, n, sigma), small in _split_cases():
            blocks = [(small, r), (n - small, k - r)]
            if n - small < k - r:  # the large part cannot host its picks: no event to report
                assert brute_event_share(k, blocks) == 0
                with pytest.raises(InputError, match="large part"):
                    split_construction(k, r, n, sigma)
            else:
                assert split_construction(k, r, n, sigma).achieved == brute_event_share(k, blocks)

    def test_split_plus_edge(self):
        for k in range(4, 7):
            for n in range(k, 13):
                small = math.floor(2 * n / k + 0.5)
                if small >= 2 and n - small >= k - 2:
                    blocks = [(small, 2), (n - small, k - 2)]
                    assert split_plus_edge(k, n).achieved == brute_event_share(k, blocks)

    def test_blowup(self, classes_by_n):
        for k in range(1, 5):
            for h in classes_by_n[k]:
                for d in range(k + 1):
                    for v0 in combinations(range(k), d):
                        if not is_tamed_by(h, v0):
                            continue
                        for n in (k, k + 1, 2 * k + 1, 12):
                            g = n // k
                            blocks = [(g, 1)] * d + [(n - d * g, k - d)]
                            rep = dtame_blowup(h, v0, n)
                            assert rep.achieved == brute_event_share(k, blocks), (h, v0, n)


def _sweep_calls():
    """Every construction across its domain edges: r = 0 and r = k, n < k,
    sigma at 0 and 1, hosts above 64 vertices, and the blow-up of every
    class on at most 5 vertices with every v0 (d = k included) plus one
    out-of-range vertex.  Only three hosts have 64 vertices, since their
    full densities dominate the time."""
    for k in range(1, 6):
        for r in range(k + 1):
            for n in (k - 1, k, k + 4, 12, 65):
                for sigma in (0.0, 0.3, 0.5, 1 / 3, 1.0):
                    yield split_construction, (k, r, n, sigma)
    yield split_construction, (3, 1, 64, 0.25)
    for k in range(1, 6):
        for n in (k - 1, k, 9, 65):
            for seed in (0, 7):
                yield gnp_construction, (k, n, seed)
    yield gnp_construction, (3, 64, 1)
    for k in range(3, 9):
        for n in (k - 1, k, k + 1, 2 * k, 12, 65):
            yield split_plus_edge, (k, n)
    yield split_plus_edge, (4, 64)
    for m in range(1, 6):
        for h in _classes(m):
            for n in (m - 1, m, 2 * m + 1, 65):
                for d in range(m + 1):
                    for v0 in combinations(range(m), d):
                        yield dtame_blowup, (h, v0, n)
                yield dtame_blowup, (h, (m,), n)


def test_sweep_pinned():
    """One digest over the CLI rendering of each report, or the error's
    type and text, for every call of the sweep."""
    digest = hashlib.sha256()
    for build, args in _sweep_calls():
        try:
            out = json.dumps(_fmt(build(*args)), sort_keys=True)
        except (InputError, PreconditionError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        digest.update(f"{build.__name__}{_fmt(list(args))}: {out}\n".encode())
    assert digest.hexdigest() == "4f1a6386a237dfbb64f54cdd755d88bb045cd90fa9088f00fbc139eb477e3e09"
