import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from inducibility import density, graphs
from inducibility.density import (
    _count_matches,
    _Pattern,
    _sample,
    count_induced,
    induced_density,
    induced_density_mc,
)
from inducibility.errors import InputError, UnsupportedSizeError
from inducibility.graphs import Graph, automorphism_count, canonical_key, complement, induced_subgraph
from oracles import brute_count_induced, brute_form, brute_forms, brute_injective_maps


class TestCountInduced:
    def test_examples(self, p3):
        assert count_induced(p3, Graph.cycle(4)) == 4
        assert count_induced(Graph.complete(2), Graph.complete(4)) == 6
        assert count_induced(Graph.complete(3), Graph.complete_bipartite(3, 3)) == 0

    def test_matches_brute_force(self, classes_by_n):
        for k in range(5):
            for h in classes_by_n[k]:
                for n in range(k, 7):
                    for g in classes_by_n[n]:
                        assert count_induced(h, g) == brute_count_induced(h, g), (h, g)
        rng = random.Random(31)
        for _ in range(80):
            k = rng.randint(1, 4)
            n = rng.randint(k, 7)
            h = Graph.gnp(rng, k, 0.5)
            g = Graph.gnp(rng, n, 0.5)
            assert count_induced(h, g) == brute_count_induced(h, g)

    def test_large_asymmetric_pattern(self):
        """A 20-vertex pattern with a trivial automorphism group has close to
        2^20 induced subgraphs; counting it in a 22-vertex host must cost
        about the 231 subsets, not the pattern's subgraphs."""
        rng = random.Random(5)
        h = Graph.gnp(rng, 20, 0.5)
        # no two one-vertex deletions are isomorphic, so no automorphism moves a vertex
        assert len({canonical_key(induced_subgraph(h, set(range(20)) - {v})) for v in range(20)}) == 20
        twin = h.adj[0] & ~1  # vertex 20 copies vertex 0's neighbourhood
        extra = rng.getrandbits(20)
        rows = [r | (((twin >> v) & 1) << 20) | (((extra >> v) & 1) << 21) for v, r in enumerate(h.adj)]
        g = Graph(22, (*rows, twin, extra))
        start = time.perf_counter()
        copies = count_induced(h, g)
        assert time.perf_counter() - start < 10
        assert copies >= 2  # h on 0..19, and again with 20 in place of 0
        assert copies == brute_count_induced(h, g)

    def test_self_count_labels_only_the_matching_deletion(self, monkeypatch):
        """Counting an asymmetric 64-vertex graph in itself labels h, the one
        (k - 1)-vertex prefix twice (its key, then its table) and the one h - u
        with the prefix's degree multiset, not all 64 vertex deletions."""
        g = Graph.gnp(random.Random(3), 64, 0.5)
        assert automorphism_count(g) == 1
        calls = []
        search = graphs._canonical_search

        def counted(n, adj):
            calls.append(n)
            return search(n, adj)

        monkeypatch.setattr(graphs, "_canonical_search", counted)
        monkeypatch.setattr(density, "_canonical_search", counted)
        assert count_induced(g, g) == 1
        assert len(calls) <= 4, calls

    def test_forced_walk_matches_brute_force(self, classes_by_n):
        """Every class with k <= 5, in seeded hosts with n <= 9, under unsorted
        forced tuples of every size.  Each count runs twice on one pattern: the
        first builds the prefixes' join tables at their first passing vertex,
        the second counts from the cached tables."""
        rng = random.Random(20)
        hosts = [Graph.gnp(rng, rng.randint(5, 9), p) for p in (0.2, 0.35, 0.5, 0.5, 0.65, 0.8)]
        for k in range(6):
            forms = [brute_forms(g, k) for g in hosts]
            for h in classes_by_n[k]:
                target = brute_form(k, frozenset(h.edges()))
                for g, form in zip(hosts, forms):
                    pattern = _Pattern(h)
                    for f in range(k + 1):
                        forced = tuple(rng.sample(range(g.n), f))
                        expected = sum(code == target and set(forced) <= set(verts)
                                       for verts, code in form.items())
                        for _ in range(2):
                            assert _count_matches(pattern, g.adj, forced) == expected, (h, g, forced)

    def test_dense_hosts_match_brute_force(self):
        for seed, h in enumerate((Graph.path(4), Graph.cycle(5), Graph.path(5))):
            g = Graph.gnp(random.Random(seed), 20, 0.5)
            assert count_induced(h, g) == brute_count_induced(h, g), (h, seed)

    def test_labellings_of_an_eight_vertex_pattern(self, monkeypatch):
        """Counting the last vertex by popcount builds a prefix's join table
        only where some vertex passes the degree check, so a seeded 8-vertex
        pattern in a seeded G(30, 0.5) costs the 2,610 labellings that testing
        each last vertex against the table cost, with no key cached before."""
        h = Graph.gnp(random.Random(1), 8, 0.5)
        g = Graph.gnp(random.Random(2), 30, 0.5)
        calls = []
        search = graphs._canonical_search

        def counted(n, adj):
            calls.append(n)
            return search(n, adj)

        monkeypatch.setattr(graphs, "_canonical_search", counted)
        monkeypatch.setattr(density, "_canonical_search", counted)
        monkeypatch.setattr(density, "_canon_cached", lru_cache(maxsize=1 << 18)(graphs._canon_cached.__wrapped__))
        assert count_induced(h, g) == 381
        assert len(calls) == 2610

    @pytest.mark.parametrize("a", [6, 8])
    def test_prefix_with_a_long_join_table(self, a):
        """h is K1,a plus a isolated vertices, and g is h plus an isolated
        vertex with the centre last, so one prefix is edgeless on 2a vertices
        and its join table holds C(2a, a) masks: listed at a = 6, too long to
        list at a = 8.  Dropping any isolated vertex of g leaves h."""
        k = 2 * a + 1
        h = Graph.from_edges(k, [(v, k - 1) for v in range(a)])
        g = Graph.from_edges(k + 1, [(v, k) for v in range(a)])
        start = time.perf_counter()
        assert count_induced(h, g) == a + 1
        assert time.perf_counter() - start < 1

    def test_pattern_larger_than_host(self):
        with pytest.raises(InputError):
            count_induced(Graph.complete(4), Graph.complete(3))

    def test_join_table_bound(self, monkeypatch):
        """Clearing a pattern's join tables whenever three are kept changes
        no count: each table is rebuilt when its prefix comes again."""
        h = Graph.gnp(random.Random(1), 6, 0.5)
        g = Graph.gnp(random.Random(2), 24, 0.5)
        kept = _Pattern(h)
        copies = _count_matches(kept, g.adj)
        monkeypatch.setattr(density, "JOIN_TABLE_LIMIT", 3)
        cleared = _Pattern(h)
        assert _count_matches(cleared, g.adj) == copies == count_induced(h, g)
        assert len(kept.tables) > 3 >= len(cleared.tables)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(density, "DEFAULT_SUBSET_BUDGET", 100)
        with pytest.raises(UnsupportedSizeError):
            count_induced(Graph.complete(3), Graph.complete(30))

    def test_injective_map_identity(self):
        rng = random.Random(32)
        for _ in range(30):
            k = rng.randint(1, 4)
            n = rng.randint(k, 6)
            h = Graph.gnp(rng, k, 0.5)
            g = Graph.gnp(rng, n, 0.5)
            assert count_induced(h, g) * automorphism_count(h) == brute_injective_maps(
                h, g
            )


class TestDensity:
    def test_examples(self, p3):
        assert induced_density(p3, Graph.cycle(4)).density == 1
        res = induced_density(p3, Graph.complete_bipartite(3, 3))
        assert res.density == Fraction(9, 10)
        assert res.total == math.comb(6, 3)
        assert induced_density(Graph.complete(2), Graph.complete(9)).density == 1

    def test_complement_symmetry(self):
        rng = random.Random(33)
        for _ in range(50):
            k = rng.randint(1, 4)
            n = rng.randint(k, 9)
            h = Graph.gnp(rng, k, 0.5)
            g = Graph.gnp(rng, n, 0.5)
            assert (
                induced_density(h, g).density
                == induced_density(complement(h), complement(g)).density
            )


class TestMC:
    def test_constant_indicators(self):
        est = induced_density_mc(Graph.complete(2), Graph.complete(5), 1000, seed=7)
        assert est.estimate == 1.0
        est = induced_density_mc(
            Graph.complete(3), Graph.complete_bipartite(3, 3), 100, seed=2
        )
        assert est.estimate == 0.0

    def test_close_to_exact(self, p3):
        est = induced_density_mc(p3, Graph.complete_bipartite(3, 3), 100_000, seed=1)
        assert abs(est.estimate - 0.9) < 0.01

    def test_samples_positive(self, p3):
        with pytest.raises(InputError, match="samples must be >= 1"):
            induced_density_mc(p3, Graph.complete(4), 0, seed=1)

    def test_subset_sampler_uniform_support(self):
        rng = random.Random(34)
        seen = set()
        for _ in range(2000):
            seen.add(_sample(rng, 5, 2)[0])
        assert len(seen) == 10

    def test_subset_sampler_draws_as_a_full_shuffle_does(self):
        """Keeping only the swapped positions makes the same `randrange`
        calls and picks as swapping in a list of all n ids."""

        def listed(rng, n, k):
            ids = list(range(n))
            for i in range(k):
                j = rng.randrange(i, n)
                ids[i], ids[j] = ids[j], ids[i]
            return tuple(sorted(ids[:k]))

        for seed in range(200):
            n = seed % 65
            ours, theirs = random.Random(seed), random.Random(seed)
            for k in range(n + 1):
                assert _sample(ours, n, k)[0] == listed(theirs, n, k), (seed, n, k)
            assert ours.getstate() == theirs.getstate()

    def test_convergence_over_seeds(self, p3):
        host = Graph.complete_bipartite(3, 3)
        exact = 0.9
        samples = 500
        hits = 0
        for seed in range(100):
            est = induced_density_mc(p3, host, samples, seed=seed)
            tol = 3 * math.sqrt(exact * (1 - exact) / samples) + 1e-9
            if abs(est.estimate - exact) <= tol:
                hits += 1
        assert hits >= 95

    def test_pattern_larger_than_host(self, p3):
        with pytest.raises(InputError):
            induced_density_mc(Graph.complete(4), p3, 10, seed=0)
