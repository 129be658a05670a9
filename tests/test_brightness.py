import hashlib
import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from inducibility import brightness, mc
from inducibility.brightness import (
    brightness_exact,
    brightness_lower_bounds,
    brightness_mc,
    brightness_report,
    is_bright,
)
from inducibility.errors import InputError, PreconditionError
from inducibility.graphs import Graph, with_isolated
from inducibility.search import _classes
from inducibility.structure import classify_vertices
from oracles import brute_brightness, brute_detectable_last_two, dp_brightness, relabel


def seeded_core(rng, m, extra):
    """A connected graph on m vertices (a random tree plus random chords)
    with `extra` isolated vertices, the labels shuffled."""
    p = rng.uniform(0, 3 / m)
    edges = {(rng.randrange(v), v) for v in range(1, m)}
    edges |= {(u, v) for v in range(m) for u in range(v) if rng.random() < p}
    label = list(range(m + extra))
    rng.shuffle(label)
    return Graph.from_edges(m + extra, [(label[u], label[v]) for u, v in edges])


class TestIsBright:
    def test_p3_orders(self):
        # path 0-2-1: center is vertex 2
        g = Graph.from_edges(3, [(0, 2), (1, 2)])
        assert is_bright(g, [2, 0, 1])
        assert not is_bright(g, [0, 2, 1])

    def test_2k2_every_order(self, two_k2):
        for order in permutations(range(4)):
            assert is_bright(two_k2, list(order))

    def test_rejects_non_permutation(self, p3):
        with pytest.raises(InputError):
            is_bright(p3, [0, 0, 1])

    def test_matches_direct_definition(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(1, 6)
            g = Graph.gnp(rng, n, 0.5)
            detectable = set(classify_vertices(g).detectable)
            order = list(range(n))
            rng.shuffle(order)
            assert is_bright(g, order) == brute_detectable_last_two(
                g, order, detectable
            )


class TestExact:
    def test_matches_full_enumeration_oracle(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = Graph.gnp(rng, n, 0.5)
            detectable = set(classify_vertices(g).detectable)
            assert brightness_exact(g) == brute_brightness(g, detectable)

    def test_matches_oracle_on_every_class_to_n6(self, classes_by_n):
        for n in range(2, 7):
            for g in classes_by_n[n]:
                if g.edge_count() == 0:
                    continue
                detectable = set(classify_vertices(g).detectable)
                assert brightness_exact(g) == brute_brightness(g, detectable), g

    def test_matches_dp_oracle_on_every_class_to_n7_and_a_sample_at_n8(self, classes_by_n):
        sample = random.Random(26).sample(_classes(8), 400)
        for g in [g for n in range(2, 8) for g in classes_by_n[n]] + sample:
            if g.edge_count():
                assert brightness_exact(g) == dp_brightness(g), g

    def test_matches_dp_oracle_on_padded_cores_over_ten_vertices(self):
        rng = random.Random(27)
        for n in (11, 12, 13, 14):
            for _ in range(2):
                g = Graph.empty(n)
                while 0 in g.adj:  # a core on all n vertices
                    g = Graph.gnp(rng, n, rng.uniform(0.2, 0.5))
                expected = dp_brightness(g)
                extra = rng.randint(1, 4)
                perm = list(range(n + extra))
                rng.shuffle(perm)
                padded = relabel(with_isolated(g, extra), perm)
                assert brightness_exact(padded) == expected, (g, extra, perm)

    def test_matches_oracle_with_scattered_isolated_vertices(self):
        rng = random.Random(24)
        for n, graphs in ((7, 10), (8, 3)):
            for _ in range(graphs):
                g = Graph.gnp(rng, n, rng.uniform(0.2, 0.7))
                detectable = set(classify_vertices(g).detectable)
                # isolated vertices never have an earlier neighbor and give
                # none to anyone, so orderings of g alone decide brightness
                expected = brute_brightness(g, detectable)
                extra = rng.randint(0, 2)
                perm = list(range(n + extra))
                rng.shuffle(perm)
                padded = relabel(with_isolated(g, extra), perm)
                assert brightness_exact(padded) == expected, (g, extra, perm)

    def test_matches_oracle_over_all_vertices_when_padded(self):
        rng = random.Random(25)
        for _ in range(10):
            n = rng.randint(3, 5)
            extra = rng.randint(1, 7 - n)
            perm = list(range(n + extra))
            rng.shuffle(perm)
            g = relabel(with_isolated(Graph.gnp(rng, n, 0.5), extra), perm)
            detectable = set(classify_vertices(g).detectable)
            assert brightness_exact(g) == brute_brightness(g, detectable), g

    def test_pinned_values_at_the_size_limit(self):
        caterpillar = Graph.from_edges(
            10, [(i, i + 1) for i in range(5)] + [(1, 6), (2, 7), (3, 8), (4, 9)]
        )
        assert brightness_exact(Graph.path(10)) == Fraction(28, 45)
        assert brightness_exact(caterpillar) == Fraction(1, 3)
        start = time.perf_counter()
        assert brightness_exact(Graph.cycle(10)) == 1
        assert time.perf_counter() - start < 1.0

    def test_isolated_invariance_at_64_vertices(self):
        rng = random.Random(28)
        for m in (40, 52, 63):
            g = Graph.gnp(rng, m, 3 / m)
            perm = list(range(64))
            rng.shuffle(perm)
            assert brightness_exact(relabel(with_isolated(g, 64 - m), perm)) == brightness_exact(g)

    def test_size_limit(self):
        # no limit but the graphs' own 64 vertices; every vertex of a cycle is happy
        assert brightness_exact(Graph.cycle(5)) == brightness_exact(Graph.cycle(11)) == 1
        start = time.perf_counter()
        assert brightness_exact(Graph.cycle(64)) == 1
        assert time.perf_counter() - start < 1.0

    def test_edgeless(self):
        assert brightness_exact(Graph.empty(4)) == 0


class TestLowerBounds:
    def test_p3(self, p3):
        b = brightness_lower_bounds(p3)
        assert b.lb_m2 == 0 and b.lb_m1 == 0
        assert b.special_m1 == Fraction(1, 3) == brightness_exact(p3)

    def test_k3(self):
        assert brightness_lower_bounds(Graph.complete(3)).lb_m2 == 1

    def test_p4_special(self, p4):
        assert brightness_lower_bounds(p4).special_m1 == Fraction(1, 6)

    def test_requires_two_edges(self):
        with pytest.raises(PreconditionError):
            brightness_lower_bounds(Graph.complete(2))

    def test_m1_clamped_nonnegative(self):
        rng = random.Random(23)
        for _ in range(100):
            g = Graph.gnp(rng, rng.randint(3, 7), 0.5)
            if g.edge_count() < 2:
                continue
            b = brightness_lower_bounds(g)
            assert b.lb_m1 >= 0 and b.lb_m2 >= 0 and b.special_m1 >= 0


class TestMC:
    def test_close_to_exact(self, p3):
        est = brightness_mc(p3, 100_000, seed=1)
        assert abs(est.estimate - 1 / 3) < 0.01

    def test_constant_one(self):
        est = brightness_mc(Graph.complete(3), 100, seed=9)
        assert est.estimate == 1.0

    def test_single_sample(self, p3):
        assert brightness_mc(p3, 1, seed=3).estimate in (0.0, 1.0)
        with pytest.raises(InputError, match="samples must be >= 1"):
            brightness_mc(p3, 0, seed=3)

    def test_seed_reproducible(self, p4):
        a = brightness_mc(p4, 5000, seed=42)
        b = brightness_mc(p4, 5000, seed=42)
        assert a == b

    def test_seeded_result_is_pinned(self, p4):
        a = brightness_mc(p4, 4000, seed=5)
        b = brightness_mc(p4, 4000, seed=5)
        assert a == b
        assert a.estimate == 693 / 4000

    def test_seeded_estimates_are_pinned(self):
        rng = random.Random("brightness stream")
        digest = hashlib.sha256()
        for m in range(3, 17):
            for extra in range(3):
                g = seeded_core(rng, m, extra)
                for samples in (1, 15, 17, 2001):  # none a multiple of the 16 substreams
                    est = brightness_mc(g, samples, rng.randrange(2**31))
                    digest.update(repr((g.n, g.adj, tuple(est))).encode())
        assert digest.hexdigest() == (
            "430ebb541ea23b0c971a7bc3f86ff3cf4ad7fea1f6d6152d11f565cf0dfcaee2"
        )

    def test_trial_draws_x_then_y(self, monkeypatch):
        """Each trial is `randrange(m)` for the last core vertex x and, only when
        x is detectable with R(x) nonempty, `randrange(|R(x)|)` for the last
        vertex y of R(x), detectable ones first; its outcome is the brightness
        of a labeling that ends with y, x's pendant leaves and x."""
        monkeypatch.setattr(brightness, "run_bernoulli_streams", lambda trial, *_: trial)
        shapes = random.Random("trial shapes")
        graphs = [Graph.gnp(shapes, n, shapes.uniform(0, 0.5)) for n in range(41)]
        seen = set()
        for g in graphs:
            trial = brightness_mc(g, 1, 0)
            detectable = set(classify_vertices(g).detectable)
            core = [v for v in range(g.n) if g.adj[v]]
            for seed in range(20):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    order = [v for v in range(g.n) if v not in core]
                    expected = drew_y = False
                    if core:
                        x = core[mc.randbelow(theirs, len(core))]
                        leaves = [v for v in core if g.adj[v] == 1 << x]
                        rest = [v for v in core if v != x and v not in leaves]
                        rest.sort(key=lambda v: v not in detectable)
                        if x in detectable and rest:
                            y = rest[mc.randbelow(theirs, len(rest))]
                            expected, drew_y = y in detectable, True
                            rest.remove(y)
                            rest.append(y)
                        order += rest + leaves + [x]
                    assert trial(ours) == expected == is_bright(g, order), (g, seed)
                    assert ours.getstate() == theirs.getstate(), (g, seed)
                    seen.add((drew_y, expected))
        assert seen == {(False, False), (True, False), (True, True)}

    def test_wilson_interval_covers_the_dp_value_over_ten_vertices(self):
        rng = random.Random(29)
        for m in (11, 12, 13, 14):
            truth = 1.0
            while truth in (0.0, 1.0):  # an estimate that can miss
                g = seeded_core(rng, m, 0)
                truth = float(dp_brightness(g))
            hits = sum(est.ci_low <= truth <= est.ci_high
                       for est in (brightness_mc(g, 2000, seed) for seed in range(100)))
            assert hits >= 90, (m, hits)


class TestReport:
    def test_exact_mode(self, p3):
        rep = brightness_report(with_isolated(p3, 2))
        assert rep.exact == Fraction(1, 3) and rep.mc is None
        assert rep.lb_const == Fraction(1, 12)

    def test_mc_mode(self):
        # 6 disjoint edges: 12 non-isolated vertices, too many for exact mode
        h = Graph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
        rep = brightness_report(h, mc_samples=2000, seed=0)
        assert rep.exact is None and rep.mc is not None
        assert rep.mc.estimate > 0.9  # all vertices detectable

    def test_input_errors(self, p3):
        with pytest.raises(InputError, match="mc samples must be >= 0, got -1"):
            brightness_report(p3, mc_samples=-1)
        with pytest.raises(PreconditionError, match="at least 2 edges"):
            brightness_report(with_isolated(Graph.path(2), 3))

    def test_bounds_below_exact_on_report(self, two_k2):
        rep = brightness_report(two_k2)
        assert max(rep.lb_m2, rep.lb_m1, rep.special_m1) <= rep.exact
