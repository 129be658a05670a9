import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from inducibility.bounds import (
    BoundReport,
    SelectorParams,
    find_degree_gap,
    find_sparse_alpha,
    high_degree_bound,
    high_degree_pair_bound,
    non_uniform_predicate,
    phi,
    regime_selector,
    solve_epsilon,
    sparse_regime_bound,
    uniform_degree_bound,
)
from inducibility.brightness import (
    BRIGHTNESS_EXACT_LIMIT,
    brightness_exact,
    brightness_lower_bounds,
)
from inducibility.errors import InputError, PreconditionError
from inducibility.graphs import Graph, complement, degree_profile, with_isolated

from oracles import bisect_epsilon, bisect_sparse_alpha

E = math.e


class TestPhi:
    def test_plugin_values(self):
        assert abs(phi(1) - 1 / E) < 1e-14
        assert abs(phi(2) - 2 / E**2) < 1e-14
        assert abs(phi(3) - 27 / (6 * E**3)) < 1e-14

    def test_no_overflow_at_large_s(self):
        assert 0 < phi(500) < phi(100)

    def test_relative_error_against_40_digits(self):
        def ln_factorial(s):
            # ln s! summed over products of consecutive factors below 2^3000
            total, block = Decimal(0), 1
            for i in range(2, s + 1):
                block *= i
                if block.bit_length() > 3000:
                    total, block = total + Decimal(block).ln(), 1
            return total + Decimal(block).ln()

        with localcontext() as ctx:
            ctx.prec = 40
            for s in [*range(1, 120), 500, 10**3, 10**4, 10**5]:
                d = Decimal(s)
                exact = (d * d.ln() - ln_factorial(s) - d).exp()
                assert abs(Decimal(phi(s)) / exact - 1) <= Decimal("1e-12"), s

    def test_stirling_limit_at_huge_s(self):
        # in doubles, s ln s - ln s! - s cancels to 0 at s = 10^16
        for s in (10**16, 10**22, 10**300):
            assert math.isclose(phi(s), 1 / math.sqrt(2 * math.pi * s), rel_tol=1e-12)
        assert phi(10**5000) == 0.0

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            phi(0)


class TestHighDegreeBounds:
    def test_scaled(self):
        assert abs(high_degree_bound(1, 1 / E) - 1 / E**2) < 1e-12
        assert abs(high_degree_bound(1, 1.0) - 1 / E) < 1e-12
        assert abs(high_degree_bound(2, 1.0) - 2 / E**2) < 1e-12

    def test_pair(self):
        assert abs(high_degree_pair_bound(1, 1) - 1 / E**2) < 1e-12
        assert abs(high_degree_pair_bound(2, 1) - 2 / E**3) < 1e-12
        assert high_degree_pair_bound(1, 2) == high_degree_pair_bound(2, 1)

    def test_domain_errors(self):
        with pytest.raises(InputError):
            high_degree_bound(0)
        with pytest.raises(InputError):
            high_degree_bound(1, 1.5)


class TestUniformDegreeBound:
    def test_plugin_values(self):
        f, value = uniform_degree_bound(1, 0.5, 1 / 32)
        assert f == 4 and abs(value - 32 / E**4) < 1e-12
        f, value = uniform_degree_bound(1, 1.0, 1 / 100)
        assert f == 10 and abs(value - 2 * math.exp(-10)) < 1e-12

    def test_vacuous_when_f_zero(self):
        f, value = uniform_degree_bound(1, 0.5, 10.0)
        assert f == 0 and value == 2.0

    def test_fraction_inputs(self):
        f, _ = uniform_degree_bound(2, Fraction(1, 2), Fraction(1, 128))
        assert f == int(math.isqrt(32))


class TestDegreeGap:
    def test_star_example(self):
        gap = find_degree_gap(Graph.star(63), 0.5, 1.0)
        assert gap.delta == 1 / 32
        assert (gap.a, gap.b) == (1 / 32, 2 / 32)
        assert gap.s == 1 and gap.S == frozenset({0})

    def test_precondition_errors(self, p4):
        with pytest.raises(PreconditionError):
            find_degree_gap(p4, 0.9, 1.0)  # max degree too small
        with pytest.raises(PreconditionError):
            find_degree_gap(Graph.complete(8), 0.5, 1.0)  # too many edges

    def test_postconditions_on_random_inputs(self):
        rng = random.Random(51)
        done = 0
        while done < 1000:
            n = rng.randint(5, 40)
            h = Graph.gnp(rng, n, rng.uniform(0.05, 0.3))
            prof = degree_profile(h)
            if prof.max_degree == 0:
                continue
            eps = Fraction(prof.max_degree, n)
            c = max(Fraction(1), Fraction(prof.edge_count, n))
            gap = find_degree_gap(h, eps, c)
            done += 1
            assert gap.b - gap.a >= gap.delta - 1e-12
            assert gap.b <= float(eps) + 1e-12
            assert not any(gap.a * n < d < gap.b * n for d in prof.degrees)
            assert 1 <= gap.s <= 2 * float(c) / gap.delta
            assert gap.S == frozenset(
                v for v in range(n) if h.adj[v].bit_count() >= gap.b * n
            )


class TestSparseBound:
    def test_plugin_values(self):
        assert abs(sparse_regime_bound(0, 1) - 2 / E**2) < 1e-12
        assert abs(sparse_regime_bound(0, 0) - 1 / E) < 1e-12
        expect = 2 / (E * (2 + (E - 2) / 12))
        assert abs(sparse_regime_bound(0, 1 / 12) - expect) < 1e-12
        assert round(expect, 5) == 0.35719

    def test_decreasing_in_nu(self):
        grid = [i / 100 for i in range(101)]
        vals = [sparse_regime_bound(0, nu) for nu in grid]
        assert all(vals[i] > vals[i + 1] for i in range(100))

    def test_never_undercuts_floor(self, classes_by_n):
        floor = 2 / E**2 - 1e-12
        for n in range(2, 8):
            for h in classes_by_n[n]:
                if h.edge_count() < 2:
                    continue
                prof = degree_profile(h)
                nu = float(brightness_exact(h))
                assert sparse_regime_bound(prof.m / n, nu) >= floor

    def test_alpha_threshold(self):
        alpha, c = find_sparse_alpha()
        base = sparse_regime_bound(0, 1 / 12)
        slope = 3 * E / (2 + (E - 2) / 12) + 2
        closed_form = (1 / E - base) / slope
        assert abs(alpha - closed_form) < 1e-9
        assert 2 / E**2 <= c < 1 / E
        assert sparse_regime_bound(alpha, 1 / 12) < 1 / E
        assert sparse_regime_bound(alpha + 1e-6, 1 / 12) >= 1 / E


class TestSolveEpsilon:
    def test_satisfies_inequality(self):
        for c in (0.5, 1.0, 3.0):
            eps = solve_epsilon(c)
            value = 2 * (2 / E) ** (math.sqrt(1 / (8 * c * eps)) - 1)
            assert value <= 2 / E**2 + 1e-9
            # close to the closed-form optimum
            closed = 1 / (8 * c * (1 + 2 / (1 - math.log(2))) ** 2)
            assert abs(eps - closed) < 1e-6


def test_closed_forms_match_bisection():
    # each closed form sits 1e-12 below its threshold, relative to it
    assert abs(find_sparse_alpha()[0] / bisect_sparse_alpha() - 1) <= 2e-12
    for e in range(-2, 309):
        C = 10.0**e
        assert abs(solve_epsilon(C) / bisect_epsilon(C) - 1) <= 2e-12, C


class TestNonUniformPredicate:
    def test_examples(self, p4):
        assert non_uniform_predicate(p4, 0.9, 1.0)
        assert not non_uniform_predicate(Graph.star(3), 0.5, 1.0)
        assert not non_uniform_predicate(Graph.empty(5), 0.9, 1.0)
        assert not non_uniform_predicate(p4, 0.9, 0.5)  # 3 edges > C k = 2

    def test_beta_one_is_in_the_domain(self, p4):
        """beta ranges over (0, 1], as in SelectorParams."""
        assert non_uniform_predicate(Graph.star(10), 1.0, 1.0)
        with pytest.raises(InputError, match=r"^beta must be in \(0, 1\]$"):
            non_uniform_predicate(p4, 1.5, 1.0)


@pytest.mark.parametrize("call", [
    lambda: high_degree_pair_bound(0, 1),
    lambda: high_degree_pair_bound(1, 0),
    lambda: uniform_degree_bound(0, 0.5, 0.1),
    lambda: uniform_degree_bound(1, 0.0, 0.1),
    lambda: uniform_degree_bound(1, 1.5, 0.1),
    lambda: uniform_degree_bound(1, 0.5, 0.0),
    lambda: uniform_degree_bound(1, 0.01, 1e-300),  # a rational eps of 0
    lambda: find_degree_gap(Graph.star(10), 0.0, 1.0),
    lambda: find_degree_gap(Graph.star(10), 0.5, -1.0),
    lambda: sparse_regime_bound(-0.1, 0.5),
    lambda: sparse_regime_bound(0.1, 1.5),
    lambda: sparse_regime_bound(1e308, 0.5),  # the value overflows
    lambda: non_uniform_predicate(Graph.star(10), 0.0, 1.0),
    lambda: SelectorParams(alpha=-1.0),
    lambda: SelectorParams(beta=0.0),
    lambda: SelectorParams(beta=1.5),
    lambda: SelectorParams(eps=0.0),
    lambda: SelectorParams(C=0.0),
    lambda: solve_epsilon(0),
], ids=["pair-s", "pair-t", "uniform-tau", "uniform-beta-0", "uniform-beta-big",
        "uniform-eps", "uniform-eps-rounds-to-0", "gap-eps", "gap-C", "sparse-alpha",
        "sparse-nu", "sparse-overflow", "non-uniform-beta-0",
        "selector-alpha", "selector-beta-0", "selector-beta-big", "selector-eps",
        "selector-C", "solve-eps-C"])
def test_domain_errors(call):
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("kwargs, message", [
    ({"C": 0.0}, r"C and eps must be positive"),
    ({"eps": -0.5}, r"C and eps must be positive"),
    ({"alpha": -1.0}, r"alpha must be nonnegative"),
    ({"beta": 0.0}, r"beta must be in \(0, 1\]"),
    ({"beta": 1.5}, r"beta must be in \(0, 1\]"),
])
def test_selector_params_messages(kwargs, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        SelectorParams(**kwargs)


def test_selector_params_defaults():
    p = SelectorParams()
    assert (p.C, p.eps, p.alpha, p.beta) == (1.0, None, None, None)
    assert SelectorParams(2.0, 0.1, 0.2, 0.5).beta == 0.5


@pytest.mark.parametrize("finite_value", [None, 0.25])
def test_bound_report_derives_asymptotic_only(finite_value):
    rep = BoundReport(regime="r", finite_value=finite_value, inputs={"k": 3}, citation="c")
    assert rep.asymptotic_only is (finite_value is None)
    assert (rep.regime, rep.finite_value, rep.inputs, rep.citation) == (
        "r", finite_value, {"k": 3}, "c")


class TestSelector:
    def test_high_degree_star(self):
        rep = regime_selector(Graph.star(63), SelectorParams(C=1.0, eps=0.5))
        assert rep.regime == "high_degree_s"
        assert rep.inputs["s"] == 1
        assert abs(rep.finite_value - 1 / E) < 1e-12

    def test_sparse_core_small_pattern(self, p3):
        h = with_isolated(p3, 61)
        rep = regime_selector(h, SelectorParams(alpha=0.1))
        assert rep.regime == "sparse_core"
        expect = sparse_regime_bound(3 / 64, 1 / 3)
        assert abs(rep.finite_value - expect) < 1e-12

    def test_complete_graph_degenerate(self):
        rep = regime_selector(Graph.complete(8))
        assert rep.regime == "complement_first"
        assert rep.asymptotic_only and rep.finite_value is None

    def test_dense_regime(self):
        # half of all pairs is the densest the normalization allows
        h = Graph.complete_bipartite(4, 4)
        rep = regime_selector(h, SelectorParams(C=0.5))
        assert rep.regime == "dense_external"
        assert rep.asymptotic_only

    def test_sparse_core_above_exact_limit_uses_closed_form(self):
        # nu is the exact brightness on a core of any size, so never below the
        # closed-form degree-count floors
        core = Graph.path(12)
        assert core.n > BRIGHTNESS_EXACT_LIMIT
        rep = regime_selector(with_isolated(core, 40), SelectorParams(alpha=0.5))
        assert rep.regime == "sparse_core"
        assert rep.inputs["nu_kind"] == "exact"
        assert rep.inputs["nu"] == float(brightness_exact(core))
        lbs = brightness_lower_bounds(core)
        floor = float(max(lbs.lb_m2, lbs.lb_m1, lbs.special_m1, Fraction(1, 12)))
        assert rep.inputs["nu"] >= floor
        assert rep.finite_value <= sparse_regime_bound(12 / 52, floor)

    def test_uniform_regime(self):
        h = Graph.from_edges(8, [(2 * i, 2 * i + 1) for i in range(4)])
        rep = regime_selector(h, SelectorParams(alpha=0.01, eps=0.4, C=1.0))
        assert rep.regime == "uniform_low_degree"
        assert rep.inputs["tau"] == 1

    def test_beta_threshold_is_exact(self):
        # 7 = 0.28 * 25 exactly, while the float product is 7.000000000000001
        h = with_isolated(Graph.cycle(7), 18)
        rep = regime_selector(h, SelectorParams(eps=0.5, beta=0.28))
        assert rep.regime == "uniform_low_degree"
        assert rep.inputs["tau"] == 2

    def test_alpha_threshold_is_exact(self):
        # m = 29 = 0.58 * 50 exactly, while the float product is 28.999999999999996
        h = with_isolated(Graph.cycle(29), 21)
        rep = regime_selector(h, SelectorParams(alpha=0.58))
        assert rep.regime == "sparse_core"
        assert rep.inputs["m"] == 29

    def test_complement_invariant_labels(self, classes_by_n):
        params = SelectorParams(C=1.0)
        for n in range(2, 8):
            for h in classes_by_n[n]:
                a = regime_selector(h, params)
                b = regime_selector(complement(h), params)
                assert a.regime == b.regime

    def test_report_shape(self):
        rep = regime_selector(Graph.star(10))
        assert (rep.finite_value is not None) != rep.asymptotic_only
        assert rep.citation

    def test_fuzz_every_graph_classifies(self):
        rng = random.Random(777)
        seen = set()
        for _ in range(800):
            n = rng.randint(0, 20)
            p = rng.random()
            g = Graph.gnp(rng, n, p)
            params = SelectorParams(
                C=rng.choice((0.25, 0.5, 1.0, 2.0, 5.0)),
                eps=rng.choice((None, 0.1, 0.25, 0.5, 0.07)),
                alpha=rng.choice((None, 0.05, 0.2, 0.5)),
                beta=rng.choice((None, 0.6, 0.9)),
            )
            rep = regime_selector(g, params)
            seen.add(rep.regime)
            assert (rep.finite_value is not None) != rep.asymptotic_only
            if rep.finite_value is not None:
                assert rep.finite_value > 0
        assert len(seen) >= 5
