"""Named invariant checks behind the `verify` CLI command.

Every finite statement the package checks is defined here once, as a
zero-argument check returning its name, a pass flag and a short detail
string; on failure the detail carries a graph6 counterexample whenever one
exists.  Each check is declared once, with its suite, and `SUITES` lists
each suite's checks in definition order; "all" runs the suites one after
another.  The pytest suite reads these same checks, each run at most once
per session, and `run_check` times one check for both it and
`verify --timing`.
"""

from __future__ import annotations

import functools
import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations, product
from typing import Callable

from .bounds import phi
from .brightness import (
    brightness_exact,
    brightness_lower_bounds,
    brightness_mc,
)
from .coloring import _ColorContext, _traces, simulate
from .constructions import dtame_blowup, split_construction
from .graphs import (
    Graph,
    automorphism_count,
    complement,
    disjoint_union,
    to_graph6,
    with_isolated,
)
from .proba import (
    HypergeomParams,
    binom_point,
    binom_point_max_bound,
    hypergeom_point,
    lambda_split,
    multi_hypergeom_joint,
    poly_exp_check,
)
from .search import _classes
from .structure import (
    classify_vertices,
    is_obscure_oracle,
    is_tamed_by,
    minimal_taming_number,
    tame_witness_from,
)

E = math.e
MAX_N = 7  # the structure checks run over every graph with at most MAX_N vertices
MAX_M = 8  # the brightness checks run over every core with at most MAX_M vertices


CheckResult = namedtuple("CheckResult", "name ok detail")


Check = Callable[[], CheckResult]


SUITES: dict[str, list[Check]] = {}  # each suite's checks, in definition order


def _check(suite: str, name: str) -> Callable[[Callable[[], tuple[bool, str]]], Check]:
    """The check `name` made from a body returning (ok, detail), appended to
    `SUITES[suite]`."""

    def make(body: Callable[[], tuple[bool, str]]) -> Check:
        check = functools.wraps(body)(lambda: CheckResult(name, *body()))
        SUITES.setdefault(suite, []).append(check)
        return check

    return make


def _se(p: float, trials: int) -> float:
    """Standard error of a frequency p over `trials` draws, floored above 0."""
    return math.sqrt(max(p * (1 - p), 1e-12) / trials)


# -- appendix suite --------------------------------------------------------


@_check("appendix", "hypergeom_pmf_sums_to_one")
def _check_hypergeom_normalization():
    for seed, max_n in ((20240, 60), (20251, 70), (61, 80)):
        rng = random.Random(seed)
        for _ in range(200):
            n = rng.randint(1, max_n)
            r = rng.randint(0, n)
            k = rng.randint(0, n)
            total = sum(
                hypergeom_point(HypergeomParams(n, r, k, s)) for s in range(k + 1)
            )
            if total != 1:
                return False, f"n={n} r={r} k={k} sum={total}"
    return True, "600 random parameter sets, n <= 80"


@_check("appendix", "hypergeom_capped_by_binomial_mode")
def _check_hypergeom_binomial_cap():
    rng = random.Random(20241)
    for _ in range(40):
        k = rng.randint(2, 12)
        n = 10**4 * k
        r = rng.randint(1, n - 1)
        s = rng.randint(1, k - 1)
        pmf = hypergeom_point(HypergeomParams(n, r, k, s))
        cap = binom_point_max_bound(k, s)
        if float(pmf) > float(cap) + 0.01:
            return False, f"n={n} r={r} k={k} s={s}: {float(pmf)} > {float(cap)}+0.01"
    return True, "40 random large-population sets"


@_check("appendix", "joint_hits_capped_by_poisson_mass")
def _check_multi_joint_cap():
    n, k = 10**4, 100
    for seed, draws in ((20242, 5), (62, 1)):
        rng = random.Random(seed)
        for s in (1, 2):
            for f in (1, 2, 3):
                for _ in range(draws):
                    parts = tuple(rng.randint(1, n // (2 * f)) for _ in range(f))
                    pmf = multi_hypergeom_joint(n, k, parts, s)
                    if float(pmf) > phi(s) ** f + 0.05:
                        return False, f"s={s} f={f} parts={parts}: {float(pmf)}"
    # exact on a small grid: parts are consecutive blocks of range(n), each k-subset counted
    for n, parts in ((8, (3,)), (9, (2, 3)), (10, (2, 2, 3))):
        ends = list(accumulate(parts, initial=0))
        for k, s in product(range(n + 1), range(3)):
            hits = sum(all(sum(a <= v < b for v in sub) == s for a, b in zip(ends, ends[1:]))
                       for sub in combinations(range(n), k))
            if multi_hypergeom_joint(n, k, parts, s) != Fraction(hits, math.comb(n, k)):
                return False, f"n={n} k={k} parts={parts} s={s}: not {hits}/{math.comb(n, k)}"
    return True, "s in {1,2}, f in {1,2,3}, 6 draws each; exact for n <= 10"


@_check("appendix", "poisson_mass_strictly_decreasing")
def _check_phi_decreasing():
    ok = all(phi(s) > phi(s + 1) for s in range(1, 100)) and phi(100) < 0.04
    return ok, f"phi(100)={phi(100):.6f}"


@_check("appendix", "poisson_mass_is_binomial_limit")
def _check_phi_binomial_limit():
    for s in (1, 2, 3):
        val = float(binom_point(10**4, Fraction(s, 10**4), s))
        if abs(val - phi(s)) >= 1e-3:
            return False, f"s={s}: {val} vs {phi(s)}"
    return True, "s in {1,2,3} at k=10^4"


@_check("appendix", "poly_times_exp_capped")
def _check_poly_exp_grid():
    for s in range(1, 21):
        for i in range(501):
            x = i / 10
            lhs, rhs, ok = poly_exp_check(s, x)
            if not ok:
                return False, f"s={s} x={x}: {lhs} > {rhs}"
    return True, "grid s<=20, x<=50"


@_check("appendix", "lambda_interval_nonempty")
def _check_lambda_grid():
    # the slack exp(y+z) - y^2 e^2/4 - z e is nonnegative on the whole grid;
    # it is tight at (2, 0), the equality point of the poly-exp bound at s = 2
    for i in range(101):
        for j in range(101):
            y, z = i / 20, j / 20
            ls = lambda_split(y, z)  # raises loudly if the interval is empty
            slack = math.exp(y + z) - y * y * E * E / 4 - z * E
            if not (0 <= ls.lam <= 1 and ls.lo <= ls.lam <= ls.hi + 1e-12) or slack < -1e-9:
                return False, f"y={y} z={z}: {ls} slack={slack}"
    special = lambda_split(2 / E, 1 - 2 / E)
    ok = abs(special.lo - 1 / E) < 1e-12 and abs(special.hi - 2 / E) < 1e-12
    return ok, (
        f"grid y,z<=5 plus interval [{special.lo:.6f},{special.hi:.6f}] at the minimizer"
    )


@_check("appendix", "binomial_mode_is_maximum")
def _check_binomial_mode_sweep():
    for k, s in ((4, 2), (7, 3), (12, 5), (9, 1), (9, 4), (12, 1), (10, 3), (6, 5)):
        cap = binom_point_max_bound(k, s)
        for i in range(21):
            p = Fraction(i, 20)
            if binom_point(k, p, s) > cap:
                return False, f"k={k} s={s} p={p}"
    return True, "8 (k, s) pairs, p grid step 1/20, exact"


# -- structure suite -------------------------------------------------------


def _small_classes() -> list[Graph]:
    """One graph per isomorphism class with 1 to MAX_N vertices."""
    return [h for n in range(1, MAX_N + 1) for h in _classes(n)]


@_check("structure", "detectable_characterization")
def _check_detectable_characterization():
    graphs = _small_classes()
    for n in range(1, 6):  # and every labelled graph, so no labelling is favoured
        pairs = [(i, j) for j in range(n) for i in range(j)]
        for bits in range(1 << len(pairs)):
            graphs.append(Graph.from_edges(n, [p for b, p in enumerate(pairs) if bits >> b & 1]))
    checks = 0
    for h in graphs:
        obscure = classify_vertices(h).obscure
        for v in range(h.n):
            if h.adj[v] == 0:
                continue
            checks += 1
            if is_obscure_oracle(h, v) != (v in obscure):
                return False, f"graph {to_graph6(h)} vertex {v}"
    return True, (
        f"{checks} vertex checks over all graphs with n <= {MAX_N}"
        " and all labelled graphs with n <= 5"
    )


@_check("structure", "happy_count_floor")
def _check_happy_floor():
    for h in _small_classes():
        prof_m2 = sum(1 for row in h.adj if row.bit_count() >= 2)
        if len(classify_vertices(h).happy) < prof_m2:
            return False, to_graph6(h)
    return True, f"all graphs with n <= {MAX_N}"


@_check("structure", "detectable_deletion_keeps_an_edge")
def _check_detectable_deletion():
    for h in _small_classes():
        if h.edge_count() < 2:
            continue
        for v in classify_vertices(h).detectable:
            if h.edge_count() - h.adj[v].bit_count() < 1:
                return False, f"graph {to_graph6(h)} vertex {v}"
    return True, f"all graphs with n <= {MAX_N}"


def _witness_draws():
    """Three seeded streams of (rng, h); the caller draws each seed set next."""
    for seed, trials, lo, hi in ((4111, 1000, 0.15, 0.85), (12, 300, 0.1, 0.9)):
        rng = random.Random(seed)
        for _ in range(trials):
            n = rng.randint(1, 12)
            yield rng, Graph.gnp(rng, n, rng.uniform(lo, hi))
    rng = random.Random(20250)
    for _ in range(1000):
        n = rng.randint(1, 12)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < rng.choice((0.2, 0.5, 0.8))
        ]
        yield rng, Graph.from_edges(n, edges)


@_check("structure", "closure_witness_always_tames")
def _check_closure_witness():
    for rng, h in _witness_draws():
        s = {v for v in range(h.n) if rng.random() < 0.4}
        w = tame_witness_from(h, s)
        if not (w.valid and is_tamed_by(h, w.v0) and s <= w.v0):
            return False, f"{to_graph6(h)} s={sorted(s)}"
    return True, "2300 random (h, s) pairs: the closure contains s and tames h"


def _symmetric_hosts() -> tuple[Graph, ...]:
    """Paley(61), the 8x8 rook graph, the 6-cube and K32,32: symmetric graphs
    whose automorphism groups have closed-form orders."""
    squares = {x * x % 61 for x in range(1, 61)}
    pairs = [(u, v) for v in range(64) for u in range(v)]
    return (
        Graph.from_edges(61, [(u, v) for u, v in pairs if v < 61 and v - u in squares]),
        Graph.from_edges(64, [(u, v) for u, v in pairs if u % 8 == v % 8 or u // 8 == v // 8]),
        Graph.from_edges(64, [(u, v) for u, v in pairs if (u ^ v).bit_count() == 1]),
        Graph.complete_bipartite(32, 32),
    )


def _large_hosts() -> list[tuple[Graph, int]]:
    """Hosts with 20 to 64 vertices and their minimal taming numbers: n less
    the largest group for the blow-ups of P4 and K1,3 and the split host
    K6,14, and n - 1 for the twin-free Paley, rook and cube graphs."""
    paley, rook, cube, k32 = _symmetric_hosts()
    return [
        (dtame_blowup(Graph.path(4), {1, 2, 3}, 32).graph, 24),
        (dtame_blowup(Graph.star(3), {0}, 48).graph, 12),
        (split_construction(5, 2, 20, 0.3).graph, 6),
        (paley, 60), (rook, 63), (cube, 63), (k32, 32),
    ]


def _aut_floor_holds(h: Graph) -> bool:
    """|Aut(h)| >= (n - D)! for the minimal taming number D of h."""
    return automorphism_count(h) >= math.factorial(h.n - minimal_taming_number(h)[0])


@_check("structure", "aut_floor_from_taming")
def _check_aut_vs_taming():
    large = _large_hosts()
    named = [(Graph.path(4), 3), (Graph.star(3), 1)]
    for h, d in named + [(Graph.complete(k), 0) for k in range(MAX_N + 1)] + large:
        if minimal_taming_number(h)[0] != d:
            return False, f"{to_graph6(h)}: minimal taming number is not {d}"
    for h in _small_classes() + [h for h, _ in large]:
        if not _aut_floor_holds(h):
            return False, to_graph6(h)
    return True, (
        f"all graphs with n <= {MAX_N} and {len(large)} hosts with 20-64 vertices;"
        " D(P4)=3, D(K1,3)=1, D(Kk)=0 for k <= 7, D(K32,32)=32, D(Paley(61))=60"
    )


@_check("structure", "taming_complement_invariant")
def _check_taming_complement():
    large = [h for h, _ in _large_hosts()]
    for h in _small_classes() + large:
        if minimal_taming_number(h)[0] != minimal_taming_number(complement(h))[0]:
            return False, to_graph6(h)
    return True, f"all graphs with n <= {MAX_N} and {len(large)} hosts with 20-64 vertices"


# -- brightness suite ------------------------------------------------------


def _core_family():
    for m in range(2, MAX_M + 1):
        for h in _classes(m):
            if 0 in h.adj or h.edge_count() < 2:
                continue
            yield h


@_check("brightness", "brightness_floor_one_twelfth")
def _check_brightness_floor():
    floor = Fraction(1, 12)
    count = 0
    for h in _core_family():
        count += 1
        if brightness_exact(h) < floor:
            return False, to_graph6(h)
    return True, f"{count} cores with m <= {MAX_M}"


@_check("brightness", "closed_form_bounds_below_exact")
def _check_brightness_bounds():
    for h in _core_family():
        nu = brightness_exact(h)
        b = brightness_lower_bounds(h)
        if b.lb_m2 > nu or b.lb_m1 > nu or b.special_m1 > nu:
            return False, to_graph6(h)
    return True, f"all cores with m <= {MAX_M}"


@_check("brightness", "all_detectable_gives_one")
def _check_all_detectable():
    for h in _core_family():
        if len(classify_vertices(h).detectable) == h.n and brightness_exact(h) != 1:
            return False, to_graph6(h)
    return True, f"all cores with m <= {MAX_M}"


@_check("brightness", "brightness_ignores_isolated_vertices")
def _check_isolated_invariance():
    rng = random.Random(555)
    cases = [(Graph.gnp(rng, rng.randint(2, 6), 0.5), (1, 3)) for _ in range(30)]
    for h, extras in cases + [(Graph.path(3), (1, 2, 5))]:
        base = brightness_exact(h)
        for extra in extras:
            if brightness_exact(with_isolated(h, extra)) != base:
                return False, to_graph6(h)
    return True, "30 random cores, +1/+3 isolated; P3, +1/+2/+5 isolated"


@_check("brightness", "named_brightness_values")
def _check_named_brightness():
    p3 = Graph.path(3)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    ok = (
        brightness_exact(p3) == Fraction(1, 3)
        and brightness_exact(two_k2) == 1
        and brightness_exact(Graph.complete(3)) == 1
    )
    return ok, "P3=1/3, 2K2=1, K3=1"


@_check("brightness", "mc_interval_coverage")
def _check_mc_coverage():
    p3 = Graph.path(3)
    truth = Fraction(1, 3)
    hits = 0
    for seed in range(100):
        est = brightness_mc(p3, 2000, seed)
        if est.ci_low <= float(truth) <= est.ci_high:
            hits += 1
    return hits >= 90, f"{hits}/100 seeded intervals cover 1/3"


# -- coloring suite --------------------------------------------------------


@_check("coloring", "match_inside_signature_union")
def _check_coloring_inclusions():
    # the proven inclusions, P[A1 | match] >= 1/3 and the caps 2/e^2 and 1/e
    g = with_isolated(Graph.path(3), 7)
    h = with_isolated(Graph.path(3), 2)
    # unmutated traces stop within 10 steps, so the cap of 50 changes no count
    # and a kernel that never stops a trace fails in seconds, not minutes
    for trials, seed in ((50_000, 7), (100_000, 42)):
        s = simulate(g, h, trials, seed=seed, max_steps=50)
        ne = s.count_full_match
        p_a1 = s.count_two_green_and_match / max(ne, 1)
        p1 = s.freq(s.count_two_green_no_consecutive)
        p2 = s.freq(s.count_one_red)
        if not (
            s.match_outside_signatures == s.isolated_nonblack_violations == s.truncated == 0
            and s.count_two_green_and_match + s.count_one_red_and_match == ne > 0
            and p_a1 >= 1 / 3 - 3 * _se(p_a1, max(ne, 1))
            and p1 <= 2 / E**2 + 4 * _se(p1, trials)
            and p2 <= 1 / E + 4 * _se(p2, trials)
        ):
            return False, (
                f"seed={seed}: violations={s.match_outside_signatures},"
                f" isolated={s.isolated_nonblack_violations}, truncated={s.truncated},"
                f" matches={ne}, P[A1|match]={p_a1:.4f}, A1&!B={p1:.4f}, A2={p2:.4f}"
            )
    return True, (
        "violations=0, isolated=0 over 50000 + 100000 trials;"
        " P[A1|match] >= 1/3 and the caps 2/e^2, 1/e within their standard errors"
    )


@_check("coloring", "match_trace_shape")
def _check_match_trace_shape():
    # one trace per seed on one context, its steps not recorded; 3P3 matches
    # twice as often as P3 + 7K1
    g = functools.reduce(disjoint_union, [Graph.path(3)] * 3)
    h = with_isolated(Graph.path(3), 2)
    k = h.n
    rng = random.Random()

    def reseeded(seeds):
        for seed in seeds:
            rng.seed(seed)  # the state of random.Random(seed), without building one
            yield rng

    seen = 0
    traces = _traces(_ColorContext(g, h), reseeded(range(60_000)))
    for seed, (stop, green, red, _, _, _, full, two_green, one_red, _, truncated,
               violations) in enumerate(traces):
        if violations:
            return False, f"seed={seed}: an isolated arrival was not black"
        if not full or truncated:
            continue
        seen += 1
        if not (two_green or one_red) or green + red > 2 or stop not in (k - 1, k):
            return False, f"seed={seed} Y={green} Z={red} L={stop}"
    return seen >= 300, f"{seen} matching traces: a signature, Y+Z <= 2, L in {{k-1, k}}"


@_check("coloring", "consecutive_conditional_bound")
def _check_conditional_consecutive():
    # k = 20 puts the bound near 0.55; 6P3 matches three times as often as P3 + 61K1
    g = with_isolated(functools.reduce(disjoint_union, [Graph.path(3)] * 6), 46)
    h = with_isolated(Graph.path(3), 17)
    s = simulate(g, h, 30000, seed=11)
    ne = s.count_full_match
    if ne < 50:
        return False, f"only {ne} matches drawn"
    p = s.count_consecutive_and_match / ne
    bound = 3 * 3 / h.n + 4 * _se(p, ne)
    return p <= bound, f"P[consecutive|match]={p:.4f} <= {bound:.4f} ({ne} matches)"


@_check("coloring", "signature_probability_caps")
def _check_signature_caps():
    for extra_host, extra_pat, seed in ((7, 2, 3), (17, 5, 4)):
        g = with_isolated(Graph.path(3), extra_host)
        h = with_isolated(Graph.path(3), extra_pat)
        s = simulate(g, h, 20000, seed=seed)
        p1 = s.freq(s.count_two_green_no_consecutive)
        p2 = s.freq(s.count_one_red)
        if p1 > 2 / E**2 + 4 * _se(p1, s.trials) or p2 > 1 / E + 4 * _se(p2, s.trials):
            return False, f"host+{extra_host}: A1&!B={p1:.4f}, A2={p2:.4f}"
    return True, "two host sizes, 20000 trials each"


def run_check(check: Check) -> tuple[CheckResult, float]:
    """One check's result and its elapsed wall-clock seconds."""
    start = time.perf_counter()
    result = check()
    return result, time.perf_counter() - start


def run_suite(name: str) -> list[tuple[CheckResult, float]]:
    """Every check of suite `name`, or of every suite in order for "all", timed."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    tables = SUITES.values() if name == "all" else [SUITES[name]]
    return [run_check(check) for table in tables for check in table]
