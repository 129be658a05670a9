"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

from inducibility.bounds import (
    find_sparse_alpha,
    high_degree_pair_bound,
    phi,
    sparse_regime_bound,
)
from inducibility.brightness import brightness_exact, brightness_lower_bounds
from inducibility.cli import main as cli_main
from inducibility.coloring import simulate
from inducibility.constructions import split_construction
from inducibility.graphs import (
    Graph,
    automorphism_count,
    complement,
    is_isomorphic,
    with_isolated,
)
from inducibility.proba import (
    HypergeomParams,
    binom_point,
    binom_point_max_bound,
    hypergeom_point,
    lambda_split,
    poly_exp_check,
)
from inducibility.search import _classes, ind_exact
from inducibility.structure import (
    classify_vertices,
    is_obscure_oracle,
    is_tamed_by,
    minimal_taming_number,
    tame_witness_from,
)

E = math.e


def report(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d}: PASS - {label}{suffix}")


def test_criterion_01_detectability_characterization():
    start = time.monotonic()
    checks = 0
    for n in range(1, 8):
        for h in _classes(n):
            obscure = classify_vertices(h).obscure
            for v in range(n):
                if h.adj[v] == 0:
                    continue
                checks += 1
                assert is_obscure_oracle(h, v) == (v in obscure), (h, v)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(1, "obscurity oracle equals happy-or-degree-1 classifier",
           f"{checks} vertices over all graphs n <= 7 in {elapsed:.1f}s")


def test_criterion_02_brightness_floor_and_bounds():
    start = time.monotonic()
    floor = Fraction(1, 12)
    cores = 0
    for m in range(2, 8):
        for h in _classes(m):
            if h.isolated_mask() or h.edge_count() < 2:
                continue
            cores += 1
            nu = brightness_exact(h)
            assert nu >= floor, h
            b = brightness_lower_bounds(h)
            assert b.lb_m2 <= nu and b.lb_m1 <= nu and b.special_m1 <= nu, h
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(2, "brightness >= 1/12 and closed-form bounds below exact",
           f"{cores} cores with m <= 7 in {elapsed:.1f}s")


def test_criterion_03_named_brightness_values():
    p3 = Graph.path(3)
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert brightness_exact(p3) == Fraction(1, 3)
    assert brightness_exact(two_k2) == 1
    assert brightness_exact(Graph.complete(3)) == 1
    for m in range(2, 8):
        for h in _classes(m):
            if h.isolated_mask() or h.edge_count() < 2:
                continue
            if len(classify_vertices(h).detectable) == h.n:
                assert brightness_exact(h) == 1, h
    report(3, "nu(P3)=1/3, nu(2K2)=nu(K3)=1, all-detectable implies nu=1")


def test_criterion_04_taming():
    import random

    rng = random.Random(20250)
    for _ in range(1000):
        n = rng.randint(1, 12)
        h = Graph.from_edges(
            n,
            [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < rng.choice((0.2, 0.5, 0.8))
            ],
        )
        s = {v for v in range(n) if rng.random() < 0.4}
        w = tame_witness_from(h, s)
        assert w.valid and is_tamed_by(h, w.v0)
    assert minimal_taming_number(Graph.path(4))[0] == 3
    assert minimal_taming_number(Graph.star(3))[0] == 1
    for k in range(1, 8):
        assert minimal_taming_number(Graph.complete(k))[0] == 0
    for n in range(1, 8):
        for h in _classes(n):
            d, _ = minimal_taming_number(h)
            assert automorphism_count(h) >= math.factorial(n - d), h
    report(4, "taming witnesses, named minima, aut >= (n-D)! for n <= 7")


def test_criterion_05_finite_formula_constants():
    assert abs(sparse_regime_bound(0, 1) - 2 / E**2) <= 1e-9
    assert abs(high_degree_pair_bound(1, 1) - 1 / E**2) <= 1e-9
    _, c = find_sparse_alpha()
    assert 2 / E**2 <= c < 1 / E
    assert all(phi(s) > phi(s + 1) for s in range(1, 100))
    report(5, "formula constants reproduce 2/e^2 and 1/e^2 to 1e-9;"
              " sparse constant in [2/e^2, 1/e); phi decreasing")


def test_criterion_06_appendix_verification():
    import random

    rng = random.Random(20251)
    for _ in range(200):
        n = rng.randint(1, 70)
        r = rng.randint(0, n)
        k = rng.randint(0, n)
        assert (
            sum(hypergeom_point(HypergeomParams(n, r, k, s)) for s in range(k + 1))
            == 1
        )
    for s in range(1, 21):
        for i in range(501):
            assert poly_exp_check(s, i / 10)[2], (s, i / 10)
    for i in range(101):
        for j in range(101):
            ls = lambda_split(i / 20, j / 20)
            assert ls.lo <= ls.hi + 1e-12
    special = lambda_split(2 / E, 1 - 2 / E)
    assert abs(special.lo - 1 / E) <= 1e-12 and abs(special.hi - 2 / E) <= 1e-12
    for k, s in ((4, 2), (9, 4), (12, 1)):
        cap = binom_point_max_bound(k, s)
        for i in range(21):
            assert binom_point(k, Fraction(i, 20), s) <= cap
    report(6, "pmf normalization, poly-exp grid, lambda interval"
              " ([1/e, 2/e] at the minimizer), binomial mode sweep")


def test_criterion_07_constructions():
    rep = split_construction(3, 1, 300, 1 / 3)
    assert rep.achieved == Fraction(1990000, 4455100)
    rep = split_construction(100, 1, 10_000, 1 / 100)
    assert abs(rep.limit_formula - 1 / E) <= 0.002
    rep = split_construction(200, 2, 40_000, 2 / 200)
    assert abs(rep.limit_formula - 2 / E**2) <= 0.01
    report(7, "split achieved exact at n=300; limits near 1/e and 2/e^2")


def test_criterion_08_search():
    start = time.monotonic()
    p3 = Graph.path(3)
    res = ind_exact(p3, 4)
    assert res.value == 1 and is_isomorphic(res.witness, Graph.cycle(4))
    for h in _classes(4):
        values = [ind_exact(h, n).value for n in range(4, 8)]
        assert all(values[i] >= values[i + 1] for i in range(3)), h
        for n in (4, 5, 6):
            assert ind_exact(h, n).value == ind_exact(complement(h), n).value
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(8, "ind(P3,4)=1 with C4 witness; monotone and complement-symmetric",
           f"11 patterns, n in 4..7, {elapsed:.1f}s")


def test_criterion_09_coloring_simulation():
    start = time.monotonic()
    g = with_isolated(Graph.path(3), 7)
    h = with_isolated(Graph.path(3), 2)
    s = simulate(g, h, 100_000, seed=42)
    assert s.match_outside_signatures == 0
    assert s.isolated_nonblack_violations == 0
    ne = s.count_full_match
    assert ne > 0
    p_a1 = s.count_two_green_and_match / ne
    se = math.sqrt(max(p_a1 * (1 - p_a1), 1e-12) / ne)
    assert p_a1 >= 1 / 3 - 3 * se
    p1 = s.count_two_green_no_consecutive / s.trials
    se1 = math.sqrt(max(p1 * (1 - p1), 1e-12) / s.trials)
    assert p1 <= 2 / E**2 + 4 * se1
    p2 = s.count_one_red / s.trials
    se2 = math.sqrt(max(p2 * (1 - p2), 1e-12) / s.trials)
    assert p2 <= 1 / E + 4 * se2
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(9, "coloring: zero inclusion violations, conditional floor"
              " and caps hold", f"{ne} matching traces in {elapsed:.1f}s")


def test_criterion_10_cli_determinism(capsys):
    # each command's stdout SHA-256, recorded before the Monte-Carlo
    # substreams stopped running on a thread pool
    commands = [
        (["classify", "Bg"],
         "11304c10d46376b55cd314a685198b14258a33b24880b0eda06ec8583b353a30"),
        (["brightness", "Bg", "--mc", "3000", "--seed", "1"],
         "069170f3ca4d7dc74cac7c93bc7369291596854ee878f31aaa51ebf440b3c32a"),
        (["density", "Bg", "DQc", "--mc", "1500", "--seed", "5"],
         "22a022a9b95709b5f3ff8d8a81ca1bd7aacf99bae7059356c893d7ff72e0f031"),
        (["ind", "Bg", "--n", "5", "--search", "--iters", "200", "--seed", "2"],
         "482653966ed9593356320d3e71aed48ca10b10f1603ea0f88d301ef78397d205"),
        (["construct", "gnp", "--k", "4", "--n", "10", "--seed", "8"],
         "1e38439253fd14d5f075847c3b17dea40f4778e5e85596e27ed9ac685b849004"),
        (["simulate-coloring", "Dg?", "Cg", "--trials", "600", "--seed", "6"],
         "3bbefa4cbed06227a93ce4631a90a0d992d42a9bd94e443fdf568b150ec22818"),
        (["proba", "lambda", "--y", "0.5", "--z", "0.5"],
         "bca40f8197b8f4f6a56f2637f05d5bcb878c53c07fa0c41743f8a06053d5797d"),
    ]
    for argv, digest in commands:
        outputs = []
        for _ in range(3):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            assert code == 0, (argv, out)
            outputs.append(out.encode())
        assert outputs[0] == outputs[1] == outputs[2], argv
        assert hashlib.sha256(outputs[0]).hexdigest() == digest, argv
        json.loads(outputs[0])  # well-formed single JSON document
    report(10, "seeded CLI output byte-identical across runs and pinned")
