"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 01-04, 06 and 09 (and the phi line of 05) are checks of
`inducibility.verify`, which pins their tolerances; they are read from the
session's `verified` fixture, so each check runs once per test session and
`inducibility verify all` runs the same definitions.  The other tolerances
are pinned here.
"""

import hashlib
import json
import math
import time
from fractions import Fraction

from inducibility import verify
from inducibility.bounds import (
    find_sparse_alpha,
    high_degree_pair_bound,
    sparse_regime_bound,
)
from inducibility.cli import main as cli_main
from inducibility.constructions import split_construction
from inducibility.graphs import Graph, complement, is_isomorphic
from inducibility.search import _classes, ind_exact

E = math.e


def report(num, label, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d}: PASS - {label}{suffix}")


def passed(verified, *checks):
    """Assert that the named verify checks passed; the seconds they took."""
    for check in checks:
        assert verified(check).ok, verified(check)
    return sum(verified.seconds[check] for check in checks)


def test_criterion_01_detectability_characterization(verified):
    check = verify._check_detectable_characterization
    elapsed = passed(verified, check)
    assert elapsed < 300
    report(1, "obscurity oracle equals happy-or-degree-1 classifier",
           f"{verified(check).detail} in {elapsed:.1f}s")


def test_criterion_02_brightness_floor_and_bounds(verified):
    floor = verify._check_brightness_floor
    elapsed = passed(verified, floor, verify._check_brightness_bounds)
    assert elapsed < 600
    report(2, "brightness >= 1/12 and closed-form bounds below exact",
           f"{verified(floor).detail} in {elapsed:.1f}s")


def test_criterion_03_named_brightness_values(verified):
    passed(verified, verify._check_named_brightness, verify._check_all_detectable)
    report(3, "nu(P3)=1/3, nu(2K2)=nu(K3)=1, all-detectable implies nu=1")


def test_criterion_04_taming(verified):
    passed(verified, verify._check_closure_witness, verify._check_aut_vs_taming)
    report(4, "taming witnesses, named minima, aut >= (n-D)! for n <= 7")


def test_criterion_05_finite_formula_constants(verified):
    assert abs(sparse_regime_bound(0, 1) - 2 / E**2) <= 1e-9
    assert abs(high_degree_pair_bound(1, 1) - 1 / E**2) <= 1e-9
    _, c = find_sparse_alpha()
    assert 2 / E**2 <= c < 1 / E
    passed(verified, verify._check_phi_decreasing)
    report(5, "formula constants reproduce 2/e^2 and 1/e^2 to 1e-9;"
              " sparse constant in [2/e^2, 1/e); phi decreasing")


def test_criterion_06_appendix_verification(verified):
    passed(verified, verify._check_hypergeom_normalization,
           verify._check_poly_exp_grid, verify._check_lambda_grid,
           verify._check_binomial_mode_sweep)
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
        values = [ind_exact(h, n).value for n in range(4, 9)]
        assert all(values[i] >= values[i + 1] for i in range(4)), h
        for n in (4, 5, 6):
            assert ind_exact(h, n).value == ind_exact(complement(h), n).value
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(8, "ind(P3,4)=1 with C4 witness; monotone and complement-symmetric",
           f"11 patterns, n in 4..8, {elapsed:.1f}s")


def test_criterion_09_coloring_simulation(verified):
    elapsed = passed(verified, verify._check_coloring_inclusions)
    assert elapsed < 120
    report(9, "coloring: zero inclusion violations, conditional floor"
              " and caps hold", f"{elapsed:.1f}s")


# SHA-256 of each seeded command's stdout, the one table of pinned CLI
# digests (tests/test_cli.py reads its determinism cases from it)
CLI_STDOUT_SHA256 = {
    ("classify", "Bg"):
        "11304c10d46376b55cd314a685198b14258a33b24880b0eda06ec8583b353a30",
    ("brightness", "Bg", "--mc", "3000", "--seed", "1"):
        "069170f3ca4d7dc74cac7c93bc7369291596854ee878f31aaa51ebf440b3c32a",
    ("density", "Bg", "DQc", "--mc", "1500", "--seed", "5"):
        "22a022a9b95709b5f3ff8d8a81ca1bd7aacf99bae7059356c893d7ff72e0f031",
    ("ind", "Bg", "--n", "5", "--search", "--iters", "200", "--seed", "2"):
        "482653966ed9593356320d3e71aed48ca10b10f1603ea0f88d301ef78397d205",
    ("construct", "gnp", "--k", "4", "--n", "10", "--seed", "8"):
        "1e38439253fd14d5f075847c3b17dea40f4778e5e85596e27ed9ac685b849004",
    ("simulate-coloring", "Dg?", "Cg", "--trials", "600", "--seed", "6"):
        "3bbefa4cbed06227a93ce4631a90a0d992d42a9bd94e443fdf568b150ec22818",
    ("proba", "lambda", "--y", "0.5", "--z", "0.5"):
        "bca40f8197b8f4f6a56f2637f05d5bcb878c53c07fa0c41743f8a06053d5797d",
    ("brightness", "Bg", "--mc", "2000", "--seed", "1"):
        "a9a0bccea67922ca47b5f8557468b7b306ef2ad630e4dec0230844dba2fd5065",
    ("density", "Bg", "DQc", "--mc", "1000", "--seed", "5"):
        "0b80c61495b29fba8679fbc115a95d49a0e4821f8098b0e25ce7d543d18545fb",
    ("ind", "Bg", "--n", "5", "--search", "--iters", "150", "--seed", "2"):
        "60e4b1c1dcab7cbb982bd777a0728220425f20e6759e077c4f38e8e7c14b9fee",
    ("simulate-coloring", "DQc", "Cl", "--trials", "400", "--seed", "6"):
        "6d6ac16b4071d2053f56dc74ad2ee867ba3c79538d591ec4bf311f6bd19f7438",
    ("bounds", "alpha"):
        "df72745c0820f68a64d9604a7efc086020802e38ca214533a0f69dd3800169ac",
}


def test_criterion_10_cli_determinism(capsys):
    for argv, digest in CLI_STDOUT_SHA256.items():
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
