"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 01-04, 06 and 09 (and the phi line of 05) are checks of
`inducibility.verify`, which pins their tolerances; they are read from the
session's `verified` fixture, so each check runs once per test session and
`inducibility verify all` runs the same definitions.  Criterion 08 reads
the session's `exact_table`, the `ind_exact` values that
`tests/test_search.py` pins and checks.  The other tolerances are pinned
here.
"""

import hashlib
import json
import math
from fractions import Fraction

from inducibility import verify
from inducibility.bounds import (
    find_sparse_alpha,
    high_degree_pair_bound,
    sparse_regime_bound,
)
from inducibility.cli import main as cli_main
from inducibility.constructions import split_construction
from inducibility.graphs import Graph, canonical_key, is_isomorphic

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


def test_criterion_08_search(exact_table):
    res = exact_table[canonical_key(Graph.path(3)), 4]
    assert res.value == 1 and is_isomorphic(res.witness, Graph.cycle(4))
    assert exact_table.faults == []
    assert exact_table.seconds < 1800
    report(8, "ind(P3,4)=1 with C4 witness; every class on 2-5 vertices for"
              " n <= 8 monotone, complement-symmetric, Brown-Sidorenko where"
              " bipartite, witnesses recounted by brute force",
           f"{len(exact_table.patterns)} patterns, {len(exact_table)} values"
           f" in {exact_table.seconds:.1f}s")


def test_criterion_09_coloring_simulation(verified):
    elapsed = passed(verified, verify._check_coloring_inclusions)
    assert elapsed < 120
    report(9, "coloring: zero inclusion violations, conditional floor"
              " and caps hold", f"{elapsed:.1f}s")


STAR20 = "TsaCCA?_C?O?_?_?O?C??_?A??C??C??A???"

# SHA-256 of the stdout of each seeded command and of one command line per
# output schema: the one table of pinned CLI digests, asserted only by
# criterion 10
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
        "a4966a2dcfc2ede3a932f3a6f29488ea9f5b5e15b2bc3cd45a39fdad890fff80",
    ("tame", "Cr"):
        "8327577bf808e260a9dd9830b23939eada476d96740463fc75036f6204c02e01",
    ("tame", "Cr", "--set", "0"):
        "8af1dee13931a1ad2cbee40c84fd2c32b529d47a78d86786b581e0f9e1df4a16",
    ("tame", "Cr", "--set", ""):
        "ddd5dd1df22beee324a089a12985dccecabec8863edd7c3b4cc614b6919c03b9",
    ("classify", "A_"):
        "22fb57890db7c9bf1c733476f93460282abd3509c7610466211bbaedb47dff06",
    ("classify", "KhCGGC@?G?_@", "--mc", "400", "--seed", "3"):
        "2b8293160284e66c0ec237a87e7754b6e9ba996f9fc0cb271d001897b7609229",
    ("brightness", "Dhc", "--mc", "0"):
        "22b321236f70eb7e0a927e5e378782b6e6b5d2cfe2afde35567f49e84f76ff0c",
    ("density", "Bg", "DQc"):
        "a893841023525b04f37073fd5bc019cb69f6be2c084bcf3df781b1aa931859ba",
    ("ind", "Bg", "--n", "6", "--exact"):
        "afd6da3f676cf0bcf60cc49ecee9f0b85023319606bd337b04be83389ab7187e",
    ("construct", "split", "--k", "3", "--r", "1", "--n", "300", "--sigma",
     "0.3333333333333333"):
        "140ad1ad7aa14f1fcc940ce6accb05d6b8fb78f9750057c2f3336734b964b04a",
    ("construct", "split-plus-edge", "--k", "4", "--n", "8"):
        "6bb3781f16fccc46db46929df55977bb37a7bbb7143f45f3f83b27761b401068",
    ("construct", "blowup", "Cr", "--v0", "0,3", "--n", "32"):
        "307b0fbbb005ff0d09ea6edd51c2f7b65254f3d92ae7893e8c786725307aac6a",
    ("bounds", "phi", "--s", "2"):
        "32fb21cb1010eb9666b6132e8928568cb9bab764fe57116dfdd06329ed83556f",
    ("bounds", "high-degree", "--s", "2", "--ind-reduced", "0.5"):
        "4e1247d1ebded2140524df3831b2f634bc9ffb907b914dbeac72f5a4d632b0e3",
    ("bounds", "high-degree", "--s", "1", "--t", "2"):
        "556ade6ca65abbc1eba008ed4777025b4f09084b58fd3feff303a8ece17313c8",
    ("bounds", "uniform", "--tau", "1", "--beta", "0.5", "--eps", "0.03125"):
        "88e9ddb538b87265100577ebb9a99176585e2e7f08e916f76e5095049b60daf7",
    ("bounds", "sparse", "--alpha", "0.01", "--nu", "0.5"):
        "c024fb1967a46e78e9abef616a2f3b8662868e27eef071df3692a78392688487",
    ("bounds", "gap", STAR20, "--eps", "0.5", "--c", "1.0"):
        "76834675cb0de11cc5964b94f4147b3935962d76ce23439025c56e8cdc0e8184",
    ("bounds", "select", "DQc", "--c", "1.0"):
        "bd39e14bf12b87a71fafad466435555c7c6d6dc58e87473f9984b72ae3962664",
    ("bounds", "select", STAR20, "--eps", "0.1", "--alpha", "0.01", "--beta", "0.9"):
        "bedd3d0867ca99c0796a47aced4abb1dfa2c9e2e17a9c40077b3c6c81da062f2",
    ("bounds", "solve-eps", "--c", "2.0"):
        "76e6ce5d2344f0d167bf113810a5910f259441bc52d3e79c8ed255030b74a63a",
    ("proba", "binom", "--k", "4", "--p", "1/3", "--s", "2"):
        "b6c1756ab7e57e47a250114704e84d9bbc7e62d38779d7a74bfede6d4b1d9808",
    ("proba", "hypergeom", "--population", "50", "--successes", "10", "--sample",
     "5", "--hits", "2"):
        "9111c7400d1cacb2e199d420761140872bd29d9e7be005fd15821442ab866737",
    ("proba", "multi", "--population", "6", "--sample", "3", "--parts", "2,2",
     "--s", "1"):
        "b5f1c12c26580c45b66fc1744b2d26c4e33985f1997447740d2733437020664a",
}


def test_criterion_10_cli_determinism(capsys):
    # every line runs before any assertion, so a failure names each mismatch
    mismatches = []
    for argv, digest in CLI_STDOUT_SHA256.items():
        runs = []
        for _ in range(3):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        code, out, err = runs[0]
        if code != 0:
            mismatches.append(f"{' '.join(argv)}: exit {code}: {err.strip()}")
        elif runs.count(runs[0]) != 3:
            mismatches.append(f"{' '.join(argv)}: the three runs differ")
        elif hashlib.sha256(out.encode()).hexdigest() != digest:
            mismatches.append(f"{' '.join(argv)}: digest of {out.strip()}")
        else:
            json.loads(out)  # well-formed single JSON document
    assert not mismatches, "\n".join(mismatches)
    report(10, "pinned CLI output byte-identical across runs",
           f"{len(CLI_STDOUT_SHA256)} command lines")
