import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inducibility
from inducibility import cli, search, structure
from inducibility.cli import main
from inducibility.graphs import Graph, parse_graph6, to_graph6, with_isolated
from inducibility.structure import is_tamed_by
from inducibility.verify import SUITES, CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: it holds {name}")


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    doc = json.loads(out, parse_constant=_reject_constant)
    assert doc["version"] == "0.1.0"
    assert "elapsed_ms" not in doc
    return doc


def run_refused(capsys, exit_code, *argv):
    """A command line refused by argparse (its SystemExit) or by its handler
    (the return code): the given exit code, no stdout and one JSON error
    line on stderr carrying that code.  Returns the error message."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == exit_code, captured.err
    assert captured.out == ""
    [line] = captured.err.splitlines()
    doc = json.loads(line)
    assert doc["exit"] == exit_code
    return doc["error"]


def patch_run(monkeypatch, path, run):
    """Make the command at `path` run `run` in place of its row's function."""
    monkeypatch.setitem(cli.COMMANDS, path, cli.COMMANDS[path]._replace(run=run))


P12 = to_graph6(Graph.path(12))
# P12 plus two isolated vertices: a 12-vertex core needs Monte Carlo
P12_ISOLATED = to_graph6(with_isolated(Graph.path(12), 2))
HUGE_N = "1" + "0" * 400

# Every refused command line that needs no patch, file, pipe or stdin, keyed by
# the test that runs it, then by case id for a parametrized test:
# (argv, exit code, a fragment of its error message, seconds it must end in)
REFUSED = {
    "test_parse_error_exit_2": (("classify", "!!"), 2, "byte 33 out of range", 5),
    # exact brightness (a small core), none (one edge) and Monte Carlo
    "test_negative_mc_exit_2": {
        f"{cmd}-{graph}": ((cmd, graph, "--mc", "-3"), 2, "mc samples must be >= 0, got -3", 5)
        for cmd, graph in [("classify", "C~"), ("classify", "A_"), ("classify", P12),
                           ("brightness", "C~")]
    },
    "test_zero_mc_over_the_exact_limit_exit_2": {
        cmd: ((cmd, P12_ISOLATED, "--mc", "0"), 2,
              "the core has 12 non-isolated vertices, over the exact limit of 10:"
              " mc samples must be >= 1, got 0", 5) for cmd in ("classify", "brightness")
    },
    "test_negative_iters_exit_2": (("ind", "C~", "--n", "6", "--search", "--iters", "-5"), 2,
                                   "iters must be >= 0", 5),
    "test_exact_size_limit_exit_3": (("ind", "Bg", "--n", "12", "--exact"), 3,
                                     "ind_exact supports n <= 9, got 12", 5),
    # random.Random(-s) is random.Random(s): a negative seed would repeat a positive run
    "test_negative_seed_exit_2": {
        "ind": (("ind", "Bg", "--n", "5", "--search", "--iters", "150", "--seed", "-2"), 2,
                "seed must be >= 0", 5),
        "construct": (("construct", "gnp", "--k", "4", "--n", "10", "--seed", "-8"), 2,
                      "seed must be >= 0", 5),
    },
    # eps*k is 0 on the 0-vertex graph, and no degree gap exists there either
    "test_bounds_gap_without_edges_exit_3": {
        graph: (("bounds", "gap", graph, "--eps", "0.1", "--c", "1"), 3, "max degree 0", 5)
        for graph in ("?", "@", "A?")
    },
    "test_bounds_int_below_1_exit_2": {
        case: (("bounds", *argv), 2, "must be an integer >= 1", 5) for case, argv in [
            ("phi-s", ("phi", "--s", "-1")),
            ("high-degree-s", ("high-degree", "--s", "0")),
            ("high-degree-t", ("high-degree", "--s", "2", "--t", "0")),
            ("uniform-tau", ("uniform", "--tau", "0", "--beta", "0.5", "--eps", "0.1")),
        ]
    },
    "test_bounds_select_out_of_range_exit_2": {
        case: (("bounds", "select", "DQc", *flags), 2, fragment, 5) for case, flags, fragment in [
            ("alpha", ("--alpha", "-1", "--eps", "0.9"), "alpha must be nonnegative"),
            ("beta-negative", ("--beta", "-1"), "beta must be in (0, 1]"),
            ("beta-above-1", ("--beta", "1.5"), "beta must be in (0, 1]"),
            ("eps", ("--eps", "0"), "C and eps must be positive"),
            ("c", ("--c", "-1", "--eps", "0.5"), "C and eps must be positive"),
        ]
    },
    "test_bounds_uniform_eps_rounding_to_0_exit_2": (
        ("bounds", "uniform", "--tau", "1", "--beta", "0.01", "--eps", "1e-300"), 2,
        "rounds to 0", 5),
    "test_bounds_gap_rounding_to_0_exit_2": {
        case: (("bounds", *argv), 2, "rounds to 0", 5) for case, argv in [
            ("gap-eps", ("gap", "Bg", "--eps", "1e-300", "--c", "1")),
            ("gap-c", ("gap", "Bg", "--eps", "0.5", "--c", "1e-300")),
            ("select-eps", ("select", "DQc", "--eps", "1e-300")),
        ]
    },
    # no --eps: the eps derived from C = 1e10 is 2.2e-13, a rational 0
    "test_bounds_select_derived_eps_rounding_to_0_exit_3": (
        ("bounds", "select", "DQc", "--c", "1e10"), 3,
        "the eps derived from C = 10000000000.0, 2.2117216823911532e-13, rounds to 0"
        " at the 1e-12 resolution of rationals; pass --eps", 5),
    "test_bounds_sparse_overflow_exit_2": (("bounds", "sparse", "--alpha", "1e308", "--nu", "0.5"),
                                           2, "overflows", 5),
    # f = 3162, and 36.8^3162 is past the float range
    "test_bounds_uniform_overflow_exit_2": (
        ("bounds", "uniform", "--tau", "1", "--beta", "0.01", "--eps", "1e-9"), 2,
        "uniform bound overflows", 5),
    "test_select_has_no_gamma_flag": (("bounds", "select", "Bg", "--gamma", "0.4"), 2,
                                      "--gamma", 5),
    "test_proba_unprintable_denominator_exit_3": {
        case: (("proba", *argv), 3, "4300 digits", 1) for case, argv in [
            ("binom-first-over", ("binom", "--k", "9013", "--p", "1/3", "--s", "2")),
            ("binom-huge-k", ("binom", "--k", "100000000", "--p", "1/3", "--s", "2")),
            ("hypergeom", ("hypergeom", "--population", "100000", "--successes", "50000",
                           "--sample", "50000", "--hits", "25000")),
            ("multi", ("multi", "--population", "100000", "--sample", "50000",
                       "--parts", "1000,1000", "--s", "500")),
        ]
    },
    "test_proba_unparsable_rational_exit_2": {
        p: (("proba", "binom", "--k", "3", "--p", p, "--s", "1"), 2,
            f"cannot parse rational {p!r}", 5) for p in ("abc", "1/0")
    },
    "test_split_impossible_event_exit_2": (
        ("construct", "split", "--k", "5", "--r", "1", "--n", "5", "--sigma", "0.5"), 2,
        "large part 2 cannot host 4 picks", 5),
    "test_input_error_exit_codes": {
        "tame-set-out-of-range": (("tame", "Bg", "--set", "9"), 2,
                                  "vertex 9 out of range for n=3", 5),
        "simulate-pattern-above-host": (("simulate-coloring", "Bg", "Cr", "--trials", "10"), 2,
                                        "pattern has 4 vertices but host only 3", 5),
        "solve-eps-c-0": (("bounds", "solve-eps", "--c", "0"), 2, "C must be positive", 5),
        "search-pattern-above-n": (("ind", "Cr", "--n", "3", "--search", "--iters", "1"), 2,
                                   "pattern has 4 vertices but n = 3", 5),
        "search-n-41": (("ind", "Bg", "--n", "41", "--search", "--iters", "1"), 3,
                        "ind_local_search supports n <= 40, got 41", 5),
        "split-n-past-float": (("construct", "split", "--k", "3", "--r", "1", "--n", HUGE_N,
                                "--sigma", "0.5"), 3, "n is past the float range", 5),
        "split-plus-edge-n-past-float": (("construct", "split-plus-edge", "--k", "4",
                                          "--n", HUGE_N), 3, "n is past the float range", 5),
        "split-achieved-digits": (("construct", "split", "--k", "20000", "--r", "1",
                                   "--n", "40000", "--sigma", "0.5"), 3,
                                  "an output value passes 4300 digits", 5),
        # C(10^9, 10^6) has 3.4 million digits; times 10^6 they pass the work budget
        **{f"{family}-event-budget": (
            ("construct", family, "--k", "1000000", "--n", "1000000000", *flags), 3,
            "the exact event probability is out of reach", 1)
           for family, flags in [("split", ("--r", "1", "--sigma", "0.5")),
                                 ("split-plus-edge", ())]},
        "multi-no-parts-negative-s": (("proba", "multi", "--population", "5", "--sample", "2",
                                       "--parts", "", "--s", "-1"), 2,
                                      "s must be nonnegative", 5),
    },
    "test_blowup_of_the_empty_pattern_exit_2": (("construct", "blowup", "?", "--n", "3"), 2,
                                                "0-vertex pattern", 5),
    "test_blowup_invalid_taming_set_exit_3": (
        ("construct", "blowup", to_graph6(Graph.path(4)), "--v0", "1,2", "--n", "8"), 3,
        "v0 is not a taming set of h", 5),
    # rejected before any host is built
    "test_construct_gnp_oversized_exit_2": (("construct", "gnp", "--k", "4", "--n", "100000"), 2,
                                            "above the 64-vertex limit", 5),
    "test_flag_the_mode_does_not_read_exit_2": {
        case: (argv, 2, "is not read", 5) for case, argv in [
            ("exact-iters", ("ind", "Bg", "--n", "5", "--exact", "--iters", "5")),
            ("exact-seed", ("ind", "Bg", "--n", "5", "--exact", "--seed", "3")),
            ("density-seed-without-mc", ("density", "Bg", "DQc", "--seed", "3")),
            ("t-and-ind-reduced", ("bounds", "high-degree", "--s", "2", "--t", "2",
                                   "--ind-reduced", "0.5")),
        ]
    },
    "test_malformed_int_list_exit_2": {
        case: (argv, 2, "comma-separated integers", 5) for case, argv in [
            ("set-letter", ("tame", "Cr", "--set", "a")),
            ("set-empty-item", ("tame", "Cr", "--set", "0,,1")),
            ("v0", ("construct", "blowup", "Cr", "--v0", "x", "--n", "8")),
            ("parts", ("proba", "multi", "--population", "6", "--sample", "3",
                       "--parts", "5,x", "--s", "1")),
        ]
    },
    "test_non_finite_float_exit_2": {
        f"{argv[0]}-{argv[1]}": (argv, 2, "not a finite number", 5) for argv in [
            ("construct", "split", "--k", "3", "--r", "1", "--n", "30", "--sigma", "nan"),
            ("bounds", "high-degree", "--s", "2", "--ind-reduced", "inf"),
            ("bounds", "uniform", "--tau", "1", "--beta", "0.5", "--eps", "inf"),
            ("bounds", "sparse", "--alpha", "nan", "--nu", "0.5"),
            ("bounds", "gap", "Bg", "--eps", "nan", "--c", "1.0"),
            ("bounds", "select", "Bg", "--beta=-inf"),
            ("bounds", "solve-eps", "--c", "nan"),
            ("proba", "lambda", "--y=-Infinity", "--z", "0.5"),
        ]
    },
    "test_argparse_error_is_one_json_line": {
        case: (argv, 2, fragment, 5) for case, argv, fragment in [
            ("int", ("ind", "Bg", "--n", "x", "--exact"), "invalid int value: 'x'"),
            ("int-float", ("bounds", "phi", "--s", "1.5"), "invalid int value: '1.5'"),
            ("float", ("proba", "lambda", "--y", "x", "--z", "0"), "invalid float value: 'x'"),
            ("unknown-flag", ("classify", "Bg", "--no-such-flag"),
             "unrecognized arguments: --no-such-flag"),
            ("choice", ("verify", "no-such-suite"), "invalid choice: 'no-such-suite'"),
            ("no-family", ("construct",), "the following arguments are required: family"),
            ("no-command", (), "the following arguments are required: cmd"),
        ]
    },
}


def assert_refused(capsys, within, row):
    """Run one row of REFUSED: its exit code, message fragment and time bound."""
    argv, exit_code, fragment, seconds = row
    # a hang exits 4 through the CLI's last-resort handler
    with within(seconds):
        error = run_refused(capsys, exit_code, *argv)
    assert fragment in error


def refusals(test):
    """Parametrize `row` over the cases of REFUSED[test]."""
    return pytest.mark.parametrize("row", list(REFUSED[test].values()), ids=list(REFUSED[test]))


class TestClassify:
    def test_parse_error_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_parse_error_exit_2"])

    @refusals("test_negative_mc_exit_2")
    def test_negative_mc_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_zero_mc_over_the_exact_limit_exit_2")
    def test_zero_mc_over_the_exact_limit_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_taming_at_64_vertices(self, capsys):
        g = Graph.complete_bipartite(32, 32)
        classify = run_json(capsys, "classify", to_graph6(g), "--mc", "1000")["outputs"]
        tame = run_json(capsys, "tame", to_graph6(g))["outputs"]
        assert classify["minimal_taming_number"] == tame["minimal_taming_number"] == 32
        assert classify["taming_set"] == tame["v0"] == list(range(32, 64))
        assert is_tamed_by(g, tame["v0"])

    def test_zero_mc_refused_before_taming(self, capsys, monkeypatch):
        def boom(h):
            raise RuntimeError("taming ran before the brightness check")

        monkeypatch.setattr(structure, "minimal_taming_number", boom)
        error = run_refused(capsys, 2, "classify", P12_ISOLATED, "--mc", "0")
        assert error.startswith("the core has 12 non-isolated vertices")

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n"))
        doc = run_json(capsys, "classify", "-")
        assert doc["inputs"]["graph"] == "Bg"


class TestInd:
    def test_negative_iters_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_negative_iters_exit_2"])

    def test_exact_size_limit_exit_3(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_exact_size_limit_exit_3"])

    def test_unwritable_checkpoint_exit_2_before_search(self, capsys, monkeypatch, tmp_path):
        def flip_delta(*args):
            raise AssertionError("the search ran before the checkpoint path was checked")

        monkeypatch.setattr(search, "_flip_delta", flip_delta)
        cp = tmp_path / "missing" / "cp.json"
        error = run_refused(capsys, 2, "ind", "Bg", "--n", "5", "--search", "--iters", "5",
                            "--checkpoint", str(cp))
        assert "cannot write checkpoint" in error

    @pytest.mark.parametrize("pattern, n", [("@", 1), ("?", 0)])
    def test_search_below_two_vertices_returns_the_seed_host(self, capsys, within, pattern, n):
        # no pair can flip; the one n-vertex host is the answer whatever --iters is
        for iters in ("0", "1", "3"):
            with within(5):  # a hang exits 4 through the CLI's last-resort handler
                doc = run_json(capsys, "ind", pattern, "--n", str(n), "--search", "--iters", iters)
            assert doc["outputs"] == {"mode": "lower_bound", "value": "1/1", "witness": pattern}


class TestOtherCommands:
    @refusals("test_bounds_gap_without_edges_exit_3")
    def test_bounds_gap_without_edges_exit_3(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_bounds_int_below_1_exit_2")
    def test_bounds_int_below_1_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_bounds_select_out_of_range_exit_2")
    def test_bounds_select_out_of_range_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_bounds_uniform_eps_rounding_to_0_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_bounds_uniform_eps_rounding_to_0_exit_2"])

    @refusals("test_bounds_gap_rounding_to_0_exit_2")
    def test_bounds_gap_rounding_to_0_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_bounds_sparse_overflow_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_bounds_sparse_overflow_exit_2"])

    def test_bounds_uniform_overflow_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_bounds_uniform_overflow_exit_2"])

    def test_bounds_select_derived_eps_rounding_to_0_exit_3(self, capsys, within):
        row = REFUSED["test_bounds_select_derived_eps_rounding_to_0_exit_3"]
        assert_refused(capsys, within, row)

    def test_select_has_no_gamma_flag(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_select_has_no_gamma_flag"])

    @refusals("test_proba_unprintable_denominator_exit_3")
    def test_proba_unprintable_denominator_exit_3(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_proba_unparsable_rational_exit_2")
    def test_proba_unparsable_rational_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_split_impossible_event_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_split_impossible_event_exit_2"])

    @refusals("test_input_error_exit_codes")
    def test_input_error_exit_codes(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_blowup_of_the_empty_pattern_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_blowup_of_the_empty_pattern_exit_2"])

    def test_blowup_invalid_taming_set_exit_3(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_blowup_invalid_taming_set_exit_3"])

    def test_construct_gnp_oversized_exit_2(self, capsys, within):
        assert_refused(capsys, within, REFUSED["test_construct_gnp_oversized_exit_2"])

    @refusals("test_malformed_int_list_exit_2")
    def test_malformed_int_list_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_non_finite_float_exit_2")
    def test_non_finite_float_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @refusals("test_argparse_error_is_one_json_line")
    def test_argparse_error_is_one_json_line(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_construct_gnp_over_density_budget(self, capsys):
        # C(40, 10) exceeds the subset budget: no density, not a false 0
        doc = run_json(capsys, "construct", "gnp", "--k", "10", "--n", "40", "--seed", "7")
        assert doc["outputs"]["achieved"] is None
        assert doc["outputs"]["target_density"] is None
        assert parse_graph6(doc["outputs"]["graph"]).edge_count() > 0

    def test_verify_appendix(self, capsys, monkeypatch):
        # a stub table: the real checks run once per session, in test_verify.py
        monkeypatch.setitem(SUITES, "appendix", (lambda: CheckResult("stub", True, "a"),))
        doc = run_json(capsys, "verify", "appendix")
        assert doc["inputs"] == {"suite": "appendix"}
        assert doc["outputs"]["checks"] == [{"name": "stub", "ok": True, "detail": "a"}]
        assert (doc["outputs"]["passed"], doc["outputs"]["failed"]) == (1, 0)

    def test_verify_times_each_check(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "appendix", (lambda: CheckResult("stub", True, "a"),) * 2)
        code, out = run_cli(capsys, "verify", "appendix", "--timing")
        checks = json.loads(out)["outputs"]["checks"]
        assert code == 0
        assert [sorted(c) for c in checks] == [["detail", "elapsed_ms", "name", "ok"]] * 2

    def test_verify_failed_check_exits_1(self, capsys, monkeypatch):
        failing = (lambda: CheckResult("stub_failing", False, "counterexample Bg"),)
        monkeypatch.setitem(SUITES, "coloring", failing)
        code, out = run_cli(capsys, "verify", "coloring")
        assert code == 1
        doc = json.loads(out)
        assert doc["outputs"]["failed"] == 1
        assert doc["outputs"]["checks"] == [
            {"name": "stub_failing", "ok": False, "detail": "counterexample Bg"}
        ]

    def test_bounds_phi_huge_s(self, capsys):
        doc = run_json(capsys, "bounds", "phi", "--s", str(10**22))
        # Stirling's value to the 12 significant digits the CLI prints
        stirling = 1 / math.sqrt(2 * math.pi * 1e22)
        assert doc["outputs"]["value"] == float(format(stirling, ".12g"))

    def test_proba_lambda_overflowing_square(self, capsys):
        doc = run_json(capsys, "proba", "lambda", "--y", "1e300", "--z", "1e300")
        assert doc["outputs"] == {"lo": 0.0, "hi": 1.0, "lambda": 0.5}

    def test_non_finite_output_exit_4(self, capsys, monkeypatch):
        patch_run(monkeypatch, ("classify",), lambda args: {"x": float("nan")})
        assert "not JSON compliant" in run_refused(capsys, 4, "classify", "Bg")

    def test_bounds_solve_eps_early_exits(self, capsys):
        # eps is c0 / C at every C, down to a subnormal at 1e308, and 1.0 below c0
        for c, eps in [("1e-308", 1.0), ("1e10", 2.21172168239e-13),
                       ("1e13", 2.21172168239e-16), ("1e308", 2.21172168239e-311)]:
            assert run_json(capsys, "bounds", "solve-eps", "--c", c)["outputs"]["eps"] == eps
        doc = run_json(capsys, "bounds", "select", "A_", "--c", "1e300")
        assert doc["outputs"]["inputs"]["eps"] == 2.21172168239e-303

    def test_proba_longest_printable_denominator(self, capsys):
        # 3^9012 has 4,300 digits, the most str(int) prints
        doc = run_json(capsys, "proba", "binom", "--k", "9012", "--p", "1/3", "--s", "2")
        assert len(doc["outputs"]["value"].split("/")[1]) == 4300
        doc = run_json(capsys, "proba", "hypergeom", "--population", str(10**20),
                       "--successes", "5", "--sample", "1", "--hits", "1")
        assert doc["outputs"]["value"] == f"1/{2 * 10**19}"

    @pytest.mark.parametrize("p, s, value", [
        ("1", "50000000", "0/1"), ("1", "100000000", "1/1"), ("0", "0", "1/1"),
    ])
    def test_proba_binom_point_mass(self, capsys, p, s, value):
        # at p = 0 or 1 the mass sits on s = k p; C(k, s) is never computed
        start = time.monotonic()
        doc = run_json(capsys, "proba", "binom", "--k", "100000000", "--p", p, "--s", s)
        assert doc["outputs"]["value"] == value
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("argv", [
        ("solve-eps", "--c", "5e-324"), ("solve-eps", "--c", "1e-320"),
        ("select", "A_", "--c", "5e-324", "--beta", "1e-300"),
    ])
    def test_bounds_underflowing_c_exit_0(self, capsys, argv):
        # 8 C eps underflows to 0: the exponent is +inf and every eps satisfies the bound
        run_json(capsys, "bounds", *argv)

    def test_split_limit_with_binomial_past_float_range(self, capsys, within):
        # C(1100, 550) is past the float range; the limit, a probability, is not
        with within(5):
            doc = run_json(capsys, "construct", "split", "--k", "1100", "--r", "550",
                           "--n", "2200", "--sigma", "0.5")
        limit = math.comb(1100, 550) / 2**1100
        assert abs(doc["outputs"]["limit_formula"] - limit) <= 1e-10 * limit

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        patch_run(monkeypatch, ("classify",), boom)
        code = main(["classify", "Bg"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "Traceback" not in captured.err
        doc = json.loads(captured.err)
        assert doc["exit"] == 4
        assert "RuntimeError: boom" in doc["error"]

    def test_closed_stdout_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(inducibility.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "inducibility", "construct", "gnp", "--k", "4",
                 "--n", "30", "--seed", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_reader_closing_after_one_byte_exits_quietly(self):
        # `python -m inducibility ... | head -c 1`: exit 0 and nothing on stderr
        env = dict(os.environ, PYTHONPATH=str(Path(inducibility.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "inducibility", "bounds", "phi", "--s", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.read(1) == b"{"
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        finally:
            proc.kill()
            proc.stderr.close()
        assert stderr == b""

    @pytest.mark.parametrize("argv", [
        ("density", "Bg", "DQc"),
        ("bounds", "phi", "--s", "1"),
        ("construct", "split", "--k", "4", "--r", "1", "--n", "6", "--sigma", "0.5"),
    ], ids=lambda a: a[0])
    def test_timing_after_subcommand(self, capsys, argv):
        code, before = run_cli(capsys, "--timing", *argv)
        assert code == 0
        code, after = run_cli(capsys, *argv, "--timing")
        assert code == 0
        before, after = json.loads(before), json.loads(after)
        assert isinstance(before.pop("elapsed_ms"), int)
        assert isinstance(after.pop("elapsed_ms"), int)
        assert before == after


class TestInputsEcho:
    """`inputs` echoes that no pinned digest covers."""

    @refusals("test_flag_the_mode_does_not_read_exit_2")
    def test_flag_the_mode_does_not_read_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    def test_search_echoes_the_checkpoint_path(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        doc = run_json(capsys, "ind", "Bg", "--n", "5", "--search", "--iters", "5",
                       "--checkpoint", str(cp))
        assert doc["inputs"] == {"pattern": "Bg", "n": 5, "iters": 5, "seed": 0,
                                 "checkpoint": str(cp)}
        assert cp.exists()

    def test_proba_binom_echoes_p_reduced(self, capsys):
        doc = run_json(capsys, "proba", "binom", "--k", "4", "--p", "2/6", "--s", "2")
        assert doc["inputs"] == {"kind": "binom", "k": 4, "p": "1/3", "s": 2}

    def test_simulate_echoes_max_steps_when_given(self, capsys):
        # the flag changes the outputs, so equal inputs must tell it
        argv = ("simulate-coloring", "Dg?", "Cg", "--trials", "50", "--seed", "6")
        default = run_json(capsys, *argv)
        doc = run_json(capsys, *argv, "--max-steps", "4")
        assert "max_steps" not in default["inputs"]
        assert doc["inputs"] == {**default["inputs"], "max_steps": 4}
        assert (default["outputs"]["truncated"], doc["outputs"]["truncated"]) == (0, 1)

    def test_exact_refuses_a_checkpoint_it_would_not_write(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        error = run_refused(capsys, 2, "ind", "Bg", "--n", "5", "--exact", "--checkpoint",
                            str(cp))
        assert error == "ind: --checkpoint is not read without --search"
        assert not cp.exists()

    def test_unread_flag_at_its_default_is_accepted(self, capsys):
        _, exact = run_cli(capsys, "density", "Bg", "DQc")
        _, zero = run_cli(capsys, "density", "Bg", "DQc", "--mc", "0", "--seed", "0")
        assert zero == exact


class TestCommandTable:
    @pytest.mark.parametrize("path", list(cli.COMMANDS), ids=" ".join)
    def test_help_lists_every_declared_argument(self, capsys, path):
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        row = cli.COMMANDS[path]
        for flag in [*row.modes, *(arg.flag for arg in row.args)]:
            assert re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", text), flag

    GROUP_PATHS = [(), *((group,) for group in cli.GROUPS)]

    @staticmethod
    def choices(group):
        return {path[len(group)] for path in cli.COMMANDS if path[: len(group)] == group}

    @pytest.mark.parametrize("group", GROUP_PATHS, ids=lambda g: " ".join(g) or "top")
    def test_group_help_lists_every_choice(self, capsys, group):
        with pytest.raises(SystemExit) as exc:
            main([*group, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in self.choices(group):
            assert re.search(rf"(?<![\w-]){re.escape(name)}(?![\w-])", text), name

    @pytest.mark.parametrize("group", GROUP_PATHS, ids=lambda g: " ".join(g) or "top")
    def test_unknown_choice_error_lists_every_choice(self, capsys, group):
        error = run_refused(capsys, 2, *group, "no-such-command")
        assert "invalid choice: 'no-such-command'" in error
        for name in self.choices(group):
            assert f"'{name}'" in error, name

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        lines = [line for line in block.splitlines() if line.startswith("inducibility ")]
        assert len(lines) >= 17
        for line in lines:
            args = cli.build_parser().parse_args(shlex.split(line, comments=True)[1:])
            cli._inputs(args)  # no flag the example's mode ignores


class TestDeterminism:
    @refusals("test_negative_seed_exit_2")
    def test_negative_seed_exit_2(self, capsys, within, row):
        assert_refused(capsys, within, row)

    @pytest.mark.parametrize("argv", [
        ("classify", P12, "--mc", "200", "--seed", "1"),
        ("brightness", P12, "--mc", "200", "--seed", "1"),
        ("density", "Bg", "DQc", "--mc", "1000", "--seed", "5"),
        ("simulate-coloring", to_graph6(Graph.path(8)), "Bg", "--trials", "400", "--seed", "6"),
    ], ids=lambda a: a[0])
    def test_monte_carlo_accepts_negative_seed(self, capsys, argv):
        # the Monte-Carlo streams of -s are not those of s
        negative = run_json(capsys, *argv[:-1], "-" + argv[-1])
        assert negative["inputs"]["seed"] == -int(argv[-1])
        assert negative["outputs"] != run_json(capsys, *argv)["outputs"]
