import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import inducibility
from inducibility import cli
from inducibility.cli import main
from inducibility.graphs import Graph, is_isomorphic, parse_graph6, to_graph6
from inducibility.structure import is_tamed_by
from inducibility.verify import SUITES, CheckResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    doc = json.loads(out)
    assert doc["version"] == "0.1.0"
    assert "elapsed_ms" not in doc
    return doc


class TestClassify:
    def test_p3(self, capsys):
        doc = run_json(capsys, "classify", "Bg")
        out = doc["outputs"]
        assert out["detectable"] == [0, 2]
        assert out["obscure"] == [1]
        assert out["brightness"]["exact"] == "1/3"
        assert out["minimal_taming_number"] == 1

    def test_k3_taming(self, capsys):
        doc = run_json(capsys, "classify", "Bw")
        assert doc["outputs"]["minimal_taming_number"] == 0

    def test_taming_at_64_vertices(self, capsys):
        g = Graph.complete_bipartite(32, 32)
        classify = run_json(capsys, "classify", to_graph6(g), "--mc", "1000")["outputs"]
        tame = run_json(capsys, "tame", to_graph6(g))["outputs"]
        assert classify["minimal_taming_number"] == tame["minimal_taming_number"] == 32
        assert classify["taming_set"] == tame["v0"] == list(range(32, 64))
        assert is_tamed_by(g, tame["v0"])

    def test_parse_error_exit_2(self, capsys):
        code, _ = run_cli(capsys, "classify", "!!")
        assert code == 2

    @pytest.mark.parametrize(
        "cmd, graph",
        [("classify", "C~"), ("classify", "A_"), ("classify", to_graph6(Graph.path(12))),
         ("brightness", "C~")],
    )
    def test_negative_mc_exit_2(self, capsys, cmd, graph):
        # exact brightness (a small core), none (one edge) and Monte Carlo
        code, _ = run_cli(capsys, cmd, graph, "--mc", "-3")
        assert code == 2

    def test_stdin_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("Bg\n"))
        doc = run_json(capsys, "classify", "-")
        assert doc["inputs"]["graph"] == "Bg"


class TestInd:
    def test_exact(self, capsys):
        doc = run_json(capsys, "ind", "Bg", "--n", "4", "--exact")
        assert doc["outputs"]["value"] == "1/1"
        assert is_isomorphic(parse_graph6(doc["outputs"]["witness"]), Graph.cycle(4))

    def test_k3(self, capsys):
        doc = run_json(capsys, "ind", "Bw", "--n", "5", "--exact")
        assert doc["outputs"]["value"] == "1/1"

    def test_negative_iters_exit_2(self, capsys):
        code, out = run_cli(capsys, "ind", "C~", "--n", "6", "--search", "--iters", "-5")
        assert code == 2 and out == ""

    def test_exact_size_limit_exit_3(self, capsys):
        code, _ = run_cli(capsys, "ind", "Bg", "--n", "12", "--exact")
        assert code == 3

    def test_search_checkpoint(self, capsys, tmp_path):
        cp = tmp_path / "cp.json"
        doc = run_json(
            capsys,
            "ind",
            "Bg",
            "--n",
            "5",
            "--search",
            "--iters",
            "300",
            "--seed",
            "4",
            "--checkpoint",
            str(cp),
        )
        assert doc["outputs"]["mode"] == "lower_bound"
        assert cp.exists()


class TestOtherCommands:
    def test_density(self, capsys):
        doc = run_json(capsys, "density", "Bg", to_graph6(Graph.complete_bipartite(3, 3)))
        assert doc["outputs"]["density"] == "9/10"

    def test_density_mc(self, capsys):
        doc = run_json(
            capsys, "density", "Bg", to_graph6(Graph.complete(5)), "--mc", "200",
            "--seed", "3",
        )
        assert "mc" in doc["outputs"]

    def test_tame(self, capsys):
        doc = run_json(capsys, "tame", to_graph6(Graph.path(4)))
        assert doc["outputs"]["minimal_taming_number"] == 3

    def test_tame_closure(self, capsys):
        doc = run_json(capsys, "tame", to_graph6(Graph.path(4)), "--set", "1")
        assert doc["outputs"]["v0"] == [1, 2, 3]

    def test_bounds_phi(self, capsys):
        doc = run_json(capsys, "bounds", "phi", "--s", "1")
        assert abs(doc["outputs"]["value"] - 0.367879441171) < 1e-9

    def test_bounds_select(self, capsys):
        doc = run_json(capsys, "bounds", "select", to_graph6(Graph.star(10)))
        assert doc["outputs"]["regime"] in {
            "high_degree_s",
            "high_degree_st",
            "uniform_low_degree",
            "non_uniform",
            "sparse_core",
            "dense_external",
            "complement_first",
        }

    def test_proba_binom(self, capsys):
        doc = run_json(capsys, "proba", "binom", "--k", "4", "--p", "1/3", "--s", "2")
        assert doc["outputs"]["value"] == "8/27"

    def test_proba_lambda(self, capsys):
        doc = run_json(capsys, "proba", "lambda", "--y", "0", "--z", "0")
        assert doc["outputs"]["lambda"] == 0.5

    def test_construct_split(self, capsys):
        doc = run_json(
            capsys, "construct", "split", "--k", "3", "--r", "1", "--n", "300",
            "--sigma", str(1 / 3),
        )
        assert Fraction(doc["outputs"]["achieved"]) == Fraction(1990000, 4455100)

    def test_simulate(self, capsys):
        doc = run_json(
            capsys,
            "simulate-coloring",
            to_graph6(Graph.from_edges(5, [(0, 1), (1, 2)])),
            to_graph6(Graph.from_edges(4, [(0, 1), (1, 2)])),
            "--trials",
            "500",
            "--seed",
            "2",
        )
        assert doc["outputs"]["violations"]["match_outside_signatures"] == 0

    def test_verify_appendix(self, capsys, monkeypatch):
        # a stub table: the real checks run once per session, in test_verify.py
        monkeypatch.setitem(SUITES, "appendix", (lambda: CheckResult("stub", True, "a"),))
        doc = run_json(capsys, "verify", "appendix")
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

    def test_bounds_gap(self, capsys):
        doc = run_json(
            capsys, "bounds", "gap", to_graph6(Graph.star(20)), "--eps", "0.5",
            "--c", "1.0",
        )
        assert doc["outputs"]["s"] == 1 and doc["outputs"]["S"] == [0]

    def test_bounds_uniform_and_high_degree(self, capsys):
        doc = run_json(
            capsys, "bounds", "uniform", "--tau", "1", "--beta", "0.5",
            "--eps", "0.03125",
        )
        assert doc["outputs"]["f"] == 4
        doc = run_json(capsys, "bounds", "high-degree", "--s", "1", "--t", "1")
        assert abs(doc["outputs"]["value"] - 0.135335283237) < 1e-9

    def test_bounds_solve_eps(self, capsys):
        doc = run_json(capsys, "bounds", "solve-eps", "--c", "1.0")
        assert 0 < doc["outputs"]["eps"] < 1

    def test_construct_split_plus_edge_and_blowup(self, capsys):
        doc = run_json(capsys, "construct", "split-plus-edge", "--k", "4", "--n", "8")
        assert Fraction(doc["outputs"]["achieved"]) == Fraction(36, 70)
        doc = run_json(
            capsys, "construct", "blowup", to_graph6(Graph.star(3)), "--v0", "0",
            "--n", "16",
        )
        assert parse_graph6(doc["outputs"]["graph"]).n == 16

    def test_proba_hypergeom_and_multi(self, capsys):
        doc = run_json(
            capsys, "proba", "hypergeom", "--population", "4", "--successes", "2",
            "--sample", "2", "--hits", "1",
        )
        assert doc["outputs"]["value"] == "2/3"
        doc = run_json(
            capsys, "proba", "multi", "--population", "6", "--sample", "3",
            "--parts", "2,2", "--s", "1",
        )
        assert doc["outputs"]["value"] == "2/5"

    def test_blowup_invalid_taming_set_exit_3(self, capsys):
        code, _ = run_cli(
            capsys, "construct", "blowup", to_graph6(Graph.path(4)), "--v0", "1,2",
            "--n", "8",
        )
        assert code == 3

    def test_construct_gnp_oversized_exit_2(self, capsys):
        start = time.monotonic()
        code, _ = run_cli(capsys, "construct", "gnp", "--k", "4", "--n", "100000")
        assert code == 2
        assert time.monotonic() - start < 5  # rejected before any host is built

    def test_unexpected_exception_exit_4(self, capsys, monkeypatch):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._HANDLERS, "classify", boom)
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

    def test_timing_flag(self, capsys):
        code, out = run_cli(capsys, "--timing", "bounds", "phi", "--s", "1")
        assert code == 0
        assert "elapsed_ms" in json.loads(out)

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

    def test_no_timing_by_default(self, capsys):
        code, out = run_cli(capsys, "density", "Bg", "DQc")
        assert code == 0
        assert "elapsed_ms" not in json.loads(out)


class TestDeterminism:
    COMMANDS = [
        ("classify", "Bg"),
        ("brightness", "Bg", "--mc", "2000", "--seed", "1"),
        ("density", "Bg", "DQc", "--mc", "1000", "--seed", "5"),
        ("ind", "Bg", "--n", "5", "--search", "--iters", "150", "--seed", "2"),
        ("construct", "gnp", "--k", "4", "--n", "10", "--seed", "8"),
        ("simulate-coloring", "DQc", "Cl", "--trials", "400", "--seed", "6"),
        ("bounds", "alpha"),
    ]
    # SHA-256 of each command's stdout, recorded before the Monte-Carlo
    # substreams stopped running on a thread pool
    STDOUT_SHA256 = {
        "classify": "11304c10d46376b55cd314a685198b14258a33b24880b0eda06ec8583b353a30",
        "brightness": "a9a0bccea67922ca47b5f8557468b7b306ef2ad630e4dec0230844dba2fd5065",
        "density": "0b80c61495b29fba8679fbc115a95d49a0e4821f8098b0e25ce7d543d18545fb",
        "ind": "60e4b1c1dcab7cbb982bd777a0728220425f20e6759e077c4f38e8e7c14b9fee",
        "construct": "1e38439253fd14d5f075847c3b17dea40f4778e5e85596e27ed9ac685b849004",
        "simulate-coloring": "6d6ac16b4071d2053f56dc74ad2ee867ba3c79538d591ec4bf311f6bd19f7438",
        "bounds": "df72745c0820f68a64d9604a7efc086020802e38ca214533a0f69dd3800169ac",
    }

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_across_runs_and_threads(self, capsys, argv):
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second
        digest = hashlib.sha256(first.encode()).hexdigest()
        assert digest == self.STDOUT_SHA256[argv[0]]
