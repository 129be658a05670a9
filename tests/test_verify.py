import pytest

from inducibility import verify
from inducibility.coloring import _ColorContext
from inducibility.proba import hypergeom_point, multi_hypergeom_joint
from inducibility.verify import SUITES, CheckResult, run_suite


@pytest.mark.parametrize("suite", list(SUITES))
def test_suite_passes(suite, verified):
    results = [verified(check) for check in SUITES[suite]]
    failed = [r for r in results if not r.ok]
    assert not failed, [f"{r.name}: {r.detail}" for r in failed]


def test_all_runs_every_suite(monkeypatch):
    def stub(name):
        return lambda: CheckResult(name, True, "")

    tables = {
        suite: tuple(stub(f"{suite}.{i}") for i in range(len(checks)))
        for suite, checks in SUITES.items()
    }
    monkeypatch.setattr(verify, "SUITES", tables)
    names = [r.name for r, seconds in run_suite("all")]
    assert names == [check().name for table in tables.values() for check in table]
    assert len(names) == sum(map(len, SUITES.values())) > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nope")


@pytest.mark.parametrize(
    "wrong_order, counterexample", [(lambda true: 1, "A?"), (lambda true: true // 2, "@")]
)
def test_aut_floor_fails_on_a_wrong_group_order(monkeypatch, wrong_order, counterexample):
    true_order = verify.automorphism_count
    monkeypatch.setattr(verify, "automorphism_count", lambda h: wrong_order(true_order(h)))
    result = verify._check_aut_vs_taming()
    assert (result.name, result.ok, result.detail) == (
        "aut_floor_from_taming", False, counterexample
    )


def test_match_trace_shape_fails_on_inverted_colouring(monkeypatch):
    is_black = _ColorContext.is_black
    monkeypatch.setattr(_ColorContext, "is_black", lambda ctx, mask, v: not is_black(ctx, mask, v))
    result = verify._check_match_trace_shape()
    assert result.name == "match_trace_shape" and not result.ok, result.detail


def _zero_without_hits(params):
    return 0 if params.hits == 0 else hypergeom_point(params)


def _first_part_only(n, k, parts, s):
    return multi_hypergeom_joint(n, k, tuple(parts)[:1], s)


@pytest.mark.parametrize("kernel, mutant, check", [
    ("hypergeom_point", _zero_without_hits, verify._check_hypergeom_normalization),
    ("hypergeom_point", lambda params: 2 * hypergeom_point(params),
     verify._check_hypergeom_binomial_cap),
    ("multi_hypergeom_joint", _first_part_only, verify._check_multi_joint_cap),
    ("multi_hypergeom_joint", lambda *args: 3 * multi_hypergeom_joint(*args),
     verify._check_multi_joint_cap),
], ids=["hypergeom-zero-without-hits", "hypergeom-doubled", "joint-first-part-only", "joint-tripled"])
def test_kernel_checks_fail_on_a_wrong_kernel(monkeypatch, kernel, mutant, check):
    monkeypatch.setattr(verify, kernel, mutant)
    result = check()
    assert not result.ok, result.detail
