import hashlib
from fractions import Fraction

import pytest

from inducibility import verify
from inducibility.bounds import phi
from inducibility.coloring import ColoringSummary, _ColorContext
from inducibility.mc import MCEstimate
from inducibility.proba import (
    binom_point_max_bound,
    hypergeom_point,
    lambda_split,
    multi_hypergeom_joint,
)
from inducibility.structure import classify_vertices, minimal_taming_number, tame_witness_from
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


def test_check_order_is_pinned(verified):
    """The suites and their checks in the order `verify all` prints them, as
    recorded when the suites were one literal table."""
    names = [f"{suite}.{verified(check).name}" for suite, checks in SUITES.items()
             for check in checks]
    assert len(names) == 24
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert digest == "731cfb0f2c29b98464c129d9a1870385e7e2b6598f4a953c18e21384925736fb"


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


@pytest.fixture
def inverted_colouring(monkeypatch, every_edge_count):
    """Invert `is_black`, and give every context every edge count, so that
    each step of the colouring loop goes through the inverted `is_black`."""
    is_black = _ColorContext.is_black
    monkeypatch.setattr(_ColorContext, "is_black", lambda ctx, mask, v: not is_black(ctx, mask, v))
    every_edge_count()


@pytest.mark.usefixtures("inverted_colouring")
def test_match_trace_shape_fails_on_inverted_colouring():
    result = verify._check_match_trace_shape()
    assert result.name == "match_trace_shape" and not result.ok, result.detail


@pytest.mark.usefixtures("inverted_colouring")
def test_signature_union_stops_on_inverted_colouring():
    """The inverted colouring stops no trace; the check's cap of 50 steps
    truncates all of them in seconds instead of running for minutes."""
    result = verify._check_coloring_inclusions()
    assert result.name == "match_inside_signature_union" and not result.ok
    assert "seed=7:" in result.detail and "truncated=50000" in result.detail


def _zero_without_hits(params):
    return 0 if params.hits == 0 else hypergeom_point(params)


def _first_part_only(n, k, parts, s):
    return multi_hypergeom_joint(n, k, tuple(parts)[:1], s)


def _classified(**parts):
    """classify_vertices with the given classes replaced, each a function of h."""
    return lambda h: classify_vertices(h)._replace(**{c: f(h) for c, f in parts.items()})


def _summary(trials=20000, **counts):
    """A stub `simulate`: a summary with the given counts and every other count 0."""
    zero = {name: 0 for name in ColoringSummary._fields if name not in ("trials", "seed")}
    return lambda g, h, n, seed, max_steps=None: ColoringSummary(
        trials, seed, **{**zero, **counts}
    )


# a kernel mutation per check, patched into verify's namespace; with the two
# tests above, every check of every suite fails under one of them
_MUTATIONS = [
    pytest.param("hypergeom_point", _zero_without_hits, verify._check_hypergeom_normalization,
                 id="hypergeom-zero-without-hits"),
    pytest.param("hypergeom_point", lambda params: 2 * hypergeom_point(params),
                 verify._check_hypergeom_binomial_cap, id="hypergeom-doubled"),
    pytest.param("multi_hypergeom_joint", _first_part_only, verify._check_multi_joint_cap,
                 id="joint-first-part-only"),
    pytest.param("multi_hypergeom_joint", lambda *args: 3 * multi_hypergeom_joint(*args),
                 verify._check_multi_joint_cap, id="joint-tripled"),
    pytest.param("phi", lambda s: s, verify._check_phi_decreasing, id="phi-increasing"),
    pytest.param("phi", lambda s: phi(s + 1), verify._check_phi_binomial_limit,
                 id="phi-shifted"),
    pytest.param("poly_exp_check", lambda s, x: (1.0, 0.0, False), verify._check_poly_exp_grid,
                 id="poly-exp-fails"),
    pytest.param("lambda_split", lambda y, z: lambda_split(y, z)._replace(lam=1.5),
                 verify._check_lambda_grid, id="lambda-outside"),
    pytest.param("binom_point_max_bound", lambda k, s: binom_point_max_bound(k, s) / 2,
                 verify._check_binomial_mode_sweep, id="mode-cap-halved"),
    pytest.param("classify_vertices", _classified(obscure=lambda h: frozenset()),
                 verify._check_detectable_characterization, id="no-obscure-vertex"),
    pytest.param("classify_vertices", _classified(happy=lambda h: frozenset()),
                 verify._check_happy_floor, id="no-happy-vertex"),
    pytest.param("classify_vertices", _classified(detectable=lambda h: frozenset(range(h.n))),
                 verify._check_detectable_deletion, id="every-vertex-detectable"),
    pytest.param("tame_witness_from", lambda h, s: tame_witness_from(h, s)._replace(valid=False),
                 verify._check_closure_witness, id="witness-invalid"),
    pytest.param("minimal_taming_number", lambda h: (minimal_taming_number(h)[0] + 1, None),
                 verify._check_aut_vs_taming, id="taming-number-plus-one"),
    pytest.param("minimal_taming_number",
                 lambda h: (minimal_taming_number(h)[0] + h.edge_count() % 2, None),
                 verify._check_taming_complement, id="taming-number-plus-edge-parity"),
    pytest.param("brightness_exact", lambda h: Fraction(0), verify._check_brightness_floor,
                 id="brightness-zero-floor"),
    pytest.param("brightness_exact", lambda h: Fraction(0), verify._check_brightness_bounds,
                 id="brightness-zero-bounds"),
    pytest.param("brightness_exact", lambda h: Fraction(1, 2), verify._check_all_detectable,
                 id="brightness-half"),
    pytest.param("brightness_exact", lambda h: Fraction(1, h.n),
                 verify._check_isolated_invariance, id="brightness-by-order"),
    pytest.param("brightness_exact", lambda h: Fraction(0), verify._check_named_brightness,
                 id="brightness-zero-named"),
    pytest.param("brightness_mc",
                 lambda h, samples, seed: MCEstimate(0.05, 0.0, 0.1, samples, seed),
                 verify._check_mc_coverage, id="mc-interval-misses"),
    pytest.param("simulate", _summary(count_full_match=1, count_two_green_and_match=1,
                                      match_outside_signatures=1),
                 verify._check_coloring_inclusions, id="coloring-one-violation"),
    pytest.param("simulate", _summary(count_full_match=100, count_consecutive_and_match=100),
                 verify._check_conditional_consecutive, id="coloring-all-consecutive"),
    pytest.param("simulate", _summary(count_one_red=20000), verify._check_signature_caps,
                 id="coloring-all-red"),
]


@pytest.mark.parametrize("kernel, mutant, check", _MUTATIONS)
def test_kernel_checks_fail_on_a_wrong_kernel(monkeypatch, kernel, mutant, check):
    monkeypatch.setattr(verify, kernel, mutant)
    result = check()
    assert not result.ok, result.detail


def test_every_check_has_a_mutation():
    """Each check of every suite fails under some mutation tested here."""
    mutated = {case.values[2] for case in _MUTATIONS}
    mutated |= {verify._check_aut_vs_taming, verify._check_match_trace_shape}
    assert mutated == {check for checks in SUITES.values() for check in checks}
