import math
from fractions import Fraction
from itertools import combinations

import pytest

from inducibility import proba
from inducibility.errors import InputError, InternalCheckError
from inducibility.proba import (
    HypergeomParams,
    binom_point,
    binom_point_max_bound,
    hypergeom_point,
    lambda_split,
    multi_hypergeom_joint,
    poly_exp_check,
)

E = math.e


class TestBinomPoint:
    def test_plugin_values(self):
        assert binom_point(2, Fraction(1, 2), 1) == Fraction(1, 2)
        assert binom_point(7, Fraction(0), 0) == 1
        assert binom_point(4, Fraction(1, 3), 2) == Fraction(8, 27)

    def test_normalization(self):
        for k, p in ((5, Fraction(2, 7)), (9, Fraction(1, 3))):
            assert sum(binom_point(k, p, s) for s in range(k + 1)) == 1

    def test_domain(self):
        with pytest.raises(InputError):
            binom_point(3, Fraction(2), 1)
        with pytest.raises(InputError):
            binom_point(3, Fraction(1, 2), 4)


class TestBinomMode:
    def test_values(self):
        assert binom_point_max_bound(2, 1) == Fraction(1, 2)
        assert binom_point_max_bound(4, 2) == Fraction(3, 8)

    def test_domain(self):
        with pytest.raises(InputError):
            binom_point_max_bound(4, 0)
        with pytest.raises(InputError):
            binom_point_max_bound(4, 4)


class TestHypergeom:
    def test_plugin(self):
        assert hypergeom_point(HypergeomParams(4, 2, 2, 1)) == Fraction(2, 3)

    def test_binomial_convergence(self):
        pmf = hypergeom_point(HypergeomParams(10**4, 10**3, 10, 1))
        target = binom_point(10, Fraction(1, 10), 1)
        assert abs(float(pmf) - float(target)) < 0.002

    def test_infeasible_zero(self):
        assert hypergeom_point(HypergeomParams(5, 1, 3, 2)) == 0

    def test_invariant_validation(self):
        with pytest.raises(InputError):
            HypergeomParams(4, 5, 2, 1)
        with pytest.raises(InputError):
            HypergeomParams(4, 2, 5, 1)

    @pytest.mark.parametrize("args, message", [
        ((4, 2, 2, -1), "hypergeometric parameters must be nonnegative"),
        ((4, 2, 2, 3), r"need hits <= sample <= population"),
        ((4, 2, 5, 1), r"need hits <= sample <= population"),
        ((4, 5, 2, 1), "successes exceed population"),
    ])
    def test_validation_messages(self, args, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            HypergeomParams(*args)
        with pytest.raises(InputError, match=f"^{message}$"):
            HypergeomParams(**dict(zip(("population", "successes", "sample", "hits"), args)))


class TestMultiHypergeom:
    def test_plugin(self):
        assert multi_hypergeom_joint(4, 2, (2, 2), 1) == Fraction(2, 3)
        assert multi_hypergeom_joint(10, 3, (), 5) == 1

    def test_brute_force_small(self):
        n, k, parts, s = 6, 3, (2, 2), 1
        part_sets = [{0, 1}, {2, 3}]
        hits = 0
        for w in combinations(range(n), k):
            if all(len(set(w) & ps) == s for ps in part_sets):
                hits += 1
        assert multi_hypergeom_joint(n, k, parts, s) == Fraction(hits, math.comb(n, k))

    def test_infeasible(self):
        assert multi_hypergeom_joint(10, 2, (3, 3), 2) == 0
        assert multi_hypergeom_joint(6, 6, (1, 1), 0) == 0  # remainder too small
        assert multi_hypergeom_joint(10, 9, (1, 1), 1) == Fraction(8, 10)

    def test_domain(self):
        for args, message in [
            ((4, 2, (3, 3), 1), "parts exceed the population"),
            ((4, 2, (-1, 2), 1), "part sizes must be nonnegative"),
            ((4, 5, (1,), 1), "need 0 <= k <= n"),
            ((4, -1, (1,), 1), "need 0 <= k <= n"),
            ((4, 2, (1, 1), -1), "s must be nonnegative"),
            ((4, 2, (), -1), "s must be nonnegative"),
        ]:
            with pytest.raises(InputError, match=message):
                multi_hypergeom_joint(*args)


class TestPolyExp:
    def test_examples(self):
        lhs, rhs, ok = poly_exp_check(1, 0.0)
        assert lhs == 0 and abs(rhs - 1 / E) < 1e-15 and ok
        for s in (1, 3, 7):
            lhs, rhs, ok = poly_exp_check(s, float(s))
            assert ok and abs(lhs - rhs) < 1e-9

    def test_domain(self):
        with pytest.raises(InputError, match="s must be >= 1"):
            poly_exp_check(0, 1.0)


class TestLambdaSplit:
    def test_origin(self):
        ls = lambda_split(0.0, 0.0)
        assert ls.lo == 0.0 and ls.hi == 1.0 and ls.lam == 0.5

    def test_interior_critical_point_value_is_one(self):
        y, z = 2 / E, 1 - 2 / E
        f = math.exp(y + z) - y * y * E * E / 4 - z * E
        assert abs(f - 1.0) < 1e-12
        eps = 1e-6
        dfy = (math.exp(y + eps + z) - (y + eps) ** 2 * E * E / 4 - z * E - f) / eps
        dfz = (math.exp(y + z + eps) - y * y * E * E / 4 - (z + eps) * E - f) / eps
        assert abs(dfy) < 1e-5 and abs(dfz) < 1e-5

    def test_overflowing_square(self):
        # y * y overflows to inf, where the exact lo is below the smallest float
        ls = lambda_split(1e300, 1e300)
        assert ls.lo == 0.0 and ls.hi == 1.0 and ls.lam == 0.5

    def test_domain(self):
        with pytest.raises(InputError):
            lambda_split(-1.0, 0.0)

    def test_empty_interval_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(proba, "FLOAT_TOL", -10)
        with pytest.raises(InternalCheckError, match="empty lambda interval"):
            lambda_split(0.0, 0.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call", [
    lambda: lambda_split(NAN, 0.0),
    lambda: lambda_split(0.0, NAN),
    lambda: lambda_split(0.0, INF),
    lambda: lambda_split(INF, INF),
    lambda: poly_exp_check(1, NAN),
    lambda: poly_exp_check(1, INF),
], ids=["lambda-nan-y", "lambda-nan-z", "lambda-inf-z", "lambda-inf-both", "polyexp-nan",
        "polyexp-inf"])
def test_non_finite_argument_is_an_input_error(call):
    """Not a broken inequality: neither an abort nor a counterexample."""
    with pytest.raises(InputError, match="finite"):
        call()
