"""Exact-rational probability kernels and inequality verifiers.

All point masses are computed with big-integer rationals so the test
suites can compare them without tolerances.  The two inequality helpers
(`poly_exp_check`, `lambda_split`) work in doubles at a documented 1e-12
tolerance; `lambda_split` aborts loudly if its interval ever came out
empty, since that would falsify the inequality it implements rather than
signal bad input.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .errors import InputError, InternalCheckError

FLOAT_TOL = 1e-12


class HypergeomParams(namedtuple("HypergeomParams", "population successes sample hits")):
    __slots__ = ()

    def __new__(cls, population: int, successes: int, sample: int, hits: int):
        if min(population, successes, sample, hits) < 0:
            raise InputError("hypergeometric parameters must be nonnegative")
        if not hits <= sample <= population:
            raise InputError("need hits <= sample <= population")
        if successes > population:
            raise InputError("successes exceed population")
        return super().__new__(cls, population, successes, sample, hits)


def binom_point(k: int, p: Fraction, s: int) -> Fraction:
    """Exact C(k,s) p^s (1-p)^(k-s)."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise InputError("p must be in [0, 1]")
    if not 0 <= s <= k:
        raise InputError("need 0 <= s <= k")
    if p in (0, 1):  # a point mass at k p; C(k, s) alone could take minutes
        return Fraction(s == k * p)
    return math.comb(k, s) * p**s * (1 - p) ** (k - s)


def binom_point_max_bound(k: int, s: int) -> Fraction:
    """Value of the binomial point mass at its maximizing p = s/k."""
    if not 1 <= s <= k - 1:
        raise InputError("need 1 <= s <= k-1")
    return binom_point(k, Fraction(s, k), s)


def hypergeom_point(params: HypergeomParams) -> Fraction:
    """Exact C(r,s) C(n-r,k-s) / C(n,k), the one-part joint kernel; zero when infeasible."""
    return multi_hypergeom_joint(params.population, params.sample, (params.successes,),
                                 params.hits)


def multi_hypergeom_joint(
    n: int, k: int, part_sizes: tuple[int, ...] | list[int], s: int
) -> Fraction:
    """Probability a uniform k-subset meets every listed disjoint part in
    exactly s elements (the remainder comes from outside all parts)."""
    parts = tuple(part_sizes)
    if any(p < 0 for p in parts):
        raise InputError("part sizes must be nonnegative")
    if sum(parts) > n:
        raise InputError("parts exceed the population")
    if not 0 <= k <= n:
        raise InputError("need 0 <= k <= n")
    if s < 0:
        raise InputError("s must be nonnegative")
    if not parts:
        return Fraction(1)
    f = len(parts)
    rest = n - sum(parts)
    outside = k - f * s
    if outside < 0 or outside > rest or any(s > p for p in parts):
        return Fraction(0)
    ways = math.comb(rest, outside)
    for p in parts:
        ways *= math.comb(p, s)
    return Fraction(ways, math.comb(n, k))


def poly_exp_check(s: int, x: float) -> tuple[float, float, bool]:
    """lhs = x^s e^-x against rhs = (s/e)^s, in the log domain.

    Both sides use the same operation order so the equality point x = s
    lands exactly; the comparison tolerance is relative (1e-12), since an
    absolute slack is meaningless for the large magnitudes reached by big s.
    """
    if s < 1:
        raise InputError("s must be >= 1")
    if not 0 <= x < math.inf:
        raise InputError("x must be finite and nonnegative")
    lhs = 0.0 if x == 0 else math.exp(s * math.log(x) - x)
    rhs = math.exp(s * math.log(s) - s)
    return lhs, rhs, lhs <= rhs + FLOAT_TOL * max(1.0, rhs)


LambdaSplit = namedtuple("LambdaSplit", "y z lo hi lam")


def lambda_split(y: float, z: float) -> LambdaSplit:
    """A weight in [0, 1] sitting between y^2 e^(2-y-z)/4 and 1 - z e^(1-y-z).

    The interval is provably nonempty for all y, z >= 0; an empty interval
    here would falsify that inequality, so it aborts instead of clamping.
    The midpoint is returned, keeping the weight away from both ends.
    """
    if not (0 <= y < math.inf and 0 <= z < math.inf):
        raise InputError("y and z must be finite and nonnegative")
    yy = y * y
    # y * y overflows only for y above about 1.3e154, where e^(2 - y - z)
    # is so small that the exact lo lies below the smallest float
    lo = 0.0 if math.isinf(yy) else yy * math.exp(2 - y - z) / 4
    hi = 1 - z * math.exp(1 - y - z)
    if not lo <= hi + FLOAT_TOL:  # also catches a NaN
        raise InternalCheckError(
            f"empty lambda interval at y={y}, z={z}: lo={lo} > hi={hi};"
            " this contradicts a proven inequality, aborting"
        )
    lam = min(1.0, max(0.0, (lo + hi) / 2))
    return LambdaSplit(y=y, z=z, lo=lo, hi=hi, lam=lam)
