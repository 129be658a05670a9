"""Closed-form upper-bound formulas for induced densities, the degree-gap
finder that feeds them, and a selector that picks the applicable regime for
a given pattern graph.

The recurring quantity is phi(s) = s^s / (s! e^s), the point mass of a
Poisson(s) variable at its mean; it caps the probability that a sampled
vertex set hits a structured part in exactly s elements.  Vanishing
asymptotic correction terms are never folded into numbers: reports either
carry a finite formula value (the finite part only) or are flagged
asymptotic-only.

All transcendental evaluation happens in the log domain (s^s / s!
overflows doubles near s = 150) with relative error well inside 1e-12.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Any

from .errors import InputError, InternalCheckError, PreconditionError, UnsupportedSizeError
from .graphs import Graph, canonical_key, complement, degree_profile

E = math.e

def _as_fraction(x: float | Fraction | int) -> Fraction:
    """Exact rational view of a parameter.

    Floats are read as the nearest rational with denominator at most 10^12,
    so 0.01 means 1/100 rather than its binary approximation; thresholds
    and interval scans then run exactly and deterministically.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**12)


def _positive_fraction(name: str, x: float | Fraction) -> Fraction:
    """`_as_fraction(x)` for a parameter that must be positive, where a
    positive float below about 5e-13 would read as the rational 0."""
    if x <= 0:
        raise InputError(f"{name} must be positive")
    value = _as_fraction(x)
    if value == 0:
        raise InputError(f"{name} {x} rounds to 0 at the 1e-12 resolution of rationals")
    return value


REGIME_HIGH_DEGREE_S = "high_degree_s"
REGIME_HIGH_DEGREE_ST = "high_degree_st"
REGIME_UNIFORM = "uniform_low_degree"
REGIME_NON_UNIFORM = "non_uniform"
REGIME_SPARSE = "sparse_core"
REGIME_DENSE = "dense_external"
REGIME_DEGENERATE = "complement_first"


# phi switches to Stirling's series here: s ln s - ln s! - s loses about
# s ln s ulps to cancellation, and the series' first omitted term,
# 1/(1188 s^9), is below 1e-18
PHI_SERIES_FROM = 50


def phi(s: int) -> float:
    """s^s / (s! e^s), evaluated as exp(s ln s - ln s! - s), or from
    s = PHI_SERIES_FROM on as exp(-ln(2 pi s)/2 - 1/(12s) + 1/(360s^3)
    - 1/(1260s^5) + 1/(1680s^7))."""
    if s < 1:
        raise PreconditionError("phi requires s >= 1")
    if s < PHI_SERIES_FROM:
        return math.exp(s * math.log(s) - math.lgamma(s + 1) - s)
    c = 1 / s  # int true division: 0.0 rather than an overflow for huge s
    c2 = c * c
    series = c * (1 / 12 - c2 * (1 / 360 - c2 * (1 / 1260 - c2 / 1680)))
    return math.exp(-(math.log(2 * math.pi) + math.log(s)) / 2 - series)


def high_degree_bound(s: int, ind_reduced: float = 1.0) -> float:
    """phi(s) scaled by a density bound for the graph with the s high-degree
    vertices removed (finite part only)."""
    if s < 1:
        raise InputError("s must be >= 1")
    if not 0 <= ind_reduced <= 1:
        raise InputError("ind_reduced must lie in [0, 1]")
    return phi(s) * ind_reduced

def high_degree_pair_bound(s: int, t: int) -> float:
    """phi(s) * phi(t): applies when t vertices outside the high-degree set
    are only partially attached to it."""
    if s < 1 or t < 1:
        raise InputError("s and t must be >= 1")
    return phi(s) * phi(t)


def uniform_degree_bound(tau: int, beta: float, eps: float) -> tuple[int, float]:
    """(f, 2 (phi(tau)/beta)^f) with f = floor(sqrt(beta / (tau eps))).

    f = 0 yields the vacuous value 2.
    """
    if tau < 1:
        raise InputError("tau must be >= 1")
    if not 0 < beta <= 1:
        raise InputError("beta must be in (0, 1]")
    eps_f = _positive_fraction("eps", eps)
    ratio = _as_fraction(beta) / (tau * eps_f)
    f = math.isqrt(ratio.numerator // ratio.denominator)
    try:
        value = 2.0 * (phi(tau) / beta) ** f
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"uniform bound overflows at f = {f}")
    return f, value


DegreeGapReport = namedtuple("DegreeGapReport", "a b delta s S")


def find_degree_gap(h: Graph, eps: float | Fraction, C: float | Fraction) -> DegreeGapReport:
    """First degree-free interval (a*k, b*k) of width delta*k with b <= eps.

    delta = eps^2 / (8C) makes the combined interval mass exceed twice the
    edge budget, so a gap must exist whenever l <= C*k and the maximum
    degree reaches eps*k; the scan runs in exact rational arithmetic.
    """
    k = h.n
    prof = degree_profile(h)
    eps_f = _positive_fraction("eps", eps)
    c_f = _positive_fraction("C", C)
    if prof.edge_count > c_f * k:
        raise PreconditionError(f"edge count {prof.edge_count} exceeds C*k = {float(c_f * k)}")
    if prof.max_degree == 0 or prof.max_degree < eps_f * k:  # eps*k is 0 at k = 0
        raise PreconditionError(
            f"max degree {prof.max_degree} is 0 or below eps*k = {float(eps_f * k)}"
        )
    delta = eps_f * eps_f / (8 * c_f)
    degrees = set(prof.degrees)
    i = 1
    while delta * (i + 1) <= eps_f:
        lo = delta * i * k
        hi = delta * (i + 1) * k
        if not any(lo < d < hi for d in degrees):
            a = delta * i
            b = delta * (i + 1)
            threshold = b * k
            S = frozenset(v for v in range(k) if h.adj[v].bit_count() >= threshold)
            s = len(S)
            if not 1 <= s <= 2 * c_f / delta:
                raise InternalCheckError(f"gap size s={s} outside [1, 2C/delta]")
            if s * b * k > 2 * prof.edge_count:
                raise InternalCheckError("s*b*k exceeds the degree sum")
            return DegreeGapReport(
                a=float(a), b=float(b), delta=float(delta), s=s, S=S
            )
        i += 1
    raise InternalCheckError(
        "no degree gap found although the preconditions hold; impossible"
    )


def sparse_regime_bound(alpha: float, nu: float) -> float:
    """(2 + 3 e^2 alpha) / (2 + (e-2) nu) / e + 2 alpha."""
    if alpha < 0:
        raise InputError("alpha must be nonnegative")
    if not 0 <= nu <= 1:
        raise InputError("nu must lie in [0, 1]")
    value = (2 + 3 * E * E * alpha) / (2 + (E - 2) * nu) / E + 2 * alpha
    if not math.isfinite(value):
        raise InputError(f"sparse bound overflows at alpha = {alpha}")
    return value


# each closed-form threshold is scaled by 1 - CLOSED_FORM_MARGIN, so that its
# inequality still holds when evaluated in floats
CLOSED_FORM_MARGIN = 1e-12
# C eps at the 2/e^2 target, where sqrt(1/(8 C eps)) - 1 = 2/(1 - ln 2)
EPS_TIMES_C = 1 / (8 * (1 + 2 / (1 - math.log(2))) ** 2)


def find_sparse_alpha() -> tuple[float, float]:
    """Largest alpha keeping the sparse bound below 1/e at the 1/12 floor,
    plus the bound value at alpha/2.

    With D = 2 + (e-2)/12 the bound is below 1/e exactly when
    alpha < (e-2) / (12 e (3e + 2D)); that threshold is returned times
    1 - CLOSED_FORM_MARGIN.
    """
    d = 2 + (E - 2) / 12
    alpha = (E - 2) / (12 * E * (3 * E + 2 * d)) * (1 - CLOSED_FORM_MARGIN)
    return alpha, sparse_regime_bound(alpha / 2, 1 / 12)


def solve_epsilon(C: float) -> float:
    """Largest eps in (0, 1] with 2 (2/e)^(sqrt(1/(8 C eps)) - 1) <= 2/e^2.

    That is min(1, c0 / C) with c0 = EPS_TIMES_C = 1 / (8 (1 + 2/(1 - ln 2))^2)
    ~ 0.00221172, taken times 1 - CLOSED_FORM_MARGIN; dividing c0 by C forms
    no 8 C, which could overflow.
    """
    if C <= 0:
        raise InputError("C must be positive")
    return min(1.0, EPS_TIMES_C / C * (1 - CLOSED_FORM_MARGIN))


def non_uniform_predicate(h: Graph, beta: float, C: float) -> bool:
    """Hypotheses of the vanishing-bound case: edge count at most C*k and
    every degree multiplicity at most beta*k (the conclusion itself is
    asymptotic and never evaluated to a number)."""
    if not 0 < beta <= 1:
        raise InputError("beta must be in (0, 1]")
    k = h.n
    prof = degree_profile(h)
    if prof.edge_count > _as_fraction(C) * k:
        return False
    limit = _as_fraction(beta) * k
    return all(count <= limit for count in prof.k_hist.values())


class SelectorParams(namedtuple("SelectorParams", "C eps alpha beta")):
    __slots__ = ()

    def __new__(cls, C: float = 1.0, eps: float | None = None, alpha: float | None = None,
                beta: float | None = None):
        if C <= 0 or (eps is not None and eps <= 0):
            raise InputError("C and eps must be positive")
        if alpha is not None and alpha < 0:
            raise InputError("alpha must be nonnegative")
        if beta is not None and not 0 < beta <= 1:
            raise InputError("beta must be in (0, 1]")
        return super().__new__(cls, C, eps, alpha, beta)


class BoundReport(namedtuple("BoundReport", "regime finite_value asymptotic_only inputs citation")):
    """The chosen regime and its bound; `asymptotic_only` is derived, set
    exactly when `finite_value` is None."""

    __slots__ = ()

    def __new__(cls, regime: str, finite_value: float | None, inputs: dict[str, Any],
                citation: str):
        return super().__new__(cls, regime, finite_value, finite_value is None, inputs, citation)


def regime_selector(h: Graph, params: SelectorParams | None = None) -> BoundReport:
    """Classify h into the applicable bound regime after normalizing to the
    sparser of the graph and its complement (exact-half ties go to the
    lexicographically smaller canonical form, so the label is
    complement-invariant)."""
    p = params or SelectorParams()
    C = p.C
    eps = p.eps if p.eps is not None else solve_epsilon(C)
    alpha = p.alpha if p.alpha is not None else find_sparse_alpha()[0]

    k = h.n
    inputs: dict[str, Any] = {"C": C, "eps": eps, "alpha": alpha}
    if k == 0:
        inputs["k"] = 0
        return BoundReport(regime=REGIME_DEGENERATE, finite_value=None, inputs=inputs,
                           citation="degenerate: empty vertex set, no bound applies")

    half = Fraction(k * (k - 1) // 2, 2)
    l = h.edge_count()
    comp = complement(h)
    complemented = l > half or (l == half and canonical_key(comp) < canonical_key(h))
    work = comp if complemented else h
    prof = degree_profile(work)
    l = prof.edge_count
    m = prof.m
    inputs.update({"k": k, "edges": l, "m": m, "max_degree": prof.max_degree,
                   "complemented": complemented})

    if l < 2:
        return BoundReport(regime=REGIME_DEGENERATE, finite_value=None, inputs=inputs,
                           citation="degenerate after complement normalization: fewer"
                           " than 2 edges, outside the bounds' hypotheses")

    if l >= _as_fraction(C) * k:
        return BoundReport(regime=REGIME_DENSE, finite_value=None, inputs=inputs,
                           citation="dense regime: externally known vanishing-density"
                           " bound with a user-supplied constant (asymptotic only)")

    beta = p.beta if p.beta is not None else max(1 - alpha / 2, 0.5)
    inputs["beta"] = beta

    def sparse_report() -> BoundReport:
        from .brightness import brightness_exact

        alpha_eff = m / k
        nu = float(brightness_exact(work))
        inputs.update({"alpha_eff": alpha_eff, "nu": nu, "nu_kind": "exact"})
        return BoundReport(regime=REGIME_SPARSE,
                           finite_value=sparse_regime_bound(alpha_eff, nu), inputs=inputs,
                           citation="sparse core: (2 + 3e^2 a)/(2 + (e-2) nu) / e + 2a at"
                           " a = m/k with nu a bright-labeling probability bound")

    if m <= _as_fraction(alpha) * k:
        return sparse_report()

    if p.eps is None and _as_fraction(eps) == 0:
        raise UnsupportedSizeError(f"the eps derived from C = {C}, {eps}, rounds to 0"
                                   " at the 1e-12 resolution of rationals; pass --eps")
    if prof.max_degree >= _as_fraction(eps) * k:
        gap = find_degree_gap(work, eps, C)
        # derive T straight from the exact S rather than re-thresholding
        # with a rounded b, which could flip boundary degrees
        s_mask = sum(1 << v for v in gap.S)
        t = sum(1 for v in range(k)
                if not (s_mask >> v) & 1 and (work.adj[v] & s_mask) != s_mask)
        inputs.update({"gap_a": gap.a, "gap_b": gap.b, "gap_delta": gap.delta,
                       "s": gap.s, "t": t})
        if t:
            return BoundReport(regime=REGIME_HIGH_DEGREE_ST,
                               finite_value=high_degree_pair_bound(gap.s, t), inputs=inputs,
                               citation="high-degree split with partially attached"
                               " outside vertices: phi(s) * phi(t)")
        return BoundReport(regime=REGIME_HIGH_DEGREE_S, finite_value=high_degree_bound(gap.s),
                           inputs=inputs,
                           citation="high-degree split: phi(s), taking the reduced"
                           " graph's density bound at 1")

    # low maximum degree: look for a dominating repeated positive degree
    beta_limit = _as_fraction(beta) * k
    tau = next((d for d, count in sorted(prof.k_hist.items())
                if d >= 1 and count >= beta_limit), None)
    if tau is not None:
        beta_actual = prof.k_hist[tau] / k
        f, value = uniform_degree_bound(tau, beta_actual, eps)
        inputs.update({"tau": tau, "beta_actual": beta_actual, "f": f})
        return BoundReport(regime=REGIME_UNIFORM, finite_value=value, inputs=inputs,
                           citation="repeated low degree: 2 (phi(tau)/beta)^f with"
                           " f = floor(sqrt(beta/(tau eps)))")

    # the predicate's edge test holds here, after the dense check
    if non_uniform_predicate(work, beta, C):
        return BoundReport(regime=REGIME_NON_UNIFORM, finite_value=None, inputs=inputs,
                           citation="no dominating degree multiplicity: vanishing bound"
                           " (asymptotic only)")

    # only the zero degree dominates, so the core is small relative to k
    return sparse_report()
