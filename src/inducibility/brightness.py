"""Bright labelings and their probability.

A labeling v1..vk is bright when at least two positions carry a vertex with
a neighbor among the earlier ones and the vertices at the last two such
positions are both detectable.  Isolated vertices never contribute a
positive back-degree and do not change anyone else's, so only the relative
order of the m non-isolated vertices matters.  Whether a vertex has an
earlier neighbor depends only on the set of vertices placed before it, so
the exact value counts bright orderings of the core by a DP over its 2^m
prefix sets (as in the Held-Karp subset DP) instead of walking all m!
orderings.

The Monte-Carlo estimate draws each labeling as CPython's `random.shuffle`
of `range(n)` would, and decides it while the shuffle runs (`_bright_trial`);
`tests/test_brightness_stream.py` guards that the draws are the same.  The
package's other draws are listed in `mc`.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InputError, PreconditionError, UnsupportedSizeError
from .graphs import Graph, _induced_rows, degree_profile
from .mc import MCEstimate, run_bernoulli_streams
from .structure import classify_vertices

BRIGHTNESS_EXACT_LIMIT = 10


def is_bright(h: Graph, labeling: Sequence[int]) -> bool:
    if sorted(labeling) != list(range(h.n)):
        raise InputError("labeling is not a permutation of the vertex set")
    detect_mask = sum(1 << v for v in classify_vertices(h).detectable)
    return _bright_given_masks(h.adj, labeling, detect_mask)


def _bright_given_masks(adj: Sequence[int], order: Sequence[int], detect_mask: int) -> bool:
    seen = 0
    last = -1
    second_last = -1
    for v in order:
        if adj[v] & seen:
            second_last = last
            last = v
        seen |= 1 << v
    if second_last < 0:
        return False
    return bool((detect_mask >> last) & 1) and bool((detect_mask >> second_last) & 1)


def brightness_exact(h: Graph) -> Fraction:
    """Fraction of labelings that are bright, by a DP over core prefix sets.

    An ordering of a prefix set ends in one of four states: no vertex with
    an earlier neighbor yet (0), the last such vertex not detectable (1),
    the last one detectable but not the one before it (2), the last two
    both detectable (3).  The bright orderings are those of the whole core
    that end in state 3.
    """
    core = [v for v in range(h.n) if h.adj[v]]
    m = len(core)
    if m > BRIGHTNESS_EXACT_LIMIT:
        raise UnsupportedSizeError(
            f"brightness_exact supports m <= {BRIGHTNESS_EXACT_LIMIT} non-isolated"
            f" vertices, got {m} (use brightness_mc)"
        )
    if m == 0:
        return Fraction(0)
    detectable = classify_vertices(h).detectable
    rows = _induced_rows(h.adj, core)
    full = (1 << m) - 1
    # counts[prefix][state]: orderings of the prefix set that end in state
    counts = [[0, 0, 0, 0] for _ in range(full + 1)]
    counts[0][0] = 1
    for prefix in range(full):
        here = counts[prefix]
        for i, v in enumerate(core):
            bit = 1 << i
            if prefix & bit:
                continue
            nxt = counts[prefix | bit]
            if not rows[i] & prefix:
                for state in range(4):
                    nxt[state] += here[state]
            elif v in detectable:
                nxt[2] += here[0] + here[1]
                nxt[3] += here[2] + here[3]
            else:
                nxt[1] += sum(here)
    return Fraction(counts[full][3], math.factorial(m))


def _bright_trial(adj: Sequence[int], detect_mask: int) -> Callable[[random.Random], bool]:
    """The Monte-Carlo trial: whether the labeling that `rng.shuffle` makes of
    `list(range(len(adj)))` is bright, making exactly that shuffle's draws.

    Fisher-Yates fixes positions n-1, n-2, ... first, each with the
    `_randbelow` rejection loop over `getrandbits`.  The vertices not yet
    placed are the ones before the position just fixed, so its vertex v has
    an earlier neighbor iff `adj[v] & unplaced`.  Scanning from the end, the
    first two such vertices are the last two of the labeling, and the outcome
    is known once one of them is not detectable or both are; the later
    positions then only make their draws, without the swaps.
    """
    n = len(adj)
    verts = list(range(n))
    everyone = (1 << n) - 1
    # (position i, bit length of i + 1): the draws of i = n-1 down to 1
    steps = [(i, (i + 1).bit_length()) for i in range(n - 1, 0, -1)]

    def trial(rng: random.Random) -> bool:
        getrandbits = rng.getrandbits
        items = verts[:]
        unplaced = everyone
        found = False
        rest = iter(steps)
        for i, k in rest:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            v = items[j]
            items[j] = items[i]
            unplaced ^= 1 << v
            if adj[v] & unplaced:
                if not (detect_mask >> v) & 1:
                    bright = False
                    break
                if found:
                    bright = True
                    break
                found = True
        else:
            return False
        for i, k in rest:
            while getrandbits(k) > i:
                pass
        return bright

    return trial


def brightness_mc(h: Graph, samples: int, seed: int) -> MCEstimate:
    """Estimate over uniformly random labelings, 95% Wilson interval."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    detect_mask = sum(1 << v for v in classify_vertices(h).detectable)
    return run_bernoulli_streams(_bright_trial(h.adj, detect_mask), samples, seed)


BrightnessBounds = namedtuple("BrightnessBounds", "lb_m2 lb_m1 special_m1")


def brightness_lower_bounds(h: Graph) -> BrightnessBounds:
    """Closed-form lower bounds from the counts of degree-1 and degree->=2
    vertices; the negative branch of the m1 expression is clamped to zero
    since a negative probability bound is vacuous."""
    prof = degree_profile(h)
    if prof.edge_count < 2:
        raise PreconditionError("lower bounds require at least 2 edges")
    m, m1, m2 = prof.m, prof.m1, prof.m_ge2
    pairs = Fraction(math.comb(m, 2))
    lb_m2 = Fraction(math.comb(m2, 2)) / pairs
    lb_m1 = max(Fraction(0), Fraction(m1 * (m1 - 2), 2) / pairs)
    special = Fraction(0)
    if m1 == 2:
        ones = [v for v in range(h.n) if h.adj[v].bit_count() == 1]
        u, v = ones
        if not h.has_edge(u, v):
            special = 1 / pairs
    return BrightnessBounds(lb_m2=lb_m2, lb_m1=lb_m1, special_m1=special)


# `lb_const` is 1/12 when the floor applies (>= 2 edges), else 0
BrightnessReport = namedtuple("BrightnessReport", "exact mc lb_m2 lb_m1 special_m1 lb_const")


def brightness_report(
    h: Graph, mc_samples: int = 100_000, seed: int = 0
) -> BrightnessReport:
    """Exact value when the core is small, Monte-Carlo otherwise, plus all
    closed-form lower bounds."""
    if mc_samples < 0:
        raise InputError(f"mc samples must be >= 0, got {mc_samples}")
    prof = degree_profile(h)
    if prof.m > BRIGHTNESS_EXACT_LIMIT and mc_samples < 1:
        raise InputError(
            f"the core has {prof.m} non-isolated vertices, over the exact limit of"
            f" {BRIGHTNESS_EXACT_LIMIT}: mc samples must be >= 1, got {mc_samples}"
        )
    if prof.edge_count < 2:
        raise PreconditionError("brightness report requires at least 2 edges")
    bounds = brightness_lower_bounds(h)
    exact: Fraction | None = None
    mc: MCEstimate | None = None
    if prof.m <= BRIGHTNESS_EXACT_LIMIT:
        exact = brightness_exact(h)
    else:
        mc = brightness_mc(h, mc_samples, seed)
    return BrightnessReport(
        exact=exact,
        mc=mc,
        lb_m2=bounds.lb_m2,
        lb_m1=bounds.lb_m1,
        special_m1=bounds.special_m1,
        lb_const=Fraction(1, 12),
    )
