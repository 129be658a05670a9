"""Bright labelings and their probability.

A labeling v1..vk is bright when at least two positions carry a vertex with
a neighbor among the earlier ones and the vertices at the last two such
positions are both detectable.  Isolated vertices never contribute a
positive back-degree and do not change anyone else's, so only the relative
order of the m non-isolated vertices (the core) matters, and the exact
value is a closed form over the core:

1. The last core vertex x has all its neighbors before it, so it is the
   last vertex with an earlier neighbor.
2. Let R(x) be the core without x and without x's pendant leaves (the
   vertices whose only neighbor is x).  Every core vertex after the last
   one of R(x) is x or a pendant leaf of x, which has no earlier neighbor;
   the last vertex y of R(x) has a neighbor other than x, and that
   neighbor, not being a leaf of x, comes before y.  So y is the second to
   last vertex with an earlier neighbor, and there is none when R(x) is
   empty.
3. Given that x is last, the rest of the core is in uniform random order,
   so y is uniform over R(x).  With D the detectable vertices,

       nu = (1/m) * sum over x in D with R(x) nonempty of |R(x) & D| / |R(x)|.

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

from .errors import InputError, PreconditionError
from .graphs import Graph, degree_profile
from .mc import MCEstimate, run_bernoulli_streams
from .structure import classify_vertices

# `brightness_report` gives the exact value up to this core size and the
# Monte-Carlo estimate above it
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
    """Fraction of labelings that are bright, from the module's closed form."""
    adj = h.adj
    core = [v for v in range(h.n) if adj[v]]
    if not core:
        return Fraction(0)
    core_mask = sum(1 << v for v in core)
    detect_mask = sum(1 << v for v in classify_vertices(h).detectable)
    leaves = [0] * h.n  # leaves[x]: the vertices whose only neighbor is x
    for y in core:
        if adj[y] & (adj[y] - 1) == 0:
            leaves[adj[y].bit_length() - 1] |= 1 << y
    m = len(core)
    lcm = math.lcm(*range(1, m))  # every |R(x)| divides it
    total = 0
    for x in core:
        rest = core_mask ^ (1 << x) ^ leaves[x]  # R(x)
        if (detect_mask >> x) & 1 and rest:
            total += (rest & detect_mask).bit_count() * lcm // rest.bit_count()
    return Fraction(total, lcm * m)


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
    """Exact value for a core of at most BRIGHTNESS_EXACT_LIMIT vertices,
    Monte-Carlo otherwise, plus all closed-form lower bounds."""
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
