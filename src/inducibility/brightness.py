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

The Monte-Carlo estimate samples the same two vertices.  Each trial draws x
uniform over the core, then, only when x is detectable and R(x) is
nonempty, y's index in R(x), and counts the labeling bright when that index
is below |R(x) & D|.  Both draws are `mc.randbelow`, CPython's `randrange`.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .errors import InputError, PreconditionError
from .graphs import Graph, degree_profile
from .mc import MCEstimate, randbelow, run_bernoulli_streams
from .structure import classify_vertices

# `brightness_report` gives the exact value up to this core size and the
# Monte-Carlo estimate above it
BRIGHTNESS_EXACT_LIMIT = 10


def is_bright(h: Graph, labeling: Sequence[int]) -> bool:
    if sorted(labeling) != list(range(h.n)):
        raise InputError("labeling is not a permutation of the vertex set")
    detect_mask = sum(1 << v for v in classify_vertices(h).detectable)
    seen = 0
    last = -1
    second_last = -1
    for v in labeling:
        if h.adj[v] & seen:
            second_last = last
            last = v
        seen |= 1 << v
    if second_last < 0:
        return False
    return bool((detect_mask >> last) & 1) and bool((detect_mask >> second_last) & 1)


def _by_last_vertex(h: Graph) -> list[tuple[int, int]]:
    """One entry per core vertex x, in vertex order: (|R(x)|, |R(x) & D|) when
    x is detectable and R(x) is nonempty, else (0, 0)."""
    adj = h.adj
    core = [v for v in range(h.n) if adj[v]]
    core_mask = sum(1 << v for v in core)
    detect_mask = sum(1 << v for v in classify_vertices(h).detectable)
    leaves = [0] * h.n  # leaves[x]: the vertices whose only neighbor is x
    for y in core:
        if adj[y] & (adj[y] - 1) == 0:
            leaves[adj[y].bit_length() - 1] |= 1 << y
    # R(x), taken empty when x is not detectable
    rests = [core_mask ^ (1 << x) ^ leaves[x] if (detect_mask >> x) & 1 else 0 for x in core]
    return [(rest.bit_count(), (rest & detect_mask).bit_count()) for rest in rests]


def brightness_exact(h: Graph) -> Fraction:
    """Fraction of labelings that are bright, from the module's closed form."""
    entries = _by_last_vertex(h)
    if not entries:
        return Fraction(0)
    lcm = math.lcm(*range(1, len(entries)))  # every |R(x)| divides it
    total = sum(hits * lcm // size for size, hits in entries if size)
    return Fraction(total, lcm * len(entries))


def brightness_mc(h: Graph, samples: int, seed: int) -> MCEstimate:
    """Estimate over uniformly random labelings, 95% Wilson interval."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    entries = _by_last_vertex(h)
    m = len(entries)

    def trial(rng: random.Random) -> bool:
        if not m:
            return False
        size, hits = entries[randbelow(rng, m)]  # x, the last core vertex
        return size > 0 and randbelow(rng, size) < hits  # y, the last of R(x)

    return run_bernoulli_streams(trial, samples, seed)


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
