"""Lower-bound constructions: blow-ups of a template, and sparse random hosts.

Every host but the random one is one blow-up: a template graph on parts,
each part a clique or an independent set of a given size, two parts joined
completely where the template has an edge.  The split host blows up an edge
(split plus edge makes its small part a clique), and the blow-up of a
pattern tamed by V0 has one part per vertex of V0 and one for the rest.  The
defining event picks s vertices in each of the first f parts and the other
k - f s outside them; its exact probability at this n comes from the joint
hypergeometric kernel of the proba module, next to each family's closed-form
n -> infinity value.  The concrete host graph (and the pattern, and the
pattern's full induced density in the host) is materialized only when it
fits the 64-vertex graph universe.  The defining event always induces the
pattern, but for some parameter coincidences other pick patterns induce it
as well, so the full induced density can strictly exceed the event
probability; when the subset budget allows, it is computed through the
density module and reported separately.

Part sizes use round-half-up with the residue absorbed by the large part,
so achieved-versus-limit gaps include rounding effects.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, combinations

from .density import induced_density
from .errors import InputError, PreconditionError, UnsupportedSizeError
from .graphs import MAX_VERTICES, Graph, _induced_rows, with_isolated
from .proba import multi_hypergeom_joint
from .structure import is_tamed_by

DENSITY_BUDGET = 2_000_000
# The digits of C(n, k), the event probability's unreduced denominator, times
# m = min(k, n - k): about the digit steps of the divisions inside
# math.comb(n, k).  From this budget on, the probability is refused before it
# is computed; README's size-limit table gives the timings behind the value.
EVENT_BUDGET = 3 * 10**12


# `graph` is None when n, and `target` when k, exceeds the 64-vertex universe;
# `achieved` is the exact probability of the defining pick event, and
# `target_density` the full induced density, when affordable; for
# `gnp_construction` the two are the sampled host's density, both None
# when C(n, k) exceeds the subset budget
ConstructionReport = namedtuple(
    "ConstructionReport", "graph target achieved limit_formula sigma target_density seed",
    defaults=(None,))


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _check_float_range(n: int) -> None:
    """Part sizes are rounded from float products with n, so n must convert to a float."""
    try:
        float(n)
    except OverflowError:
        raise UnsupportedSizeError("n is past the float range of the part sizes") from None


def _check_event_budget(n: int, k: int) -> None:
    """Refuse when m = min(k, n - k) times the digits of C(n, k) = C(n, m) passes
    EVENT_BUDGET, by the lower bound (n - m + 1)^m / (e m^(m + 1/2) e^-m) on C(n, m)."""
    m = min(k, n - k)
    if m < 1:
        return
    ln_comb = m * (math.log(n - m + 1) - math.log(m) + 1) - math.log(m) / 2 - 1
    if m * ln_comb / math.log(10) >= EVENT_BUDGET:
        raise UnsupportedSizeError("the exact event probability is out of reach: the digits of"
                                   f" C(n, k) times min(k, n - k) pass {EVENT_BUDGET:,}")


def _binomial_limit(k: int, r: int, sigma: float) -> float:
    """C(k, r) sigma^r (1 - sigma)^(k - r), through logarithms once C(k, r)
    is past the float range (the value itself is at most 1)."""
    ways = math.comb(k, r)
    if ways <= sys.float_info.max:
        return ways * sigma**r * (1 - sigma) ** (k - r)
    return math.exp(math.log(ways) + r * math.log(sigma) + (k - r) * math.log1p(-sigma))


def _maybe_density(target: Graph | None, graph: Graph | None) -> Fraction | None:
    if target is None or graph is None:
        return None
    if math.comb(graph.n, target.n) > DENSITY_BUDGET:
        return None
    return induced_density(target, graph).density


def _blowup(template: Graph, cliques: tuple[bool, ...], sizes: tuple[int, ...]) -> Graph:
    """Part i is the next sizes[i] vertices, a clique when cliques[i]; parts
    i and j are joined completely where the template has the edge ij."""
    masks = [((1 << size) - 1) << start for size, start in zip(sizes, accumulate((0, *sizes)))]
    joined = [sum(masks[j] for j in range(template.n) if template.has_edge(i, j))
              | (masks[i] if cliques[i] else 0) for i in range(template.n)]
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return Graph(len(part), tuple(joined[i] & ~(1 << v) for v, i in enumerate(part)))


def _report(template: Graph, cliques: tuple[bool, ...], sizes: tuple[int, ...], k: int, f: int,
            s: int, limit, sigma: float | None = None, target: Graph | None = None
            ) -> ConstructionReport:
    """The blow-up at part `sizes` with its event: s picks in each of the
    first f parts and k - f s in the others.  `limit()` is the closed-form
    value, called once the budget check passes; the target defaults to the
    blow-up at the pick counts."""
    n = sum(sizes)
    _check_event_budget(n, k)
    graph = _blowup(template, cliques, sizes) if n <= MAX_VERTICES else None
    if target is None and k <= MAX_VERTICES:
        target = _blowup(template, cliques, (s,) * f + (k - f * s,))
    return ConstructionReport(graph, target, multi_hypergeom_joint(n, k, sizes[:f], s), limit(),
                              sigma, _maybe_density(target, graph))


def split_construction(k: int, r: int, n: int, sigma: float) -> ConstructionReport:
    """Complete bipartite host with a sigma-fraction small side; the defining
    event picks exactly r vertices there and k-r on the other side."""
    if not 1 <= r < k <= n:
        raise InputError("need 1 <= r < k <= n")
    if not 0 < sigma < 1:
        raise InputError("sigma must be in (0, 1)")
    _check_float_range(n)
    small = _round_half_up(sigma * n)
    if small < r:
        raise InputError(f"small part {small} cannot host {r} picks")
    if n - small < k - r:
        raise InputError(f"large part {n - small} cannot host {k - r} picks")
    return _report(Graph.complete(2), (False, False), (small, n - small), k, 1, r,
                   lambda: _binomial_limit(k, r, sigma), sigma)


def gnp_construction(k: int, n: int, seed: int) -> ConstructionReport:
    """Random host with edge probability 1/C(k,2); the pattern is a single
    edge plus k-2 isolated vertices, so the defining event is the induced
    copy itself.  The limit formula is the expected density per k-subset;
    `achieved` and `target_density` are both the sampled graph's own
    density, None above the subset budget (seed recorded)."""
    if not 2 <= k <= n:
        raise InputError("need 2 <= k <= n")
    if n > MAX_VERTICES:
        raise InputError(f"gnp host has {n} vertices, above the {MAX_VERTICES}-vertex limit")
    if seed < 0:
        # random.Random seeds from |seed|, so -s would build s's host
        raise InputError(f"seed must be >= 0, got {seed}")
    pairs = math.comb(k, 2)
    p = 1 / pairs
    graph = Graph.gnp(random.Random(seed), n, p)
    target = with_isolated(Graph.complete(2), k - 2)
    density = _maybe_density(target, graph)
    return ConstructionReport(
        graph=graph,
        target=target,
        achieved=density,
        limit_formula=pairs * p * (1 - p) ** (pairs - 1),
        sigma=None,
        target_density=density,
        seed=seed,
    )


def split_plus_edge(k: int, n: int) -> ConstructionReport:
    """Small side of roughly 2n/k turned into a clique and joined to the
    rest; the defining event picks 2 clique vertices and k-2 others."""
    if k < 4:
        raise InputError("need k >= 4")
    if n < k:
        raise InputError("need n >= k")
    _check_float_range(n)
    small = _round_half_up(2 * n / k)  # in [2, n - k + 2] as k >= 4: both sides host their picks
    return _report(Graph.complete(2), (True, False), (small, n - small), k, 1, 2,
                   lambda: _binomial_limit(k, 2, 2 / k), 2 / k)


def dtame_blowup(h: Graph, v0, n: int) -> ConstructionReport:
    """Blow up a tamed pattern: one size-floor(n/k) part per taming vertex
    (kept edgeless inside, since the defining event takes one vertex per
    part) and one part for the rest, cliqued exactly when the rest is a
    clique in h; parts are joined following h's adjacency."""
    v0 = sorted(set(v0))
    for v in v0:
        if not 0 <= v < h.n:
            raise InputError(f"vertex {v} out of range")
    if not is_tamed_by(h, v0):
        raise PreconditionError("v0 is not a taming set of h")
    k = h.n
    if k == 0:  # the empty set tames it, but there is no part to size
        raise InputError("the 0-vertex pattern has nothing to blow up")
    if n < k:
        raise InputError("need n >= k")
    d = len(v0)
    rest = [v for v in range(k) if v not in v0]
    # the rest part stands for rest[0], which taming makes attach to each
    # v0[i] all-or-none; with no rest it stands for no vertex and stays isolated
    reps = v0 + rest[:1]
    template = with_isolated(Graph(len(reps), _induced_rows(h.adj, reps)), d + 1 - len(reps))
    rest_is_clique = bool(rest) and all(h.has_edge(u, v) for u, v in combinations(rest, 2))
    size = n // k

    def limit() -> float:  # multinomial, at part fractions 1/k each and (k-d)/k for the rest
        return math.factorial(k) / math.factorial(k - d) * (1 / k) ** d * ((k - d) / k) ** (k - d)

    return _report(template, (False,) * d + (rest_is_clique,), (size,) * d + (n - d * size,),
                   k, d, 1, limit, target=h)
