"""Lower-bound constructions: split bipartite hosts, sparse random hosts,
and the blow-up of a tamed graph.

Each generator returns the exact probability of its defining pick event at
this n and the closed-form n -> infinity value of that probability; these
are plain binomial-coefficient formulas and work for any n.  The concrete
host graph (and the pattern, and the pattern's full induced density in the
host) is materialized only when it fits the 64-vertex graph universe.  The defining event
(say, exactly r picks on the small side) always induces the pattern, but
for some parameter coincidences other pick patterns induce it as well, so
the full induced density of the pattern can strictly exceed the event
probability; when the subset budget allows, that full density is computed
through the density module and reported separately.

Part sizes use round-half-up with the residue absorbed by the large part,
so achieved-versus-limit gaps include rounding effects.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .density import induced_density
from .errors import InputError, PreconditionError
from .graphs import MAX_VERTICES, Graph, with_isolated
from .structure import is_tamed_by

DENSITY_BUDGET = 2_000_000


@dataclass(frozen=True)
class ConstructionReport:
    graph: Graph | None  # None when n exceeds the 64-vertex universe
    target: Graph | None  # None when k exceeds the 64-vertex universe
    achieved: Fraction  # exact probability of the defining pick event
    limit_formula: float
    sigma: float | None
    target_density: Fraction | None  # full induced density, when affordable
    seed: int | None = None


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _maybe_density(target: Graph | None, graph: Graph | None) -> Fraction | None:
    if target is None or graph is None:
        return None
    if math.comb(graph.n, target.n) > DENSITY_BUDGET:
        return None
    return induced_density(target, graph).density


def _join_clique_to_independent(a: int, b: int) -> Graph:
    """K_a joined completely to an independent set of size b."""
    full = (1 << (a + b)) - 1
    rows = [full ^ (1 << v) for v in range(a)]
    rows += [(1 << a) - 1 for _ in range(b)]
    return Graph(a + b, tuple(rows))


def split_construction(k: int, r: int, n: int, sigma: float) -> ConstructionReport:
    """Complete bipartite host with a sigma-fraction small side; the defining
    event picks exactly r vertices there and k-r on the other side."""
    if not 1 <= r < k <= n:
        raise InputError("need 1 <= r < k <= n")
    if not 0 < sigma < 1:
        raise InputError("sigma must be in (0, 1)")
    small = _round_half_up(sigma * n)
    if small < r:
        raise InputError(f"small part {small} cannot host {r} picks")
    big = n - small
    graph = Graph.complete_bipartite(small, big) if n <= MAX_VERTICES else None
    target: Graph | None = None
    if k <= MAX_VERTICES:
        target = Graph.star(k - 1) if r == 1 else Graph.complete_bipartite(r, k - r)
    achieved = Fraction(
        math.comb(small, r) * math.comb(big, k - r), math.comb(n, k)
    )
    limit = math.comb(k, r) * sigma**r * (1 - sigma) ** (k - r)
    return ConstructionReport(
        graph=graph,
        target=target,
        achieved=achieved,
        limit_formula=limit,
        sigma=sigma,
        target_density=_maybe_density(target, graph),
    )


def gnp_construction(k: int, n: int, seed: int) -> ConstructionReport:
    """Random host with edge probability 1/C(k,2); the pattern is a single
    edge plus k-2 isolated vertices, so the defining event is the induced
    copy itself.  The limit formula is the expected density per k-subset;
    the sampled graph's own density is the reported achieved value's
    full-density twin (seed recorded)."""
    if not 2 <= k <= n:
        raise InputError("need 2 <= k <= n")
    if n > MAX_VERTICES:
        raise InputError(f"gnp host has {n} vertices, above the {MAX_VERTICES}-vertex limit")
    pairs = math.comb(k, 2)
    p = Fraction(1, pairs)
    rng = random.Random(seed)
    pf = float(p)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < pf:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    graph = Graph(n, tuple(rows))
    target = with_isolated(Graph.complete(2), k - 2)
    if pairs == 1:
        limit = 1.0
    else:
        limit = pairs * float(p) * (1 - float(p)) ** (pairs - 1)
    density = _maybe_density(target, graph)
    achieved = density if density is not None else Fraction(0)
    return ConstructionReport(
        graph=graph,
        target=target,
        achieved=achieved,
        limit_formula=limit,
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
    small = _round_half_up(2 * n / k)
    if small < 2:
        raise InputError(f"small part {small} cannot host 2 picks")
    big = n - small
    if big < k - 2:
        raise InputError(f"large part {big} cannot host {k - 2} picks")
    graph = _join_clique_to_independent(small, big) if n <= MAX_VERTICES else None
    target: Graph | None = None
    if k <= MAX_VERTICES:
        # pattern: complete bipartite 2 x (k-2) plus the edge inside the 2-side
        rows = list(Graph.complete_bipartite(2, k - 2).adj)
        rows[0] |= 1 << 1
        rows[1] |= 1 << 0
        target = Graph(k, tuple(rows))
    achieved = Fraction(math.comb(small, 2) * math.comb(big, k - 2), math.comb(n, k))
    sigma = 2 / k
    limit = math.comb(k, 2) * sigma**2 * (1 - sigma) ** (k - 2)
    return ConstructionReport(
        graph=graph,
        target=target,
        achieved=achieved,
        limit_formula=limit,
        sigma=sigma,
        target_density=_maybe_density(target, graph),
    )


def dtame_blowup(h: Graph, v0, n: int) -> ConstructionReport:
    """Blow up a tamed pattern: one size-floor(n/k) group per taming vertex
    (kept edgeless inside, since the defining event takes one vertex per
    group) and one group for the rest, cliqued exactly when the rest is a
    clique in h; groups are joined following h's adjacency."""
    v0 = sorted(set(v0))
    for v in v0:
        if not 0 <= v < h.n:
            raise InputError(f"vertex {v} out of range")
    if not is_tamed_by(h, v0):
        raise PreconditionError("v0 is not a taming set of h")
    k = h.n
    if n < k:
        raise InputError("need n >= k")
    d = len(v0)
    rest = [v for v in range(k) if v not in v0]
    group_size = n // k
    if group_size < 1:
        raise InputError("n too small for one vertex per group")
    sizes = [group_size] * d + [n - d * group_size]
    # group i spans [starts[i], starts[i] + sizes[i])
    starts = [sum(sizes[:i]) for i in range(d + 1)]

    def group_mask(i: int) -> int:
        return ((1 << sizes[i]) - 1) << starts[i]

    rest_mask = sum(1 << u for u in rest)
    rest_is_clique = all(
        h.has_edge(u, v) for i, u in enumerate(rest) for v in rest[i + 1 :]
    )
    graph: Graph | None = None
    if n <= MAX_VERTICES:
        rows = [0] * n
        if rest and rest_is_clique and sizes[d] >= 2:
            gm = group_mask(d)
            for v in range(starts[d], starts[d] + sizes[d]):
                rows[v] |= gm ^ (1 << v)

        def join(i: int, j: int) -> None:
            mi, mj = group_mask(i), group_mask(j)
            for v in range(starts[i], starts[i] + sizes[i]):
                rows[v] |= mj
            for v in range(starts[j], starts[j] + sizes[j]):
                rows[v] |= mi

        for i in range(d):
            for j in range(i + 1, d):
                if h.has_edge(v0[i], v0[j]):
                    join(i, j)
            # taming guarantees all-or-none attachment to the rest class
            if rest and (h.adj[v0[i]] & rest_mask):
                join(i, d)
        graph = Graph(n, tuple(rows))
    ways = math.comb(sizes[d], k - d)
    for i in range(d):
        ways *= sizes[i]
    achieved = Fraction(ways, math.comb(n, k))
    # multinomial limit at group fractions 1/k each and (k-d)/k for the rest
    limit = (
        math.factorial(k)
        / math.factorial(k - d)
        * (1 / k) ** d
        * ((k - d) / k) ** (k - d)
    )
    return ConstructionReport(
        graph=graph,
        target=h,
        achieved=achieved,
        limit_formula=limit,
        sigma=None,
        target_density=_maybe_density(h, graph),
    )
