"""Lower-bound constructions: split bipartite hosts, sparse random hosts,
and the blow-up of a tamed graph.

Each generator returns the exact probability of its defining pick event at
this n, from the hypergeometric kernels of the proba module, and the
closed-form n -> infinity value of that probability; both work for any n.
The concrete host graph (and the pattern, and the pattern's full induced
density in the host) is materialized only when it fits the 64-vertex graph
universe.  The defining event (say, exactly r picks on the small side)
always induces the pattern, but for some parameter coincidences other pick
patterns induce it as well, so the full induced density of the pattern can
strictly exceed the event probability; when the subset budget allows, that
full density is computed through the density module and reported
separately.

Part sizes use round-half-up with the residue absorbed by the large part,
so achieved-versus-limit gaps include rounding effects.
"""

from __future__ import annotations

import math
import random
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from .density import induced_density
from .errors import InputError, PreconditionError, UnsupportedSizeError
from .graphs import MAX_VERTICES, Graph, with_isolated
from .proba import HypergeomParams, hypergeom_point, multi_hypergeom_joint
from .structure import is_tamed_by

DENSITY_BUDGET = 2_000_000


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


def _two_part(
    k: int, r: int, n: int, small: int, sigma: float, clique: bool
) -> ConstructionReport:
    """A `small`-vertex side, a clique when `clique` is set, joined completely
    to an independent side of the other n - small vertices.  The defining
    event picks r vertices on the small side and k - r on the other, so the
    target is the same graph at sizes (r, k - r)."""

    def host(a: int, b: int) -> Graph:
        full, side = (1 << (a + b)) - 1, (1 << a) - 1
        rows = [full ^ (1 << v if clique else side) for v in range(a)] + [side] * b
        return Graph(a + b, tuple(rows))

    graph = host(small, n - small) if n <= MAX_VERTICES else None
    target = host(r, k - r) if k <= MAX_VERTICES else None
    return ConstructionReport(
        graph=graph,
        target=target,
        achieved=hypergeom_point(HypergeomParams(n, small, k, r)),
        limit_formula=_binomial_limit(k, r, sigma),
        sigma=sigma,
        target_density=_maybe_density(target, graph),
    )


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
    return _two_part(k, r, n, small, sigma, clique=False)


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
    return _two_part(k, 2, n, small, 2 / k, clique=True)


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
    if k == 0:  # the empty set tames it, but there is no group to size
        raise InputError("the 0-vertex pattern has nothing to blow up")
    if n < k:
        raise InputError("need n >= k")
    d = len(v0)
    rest = [v for v in range(k) if v not in v0]
    group_size = n // k
    sizes = [group_size] * d + [n - d * group_size]
    graph: Graph | None = None
    if n <= MAX_VERTICES:
        # group i stands for v0[i] and the rest group for rest[0], which
        # taming makes attach to each v0[i] all-or-none; with no rest the
        # leftover group stands for no vertex and stays isolated
        reps = v0 + rest[:1]
        rest_is_clique = bool(rest) and all(h.has_edge(u, v) for u, v in combinations(rest, 2))
        group = [i for i, size in enumerate(sizes) for _ in range(size)]

        def adjacent(i: int, j: int) -> bool:
            if i == j:
                return i == d and rest_is_clique
            return max(i, j) < len(reps) and h.has_edge(reps[i], reps[j])

        graph = Graph.from_edges(
            n, [(x, y) for x, y in combinations(range(n), 2) if adjacent(group[x], group[y])]
        )
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
        achieved=multi_hypergeom_joint(n, k, sizes[:d], 1),
        limit_formula=limit,
        sigma=None,
        target_density=_maybe_density(h, graph),
    )
