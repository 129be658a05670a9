"""Taming sets and the happy / detectable / obscure vertex classes.

A set V0 tames a graph when everything outside V0 is a clique or a stable
set and each V0 vertex attaches to all of it or none of it; equivalently,
every permutation fixing V0 pointwise is an automorphism.  The classifiers
below are exact; the obscurity oracle is the definition-based exhaustive
search (two deleted vertices plus an induced-subgraph match against the
non-isolated core) and exists to cross-check the cheap characterization.
"""

from __future__ import annotations

from collections import namedtuple

from .density import _count_matches, _Pattern
from .errors import InputError, InternalCheckError, PreconditionError, UnsupportedSizeError
from .graphs import Graph, _induced_rows, _twins, induced_subgraph, non_isolated_core

OBSCURE_ORACLE_LIMIT = 10


TameWitness = namedtuple("TameWitness", "v0 valid source")  # source: "closure" or "exact_min"
VertexClassification = namedtuple("VertexClassification", "happy degree_one detectable obscure")


def _vertex_set_mask(h: Graph, vs) -> int:
    mask = 0
    for v in vs:
        if not 0 <= v < h.n:
            raise InputError(f"vertex {v} out of range for n={h.n}")
        mask |= 1 << v
    return mask


def _mask_tames(h: Graph, v0_mask: int) -> bool:
    rest = ((1 << h.n) - 1) ^ v0_mask
    clique = stable = True
    for v, row in enumerate(h.adj):
        inside = row & rest
        if (rest >> v) & 1:
            stable = stable and not inside
            clique = clique and inside == rest ^ (1 << v)
            if not (clique or stable):
                return False
        elif inside and inside != rest:
            return False  # a V0 vertex attached to part of the rest
    return True


def is_tamed_by(h: Graph, v0) -> bool:
    """True iff V(h) minus v0 is a clique or stable set and every v0 vertex
    attaches to all of it or none of it."""
    return _mask_tames(h, _vertex_set_mask(h, v0))


def tame_witness_from(h: Graph, s) -> TameWitness:
    """Close s into a taming set by adding the partially-attached and the
    outside-connected vertices; the result always validates."""
    s_mask = _vertex_set_mask(h, s)
    rest = ((1 << h.n) - 1) ^ s_mask
    v0_mask = s_mask
    r = rest
    while r:
        low = r & -r
        v = low.bit_length() - 1
        r ^= low
        if (h.adj[v] & s_mask) != s_mask:
            v0_mask |= low  # attached to only part of s
        if h.adj[v] & rest:
            v0_mask |= low  # has a neighbor outside s
    v0 = frozenset(v for v in range(h.n) if (v0_mask >> v) & 1)
    if not _mask_tames(h, v0_mask):
        raise InternalCheckError("closure witness failed to tame; implementation bug")
    return TameWitness(v0=v0, valid=True, source="closure")


def minimal_taming_number(h: Graph) -> tuple[int, TameWitness]:
    """Smallest taming-set size with a witness, in O(n^2).

    V0 tames h exactly when W = V \\ V0 is a set of pairwise twins: swapping
    two vertices of W fixes V0, so it must be an automorphism; conversely,
    pairwise twins form a clique or a stable set that each outside vertex
    sees all or none of.  Twins joined by an edge (N[u] = N[v]) and twins
    without one (N(u) = N(v)) each fall into classes, and three pairwise
    twins are all of one kind, so the largest W is a largest class.  Ties go
    to the smallest bitmask W: the witness that a scan of every W in
    increasing bitmask order keeps.
    """
    n, adj = h.n, h.adj
    classes: list[int] = []
    for adjacent in (0, 1):
        kind: dict[int, int] = {}  # lowest vertex of each class -> the class as a bitmask
        for v in range(n):
            u = next((u for u in kind if (adj[u] >> v) & 1 == adjacent and _twins(adj, u, v)), v)
            kind[u] = kind.get(u, 0) | 1 << v
        classes += kind.values()
    w = min(classes, key=lambda c: (-c.bit_count(), c), default=0)
    v0 = frozenset(v for v in range(n) if not (w >> v) & 1)
    return n - w.bit_count(), TameWitness(v0=v0, valid=True, source="exact_min")


def classify_vertices(h: Graph) -> VertexClassification:
    """Happy = non-isolated with all neighbors of degree >= 2; detectable =
    happy or degree one; obscure = the remaining non-isolated vertices.
    Isolated vertices belong to none of the classes."""
    degs = h.degrees()
    below_two = sum(1 << u for u in range(h.n) if degs[u] < 2)
    degree_one = {v for v in range(h.n) if degs[v] == 1}
    happy = {v for v in range(h.n) if degs[v] > 0 and not h.adj[v] & below_two}
    detectable = happy | degree_one
    obscure = {v for v in range(h.n) if degs[v] > 0} - detectable
    return VertexClassification(
        happy=frozenset(happy),
        degree_one=frozenset(degree_one),
        detectable=frozenset(detectable),
        obscure=frozenset(obscure),
    )


def is_obscure_oracle(h: Graph, v: int) -> bool:
    """Definition-based obscurity test by exhaustive search.

    v (non-isolated) is obscure when some pair of distinct non-isolated
    vertices v1, v2 with v2 still non-isolated after deleting v1 leaves an
    induced subgraph of h - v1 - v2 isomorphic to the non-isolated core of
    h - v.  Each pair's copies of the core are counted by the density
    module's prefix-pruned subset walk.
    """
    if not 0 <= v < h.n:
        raise InputError(f"vertex {v} out of range for n={h.n}")
    if h.adj[v] == 0:
        raise PreconditionError("obscurity is defined for non-isolated vertices only")
    if h.n > OBSCURE_ORACLE_LIMIT:
        raise UnsupportedSizeError(
            f"is_obscure_oracle supports n <= {OBSCURE_ORACLE_LIMIT}, got {h.n}"
        )
    core = non_isolated_core(induced_subgraph(h, [u for u in range(h.n) if u != v]))
    if core.n > h.n - 2:
        return False  # h - v1 - v2 is too small to hold the core
    pattern = _Pattern(core)
    non_isolated = [u for u in range(h.n) if h.adj[u]]
    for i, v1 in enumerate(non_isolated):
        for v2 in non_isolated[i + 1 :]:
            if h.adj[v1] | h.adj[v2] == (1 << v1) | (1 << v2):
                continue  # an isolated edge: deleting either end isolates the other
            rest = [u for u in range(h.n) if u != v1 and u != v2]
            if _count_matches(pattern, _induced_rows(h.adj, rest)):
                return True
    return False
