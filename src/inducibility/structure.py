"""Taming sets and the happy / detectable / obscure vertex classes.

A set V0 tames a graph when every permutation fixing V0 pointwise is an
automorphism; equivalently, the vertices outside V0 are pairwise twins
(same neighbors apart from each other), since swapping two vertices is an
automorphism exactly when they are twins and such swaps generate every
permutation.  That one twin test decides `is_tamed_by`, checks the closure
witness and gives the minimum.  The classifiers below are exact; the
obscurity oracle is the definition-based exhaustive search (two deleted
vertices plus an induced-subgraph match against the non-isolated core) and
exists to cross-check the cheap characterization.
"""

from __future__ import annotations

from collections import namedtuple

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


def _tames(h: Graph, v0_mask: int) -> bool:
    """The vertices outside v0_mask are pairwise twins; twins of a common
    vertex are twins, so each is checked against the first."""
    rest = [v for v in range(h.n) if not (v0_mask >> v) & 1]
    return all(_twins(h.adj, rest[0], v) for v in rest[1:])


def is_tamed_by(h: Graph, v0) -> bool:
    """True iff the vertices of h outside v0 are pairwise twins, that is,
    every permutation fixing v0 pointwise is an automorphism."""
    return _tames(h, _vertex_set_mask(h, v0))


def tame_witness_from(h: Graph, s) -> TameWitness:
    """Close s into a taming set: V0 is s plus every vertex whose
    neighborhood is not exactly s.  The vertices left outside all have
    neighborhood s, so they are pairwise (non-adjacent) twins."""
    s_mask = _vertex_set_mask(h, s)
    v0_mask = s_mask | sum(1 << v for v, row in enumerate(h.adj) if row != s_mask)
    if not _tames(h, v0_mask):
        raise InternalCheckError("closure witness failed to tame; implementation bug")
    v0 = frozenset(v for v in range(h.n) if (v0_mask >> v) & 1)
    return TameWitness(v0=v0, valid=True, source="closure")


def minimal_taming_number(h: Graph) -> tuple[int, TameWitness]:
    """Smallest taming-set size with a witness, in O(n^2).

    V0 tames h exactly when W = V \\ V0 is a set of pairwise twins.  The
    twin relation is an equivalence: adjacent twins (N[u] = N[w]) and
    non-adjacent ones (N(u) = N(w)) are each transitive, and they never
    chain, since if u, w are adjacent twins and v, w non-adjacent ones, then
    u is in N(w) = N(v), so v is in N[u] = N[w], a contradiction.  So the
    largest W is a largest twin class.  Ties go to the smallest bitmask W:
    the witness that a scan of every W in increasing bitmask order keeps.
    """
    n, adj = h.n, h.adj
    classes: dict[int, int] = {}  # lowest vertex of each twin class -> the class as a bitmask
    for v in range(n):
        u = next((u for u in classes if _twins(adj, u, v)), v)
        classes[u] = classes.get(u, 0) | 1 << v
    w = min(classes.values(), key=lambda c: (-c.bit_count(), c), default=0)
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
    from .density import _count_matches, _Pattern  # only this oracle counts subsets

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
