"""Simple undirected graphs on at most 64 vertices.

Adjacency is stored as one bitmask per vertex, so a neighborhood is a single
machine word and the counting kernels elsewhere stay branch-light.  Every
graph is immutable after construction; all operations here are pure
functions and safe to share across threads.

The graph6 wire format is implemented bit-exactly: header byte n+63 for
n <= 62 (the extended '~' header for 63 and 64), then the upper triangle
read column-major (0,1),(0,2),(1,2),(0,3),... packed into 6-bit groups with
zero padding, each group stored as its value plus 63.

Canonical codes come from one search, `_canonical_search`: iterated
neighborhood-multiset refinement, then backtracking over the refined
cells, keeping the lexicographically smallest adjacency encoding.  A
coloring whose cells of more than one vertex are each a set of pairwise
twins ends a branch: every permutation inside those cells is an
automorphism, so every order sorted by color encodes alike.  The search
prunes by the automorphisms it finds along the way, which stays exact:
the transpositions inside such cells, twin transpositions, and the maps
between two leaves that encode alike (leaf certificates, as in McKay and
Piperno's "Practical graph isomorphism, II").  It returns them as
generators of the group, which host enumeration prunes its augmentations
by.  The same search counts the group by orbit-stabilizer along its first
path; `automorphism_count` reads that order.  The canonical form's rows are
`_induced_rows(adj, order)` for the order the search returns, and its key
packs the columns (`_pack_key`); callers build either only where needed.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import Graph6Error, InputError

MAX_VERTICES = 64


class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of vertex v.

    Two graphs are equal when their `n` and `adj` are."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]) -> None:
        if not 0 <= n <= MAX_VERTICES:
            raise InputError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        if len(adj) != n:
            raise InputError(f"adjacency has {len(adj)} rows, expected {n}")
        for v, row in enumerate(adj):
            if row < 0 or row >> n:
                raise InputError(f"row {v} has bits at or above index {n}")
            if (row >> v) & 1:
                raise InputError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in range(v):
                if ((adj[v] >> u) & 1) != ((adj[u] >> v) & 1):
                    raise InputError(f"adjacency not symmetric at pair ({u}, {v})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.adj)

    # -- basic accessors -------------------------------------------------

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            row = self.adj[v] >> (v + 1)
            u = v + 1
            while row:
                if row & 1:
                    yield (v, u)
                row >>= 1
                u += 1

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop ({u}, {v})")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        full = (1 << n) - 1
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def complete_bipartite(a: int, b: int) -> "Graph":
        left = ((1 << b) - 1) << a
        right = (1 << a) - 1
        rows = [left] * a + [right] * b
        return Graph(a + b, tuple(rows))

    @staticmethod
    def star(leaves: int) -> "Graph":
        return Graph.complete_bipartite(1, leaves)

    @staticmethod
    def gnp(rng: random.Random, n: int, p: float) -> "Graph":
        """G(n, p): each pair u < v, in increasing order, is an edge when
        rng.random() < p."""
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph.from_edges(n, [e for e in pairs if rng.random() < p])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    if g1.n + g2.n > MAX_VERTICES:
        raise InputError("union exceeds the 64-vertex limit")
    rows = list(g1.adj) + [row << g1.n for row in g2.adj]
    return Graph(g1.n + g2.n, tuple(rows))


def with_isolated(g: Graph, extra: int) -> Graph:
    """g plus `extra` fresh isolated vertices."""
    return disjoint_union(g, Graph.empty(extra))


# -- graph6 ---------------------------------------------------------------


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; errors identify the offending byte offset."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error(f"non-ASCII byte at offset {exc.start}") from None
    if not data:
        raise Graph6Error("empty graph6 input")
    c0 = data[0]
    if c0 == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte vertex-count header at offset 0 (n > 64 unsupported)")
        if len(data) < 4:
            raise Graph6Error("truncated extended header starting at offset 0")
        n = 0
        for off in (1, 2, 3):
            b = data[off]
            if not 63 <= b <= 126:
                raise Graph6Error(f"byte {b} out of range [63, 126] at offset {off}")
            n = (n << 6) | (b - 63)
        body = 4
    else:
        if not 63 <= c0 <= 126:
            raise Graph6Error(f"byte {c0} out of range [63, 126] at offset 0")
        n = c0 - 63
        body = 1
    if n > MAX_VERTICES:
        raise Graph6Error(
            f"vertex count {n} exceeds the {MAX_VERTICES}-vertex limit"
            f" (header ends at offset {body - 1})"
        )
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - body != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes after offset {body - 1},"
            f" got {len(data) - body}"
        )
    # the inverse of `_upper_triangle`: one bit stream, read column by column
    stream = 0
    for off in range(body, len(data)):
        b = data[off]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} out of range [63, 126] at offset {off}")
        stream = (stream << 6) | (b - 63)
    bits = format(stream, f"0{6 * nbytes}b")
    if "1" in bits[nbits:]:
        raise Graph6Error(f"nonzero padding bit at offset {len(data) - 1}")
    rows = [0] * n
    start = 0
    for j in range(1, n):
        for i, bit in enumerate(bits[start:start + j]):
            if bit == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        start += j
    return Graph(n, tuple(rows))


def _upper_triangle(cols: Sequence[int], group: int) -> tuple[int, int]:
    """The bits (0,1), (0,2), (1,2), (0,3), ... of columns 1, 2, ... (bit i
    of cols[j - 1] is the pair (i, j)), first bit most significant,
    zero-padded to whole groups of `group` bits; and the padded bit count."""
    stream = 0
    width = 0
    for j, col in enumerate(cols, start=1):
        for i in range(j):
            stream = (stream << 1) | ((col >> i) & 1)
        width += j
    pad = -width % group
    return stream << pad, width + pad


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    stream, width = _upper_triangle(g.adj[1:], 6)
    body = [((stream >> shift) & 63) + 63 for shift in range(width - 6, -1, -6)]
    return bytes(header + body).decode("ascii")


# -- elementary operations ------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full ^ row ^ (1 << v)) for v, row in enumerate(g.adj)))


def induced_subgraph(g: Graph, w: Iterable[int]) -> Graph:
    """Subgraph on vertex set w under the order-preserving relabeling."""
    verts = sorted(set(w))
    for v in verts:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for n={g.n}")
    return Graph(len(verts), _induced_rows(g.adj, verts))


def _induced_rows(adj: Sequence[int], verts: Sequence[int]) -> tuple[int, ...]:
    """The rows of the subgraph on `verts`, with verts[i] as vertex i; the
    unchecked fast path of the counting loops.  For the order that
    `_canonical_search` returns, these are the canonical rows."""
    rows = []
    for v in verts:
        row = adj[v]
        new = 0
        for i, u in enumerate(verts):
            new |= ((row >> u) & 1) << i
        rows.append(new)
    return tuple(rows)


class DegreeProfile(namedtuple("DegreeProfile",
                                "degrees max_degree edge_count m m1 m_ge2 k_hist")):
    """Degree statistics consumed throughout the package; `k_hist` maps each
    degree to its number of vertices."""

    __slots__ = ()

    def __new__(cls, degrees, max_degree, edge_count, m, m1, m_ge2, k_hist):
        if sum(degrees) != 2 * edge_count:
            raise InputError("degree sum is not twice the edge count")
        return super().__new__(cls, degrees, max_degree, edge_count, m, m1, m_ge2, k_hist)


def degree_profile(g: Graph) -> DegreeProfile:
    degs = g.degrees()
    hist: dict[int, int] = {}
    for d in degs:
        hist[d] = hist.get(d, 0) + 1
    m1 = hist.get(1, 0)
    m = sum(1 for d in degs if d > 0)
    return DegreeProfile(
        degrees=degs,
        max_degree=max(degs, default=0),
        edge_count=sum(degs) // 2,
        m=m,
        m1=m1,
        m_ge2=m - m1,
        k_hist=hist,
    )


def non_isolated_core(g: Graph) -> Graph:
    """Induced subgraph on the vertices of positive degree (possibly null)."""
    return induced_subgraph(g, [v for v in range(g.n) if g.adj[v]])


# -- canonical forms and automorphisms ------------------------------------


def _neighbors(n: int, adj: Sequence[int]) -> list[list[int]]:
    nbrs = []
    for v in range(n):
        row = adj[v]
        nb = []
        while row:
            low = row & -row
            nb.append(low.bit_length() - 1)
            row ^= low
        nbrs.append(nb)
    return nbrs


def _refine(nbrs: Sequence[Sequence[int]], colors: list[int]) -> list[int]:
    """Stable partition under (color, multiset of neighbor colors) recoloring.

    `colors` are dense ranks, and so is every round's output; a round that
    splits no cell therefore keeps every rank, and the loop stops there.
    """
    cells = len(set(colors))
    while True:
        get = colors.__getitem__
        sigs = [(colors[v], tuple(sorted(map(get, nb)))) for v, nb in enumerate(nbrs)]
        order = sorted(set(sigs))
        if len(order) == cells:
            return colors
        rank = {s: i for i, s in enumerate(order)}
        colors = [rank[s] for s in sigs]
        cells = len(order)


def _base_colors(nbrs: Sequence[Sequence[int]]) -> list[int]:
    # from one cell, the first round of refinement ranks the degrees
    degrees = [len(nb) for nb in nbrs]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    return _refine(nbrs, [rank[d] for d in degrees])


def _individualize(colors: Sequence[int], v: int) -> list[int]:
    """Dense ranks with v split off in front of the rest of its cell, which
    must hold another vertex."""
    cv = colors[v]
    return [c + 1 if c > cv or (c == cv and u != v) else c for u, c in enumerate(colors)]


def _split_cells(n: int, colors: Sequence[int]) -> list[list[int]]:
    """The cells of more than one vertex, by increasing color."""
    cells: list[list[int]] = [[] for _ in range(n)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return [cell for cell in cells if len(cell) > 1]


def _twin_cells(adj: Sequence[int], cells: Sequence[Sequence[int]]) -> bool:
    """Whether each cell is a set of pairwise twins (twins of a common vertex
    are twins), so that every permutation inside the cells is an
    automorphism: the leaf of both searches."""
    return all(_twins(adj, cell[0], u) for cell in cells for u in cell[1:])


def _encode_order(n: int, adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    enc = []
    for j in range(1, n):
        row = adj[order[j]]
        bits = 0
        for i in range(j):
            bits |= ((row >> order[i]) & 1) << i
        enc.append(bits)
    return tuple(enc)


class _Match(Exception):
    """A leaf that encodes like a kept vertex's first leaf; args are the
    `firsts` dict holding that leaf and the automorphism from it to this one."""


def _canonical_search(
    n: int, adj: Sequence[int]
) -> tuple[tuple[int, ...], list[int], list[list[int]], int]:
    """The canonical columns, a vertex order that encodes to them,
    generators of the automorphism group and the group's order.

    A node whose split cells are all twin cells (`_twin_cells`) is a leaf:
    its group is the product of the cells' symmetric groups, generated by
    their adjacent transpositions.  Any other node branches on one vertex
    per orbit of its first split cell.  The orbits come from the
    automorphisms found at the node and below it, all of which fix the
    node's individualized vertices: a leaf's transpositions, the
    transposition with a twin of a kept vertex, or a leaf certificate.  A
    node keeps the first leaf below each kept vertex (`firsts`), and a leaf
    below a later vertex u that encodes like one of them ends u's search:
    the map between the two leaves, position by position, is an
    automorphism that sends that kept vertex to u and fixes every vertex
    individualized at or above the node, as such a vertex keeps its position
    in every leaf below it.  A search that ends without one keeps u.  Down
    the first branch these map each kept vertex onto its whole orbit, so
    they generate the group (the Schreier-Sims argument), and a node's group
    order is the orbit of its first vertex times the order its first child
    returns (orbit-stabilizer).
    """
    nbrs = _neighbors(n, adj)
    best: tuple[tuple[int, ...], list[int]] | None = None
    searching: list[dict] = []  # `firsts` of each node searching a later vertex, outermost first

    def rec(colors: list[int]):
        """The generators and group order below `colors`, and its first leaf."""
        nonlocal best
        cells = _split_cells(n, colors)
        if _twin_cells(adj, cells):
            # every order that sorts by color encodes alike: record one
            leaf = sorted(range(n), key=colors.__getitem__)
            enc = _encode_order(n, adj, leaf)
            for i, firsts in enumerate(searching):
                if enc in firsts:
                    del searching[i + 1:]  # the searches that the match ends
                    raise _Match(firsts, [y for _, y in sorted(zip(firsts[enc], leaf))])
            if best is None or enc < best[0]:
                best = (enc, leaf)
            gens = [_transposition(n, x, y) for cell in cells for x, y in zip(cell, cell[1:])]
            return gens, math.prod(math.factorial(len(cell)) for cell in cells), (enc, leaf)
        target = cells[0]
        v = target[0]
        gens, stab, first = rec(_refine(nbrs, _individualize(colors, v)))
        covered = _orbit(v, gens)  # the orbits of the kept vertices, closed under gens
        kept, firsts = [v], dict([first])
        searching.append(firsts)
        for u in target[1:]:
            if u in covered:
                continue
            twin = next((r for r in kept if _twins(adj, u, r)), None)
            if twin is not None:
                found = [_transposition(n, u, twin)]
            else:
                try:
                    found, _, (enc, leaf) = rec(_refine(nbrs, _individualize(colors, u)))
                except _Match as match:
                    owner, perm = match.args
                    if owner is not firsts:
                        raise
                    found = [perm]
                else:
                    kept.append(u)
                    firsts[enc] = leaf
            gens += found
            # close again: the new generators on the old points, every generator on the new
            grown = {u} | {perm[x] for perm in found for x in covered} - covered
            covered |= grown
            _close(covered, list(grown), gens)
        searching.pop()
        # with v the only kept vertex, covered is v's orbit
        orbit = covered if len(kept) == 1 else _orbit(v, gens)
        return gens, len(orbit) * stab, first

    gens, size, _ = rec(_base_colors(nbrs))
    assert best is not None
    return best[0], best[1], gens, size


def _pack_key(n: int, cols: Sequence[int]) -> bytes:
    """The canonical columns as bytes: n, then graph6's bit sequence in
    whole bytes."""
    stream, width = _upper_triangle(cols, 8)
    return bytes([n]) + stream.to_bytes(width // 8, "big")


@lru_cache(maxsize=1 << 18)
def _canon_cached(n: int, adj: tuple[int, ...]) -> bytes:
    return _pack_key(n, _canonical_search(n, adj)[0])


def canonical_key(g: Graph) -> bytes:
    """Relabeling-invariant code: equal iff the graphs are isomorphic."""
    return _canon_cached(g.n, g.adj)


canonical_code = canonical_key  # the name bench/tracing.py's probes call


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n:
        return False
    if sorted(g1.degrees()) != sorted(g2.degrees()):
        return False
    return _canon_cached(g1.n, g1.adj) == _canon_cached(g2.n, g2.adj)


def _twins(adj: Sequence[int], u: int, v: int) -> bool:
    """Same neighbors apart from each other: swapping u and v is an
    automorphism that fixes every other vertex."""
    return not (adj[u] ^ adj[v]) & ~((1 << u) | (1 << v))


def _transposition(n: int, x: int, y: int) -> list[int]:
    perm = list(range(n))
    perm[x], perm[y] = y, x
    return perm


def _close(orbit: set[int], stack: list[int], gens: Sequence[Sequence[int]]) -> None:
    """Add to `orbit` the images under `gens` of the points on `stack`, and
    of those images, until it is closed."""
    while stack:
        x = stack.pop()
        for perm in gens:
            y = perm[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)


def _orbit(v: int, gens: Sequence[Sequence[int]]) -> set[int]:
    orbit = {v}
    _close(orbit, [v], gens)
    return orbit


def automorphism_count(g: Graph) -> int:
    """Exact order of the automorphism group, from the canonical search."""
    return _canonical_search(g.n, g.adj)[3]
