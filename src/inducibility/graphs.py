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
cells, keeping the lexicographically smallest adjacency encoding.  It
prunes by the automorphisms it finds along the way (twin transpositions and
the mappings of `_colored_iso`), which stays exact, and returns them as
generators of the group, which host enumeration prunes its augmentations
by.  The same search counts the group by orbit-stabilizer along its first
path; `automorphism_count` reads that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import Graph6Error, InputError

MAX_VERTICES = 64


@dataclass(frozen=True, slots=True)
class Graph:
    """Immutable simple graph; ``adj[v]`` is the neighbor bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.n
        if not 0 <= n <= MAX_VERTICES:
            raise InputError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        if len(self.adj) != n:
            raise InputError(f"adjacency has {len(self.adj)} rows, expected {n}")
        for v, row in enumerate(self.adj):
            if row < 0 or row >> n:
                raise InputError(f"row {v} has bits at or above index {n}")
            if (row >> v) & 1:
                raise InputError(f"self-loop at vertex {v}")
        for v in range(n):
            for u in range(v):
                if ((self.adj[v] >> u) & 1) != ((self.adj[u] >> v) & 1):
                    raise InputError(f"adjacency not symmetric at pair ({u}, {v})")

    # -- basic accessors -------------------------------------------------

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

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

    def vertices(self) -> range:
        return range(self.n)

    def isolated_mask(self) -> int:
        mask = 0
        for v, row in enumerate(self.adj):
            if row == 0:
                mask |= 1 << v
        return mask

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
    rows = [0] * n
    i, j = 0, 1
    done = 0
    for idx in range(nbytes):
        b = data[body + idx]
        if not 63 <= b <= 126:
            raise Graph6Error(f"byte {b} out of range [63, 126] at offset {body + idx}")
        val = b - 63
        for shift in (5, 4, 3, 2, 1, 0):
            bit = (val >> shift) & 1
            if done < nbits:
                if bit:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                done += 1
                i += 1
                if i == j:
                    i, j = 0, j + 1
            elif bit:
                raise Graph6Error(f"nonzero padding bit at offset {body + idx}")
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    n = g.n
    if n <= 62:
        header = [n + 63]
    else:
        header = [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    out = list(header)
    val = 0
    width = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | ((g.adj[i] >> j) & 1)
            width += 1
            if width == 6:
                out.append(val + 63)
                val, width = 0, 0
    if width:
        out.append((val << (6 - width)) + 63)
    return bytes(out).decode("ascii")


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
    # fast path used by hot counting loops; verts must be sorted and in range
    rows = []
    for v in verts:
        row = adj[v]
        new = 0
        for i, u in enumerate(verts):
            new |= ((row >> u) & 1) << i
        rows.append(new)
    return tuple(rows)


@dataclass(frozen=True, eq=True)
class DegreeProfile:
    """Degree statistics consumed throughout the package."""

    degrees: tuple[int, ...]
    max_degree: int
    edge_count: int
    m: int
    m1: int
    m_ge2: int
    k_hist: dict[int, int] = field(compare=False)

    def __post_init__(self) -> None:
        if sum(self.degrees) != 2 * self.edge_count:
            raise InputError("degree sum is not twice the edge count")


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


def _first_split_cell(n: int, colors: Sequence[int]) -> list[int] | None:
    """The vertices of the smallest color held by more than one vertex."""
    counts = [0] * n
    for c in colors:
        counts[c] += 1
    for c, k in enumerate(counts):
        if k > 1:
            return [v for v in range(n) if colors[v] == c]
    return None


def _encode_order(n: int, adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    enc = []
    for j in range(1, n):
        row = adj[order[j]]
        bits = 0
        for i in range(j):
            bits |= ((row >> order[i]) & 1) << i
        enc.append(bits)
    return tuple(enc)


def _canonical_search(
    n: int, adj: Sequence[int]
) -> tuple[tuple[int, ...], list[int], list[list[int]], int]:
    """The canonical columns, a vertex order that encodes to them,
    generators of the automorphism group and the group's order.

    A node branches on one vertex per orbit of its first split cell.  The
    orbits come from the automorphisms found at the node and below it, all
    of which fix the node's individualized vertices: the transposition with
    a twin of a kept vertex, or the mapping `_colored_iso` finds onto one.
    Down the first branch these map each kept vertex onto its whole orbit,
    so they generate the group (the Schreier-Sims argument), and a node's
    group order is the orbit of its first vertex times the order its first
    child returns (orbit-stabilizer).
    """
    order = list(range(n))
    full = (1 << n) - 1
    if all(row == 0 for row in adj) or all(
        adj[v] == (full ^ (1 << v)) for v in range(n)
    ):
        # every labeling of the edgeless / complete graph encodes identically,
        # and its group is generated by a transposition and an n-cycle
        gens = [[1, 0] + order[2:], order[1:] + order[:1]] if n > 1 else []
        return _encode_order(n, adj, order), order, gens, math.factorial(n)

    nbrs = _neighbors(n, adj)
    best: tuple[tuple[int, ...], list[int]] | None = None

    def rec(colors: list[int]) -> tuple[list[list[int]], int]:
        nonlocal best
        target = _first_split_cell(n, colors)
        if target is None:
            leaf = sorted(range(n), key=colors.__getitem__)
            enc = _encode_order(n, adj, leaf)
            if best is None or enc < best[0]:
                best = (enc, leaf)
            return [], 1
        v = target[0]
        cv = _refine(nbrs, _individualize(colors, v))
        gens, stab = rec(cv)
        covered = _orbit(v, gens)  # the orbits of the kept vertices, closed under gens
        reps = [(v, cv)]
        for u in target[1:]:
            if u in covered:
                continue
            twin = next((r for r, _ in reps if _twins(adj, u, r)), None)
            if twin is not None:
                perm = list(order)
                perm[u], perm[twin] = twin, u
                found = [perm]
            else:
                cu = _refine(nbrs, _individualize(colors, u))
                for _, cr in reps:
                    perm = _colored_iso(n, adj, cr, cu)
                    if perm is not None:
                        found = [perm]
                        break
                else:
                    reps.append((u, cu))
                    found = rec(cu)[0]
            gens += found
            # close again: the new generators on the old points, every generator on the new
            grown = {u} | {perm[x] for perm in found for x in covered} - covered
            covered |= grown
            _close(covered, list(grown), gens)
        # with v the only kept vertex, covered is v's orbit
        orbit = covered if len(reps) == 1 else _orbit(v, gens)
        return gens, len(orbit) * stab

    gens, size = rec(_base_colors(nbrs))
    assert best is not None
    return best[0], best[1], gens, size


def _from_columns(n: int, cols: Sequence[int]) -> tuple[int, ...]:
    """The rows of the graph whose columns in the order 0..n-1 are `cols`."""
    rows = [0, *cols][:n]
    for j, col in enumerate(cols, start=1):
        for i in range(j):
            rows[i] |= ((col >> i) & 1) << j
    return tuple(rows)


def _pack_key(n: int, cols: Sequence[int]) -> bytes:
    """The canonical columns as bytes: n, then the column bits
    most-significant-first, zero-padded to whole bytes."""
    stream = 0
    width = 0
    for j, col in enumerate(cols, start=1):
        for i in range(j):
            stream = (stream << 1) | ((col >> i) & 1)
            width += 1
    pad = (-width) % 8
    stream <<= pad
    width += pad
    return bytes([n]) + stream.to_bytes(width // 8, "big")


@lru_cache(maxsize=1 << 18)
def _canon_cached(n: int, adj: tuple[int, ...]) -> bytes:
    return _pack_key(n, _canonical_search(n, adj)[0])


@dataclass(frozen=True)
class CanonicalCode:
    """Relabeling-invariant code: equal iff the graphs are isomorphic."""

    data: bytes


def canonical_code(g: Graph) -> CanonicalCode:
    return CanonicalCode(_canon_cached(g.n, g.adj))


def canonical_key(g: Graph) -> bytes:
    """Raw canonical bytes; the cheap form used by counting loops."""
    return _canon_cached(g.n, g.adj)


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


def _colored_iso(
    n: int, adj: Sequence[int], c1: Sequence[int], c2: Sequence[int]
) -> list[int] | None:
    """A permutation pi preserving adjacency with c2[pi[x]] = c1[x], or None."""
    hist1: dict[int, int] = {}
    hist2: dict[int, int] = {}
    for x in range(n):
        hist1[c1[x]] = hist1.get(c1[x], 0) + 1
        hist2[c2[x]] = hist2.get(c2[x], 0) + 1
    if hist1 != hist2:
        return None
    by_color: dict[int, list[int]] = {}
    for y in range(n):
        by_color.setdefault(c2[y], []).append(y)
    # most constrained first: small classes early
    domain = sorted(range(n), key=lambda x: (hist1[c1[x]], c1[x], x))
    mapped_dom: list[int] = []
    mapped_rng: list[int] = []
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        x = domain[pos]
        rowx = adj[x]
        for y in by_color[c1[x]]:
            if used[y]:
                continue
            rowy = adj[y]
            ok = True
            for xd, yd in zip(mapped_dom, mapped_rng):
                if ((rowx >> xd) & 1) != ((rowy >> yd) & 1):
                    ok = False
                    break
            if not ok:
                continue
            used[y] = True
            mapped_dom.append(x)
            mapped_rng.append(y)
            if extend(pos + 1):
                return True
            used[y] = False
            mapped_dom.pop()
            mapped_rng.pop()
        return False

    if not extend(0):
        return None
    pi = [0] * n
    for x, y in zip(mapped_dom, mapped_rng):
        pi[x] = y
    return pi


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


def relabel(g: Graph, perm: Sequence[int]) -> Graph:
    """Image of g under the vertex map v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise InputError("perm is not a permutation of the vertex set")
    rows = [0] * g.n
    for v in range(g.n):
        row = g.adj[v]
        new = 0
        while row:
            low = row & -row
            new |= 1 << perm[low.bit_length() - 1]
            row ^= low
        rows[perm[v]] = new
    return Graph(g.n, tuple(rows))

