"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force and structured differently
from the package code: permutation scans instead of canonical codes, edge
sets instead of bitmasks, and a separate graph6 decoder that indexes the
bit stream arithmetically.  `complete_bipartite_ind` is a published closed
form that enumerates nothing.  Oracles must stay independent of the paths
they check.  The one exception is `brute_classes`, which checks the
canonical augmentation of host enumeration: it labels every child with
`canonical_key`, whose keys the golden digests in the tests pin
independently.
`dp_brightness` counts bright orderings by a DP over prefix sets, apart from
the closed form it checks; it reaches cores of 14 vertices, where
`brute_brightness` stops near 8.  It takes the detectable set from the
package's `classify_vertices`, as the brightness tests do for
`brute_brightness`; that classifier is checked against the definition-based
obscurity oracle.
`bisect_sparse_alpha` and `bisect_epsilon` find the paper's two thresholds
by bisection on the inequalities themselves, apart from the closed forms
they check.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, sqrt
from math import e as E

from inducibility.graphs import Graph, _induced_rows, canonical_key
from inducibility.structure import classify_vertices


def ref_decode_graph6(line: str) -> tuple[int, set[frozenset[int]]]:
    """Reference graph6 decoder returning (n, edge set)."""
    data = line.strip().encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    bits = []
    for byte in body:
        val = byte - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    edges = set()
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.add(frozenset((i, j)))
            idx += 1
    return n, edges


def relabel(g: Graph, perm: list[int]) -> Graph:
    """Image of g under the vertex map v -> perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
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


def edge_set(g: Graph) -> set[frozenset[int]]:
    return {frozenset(e) for e in g.edges()}


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Scan the vertex permutations for one carrying the edges of g1 onto
    those of g2.  A partial permutation is abandoned as soon as it maps a
    vertex to one of another degree or a pair to a pair of the other kind,
    so that 20-vertex graphs stay affordable."""
    if g1.n != g2.n:
        return False
    e1, e2 = edge_set(g1), edge_set(g2)
    n = g1.n
    a1 = [[frozenset((u, v)) in e1 for v in range(n)] for u in range(n)]
    a2 = [[frozenset((u, v)) in e2 for v in range(n)] for u in range(n)]

    def extend(p: list[int]) -> bool:
        i = len(p)
        if i == n:
            return True
        return any(
            extend(p + [x])
            for x in range(n)
            if x not in p
            and sum(a1[i]) == sum(a2[x])
            and all(a1[u][i] == a2[p[u]][x] for u in range(i))
        )

    return extend([])


def brute_automorphisms(g: Graph) -> int:
    e = edge_set(g)
    return sum(
        1
        for p in permutations(range(g.n))
        if {frozenset((p[u], p[v])) for u, v in g.edges()} == e
    )


@lru_cache(maxsize=None)
def brute_form(k: int, edges: frozenset[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The smallest sorted edge list of the k-vertex graph with `edges` over
    every relabelling: equal exactly for isomorphic graphs."""
    return min(
        tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
        for p in permutations(range(k))
    )


def brute_forms(g: Graph, k: int) -> dict[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The `brute_form` of the subgraph each k-subset of g induces."""
    return {
        verts: brute_form(k, frozenset(
            (i, j) for (i, u), (j, v) in combinations(enumerate(verts), 2) if g.has_edge(u, v)
        ))
        for verts in combinations(range(g.n), k)
    }


def brute_census(g: Graph, k: int) -> Counter:
    """How many k-subsets of g induce each class, keyed by `brute_form`."""
    return Counter(brute_forms(g, k).values())


def complete_bipartite_ind(s: int, t: int, n: int) -> Fraction:
    """ind(K_{s,t}, n) in closed form: some complete bipartite host K_{a,n-a}
    attains the maximum (Brown and Sidorenko, "The inducibility of complete
    bipartite graphs", J. Graph Theory 1994).  Its copies take s vertices
    from one side and t from the other; for s = t both ways are one."""
    best = max(
        comb(a, s) * comb(n - a, t) + (s != t) * comb(a, t) * comb(n - a, s)
        for a in range(n + 1)
    )
    return Fraction(best, comb(n, s + t))


# (s, t) of each complete bipartite pattern K_{s,t} on 3 to 5 vertices, s <= t
BIPARTITE = ((1, 2), (1, 3), (2, 2), (1, 4), (2, 3))


def brute_event_share(k: int, blocks: list[tuple[int, int]]) -> Fraction:
    """Share of the k-subsets of a host, whose vertices run through
    consecutive blocks of the given sizes, that take exactly the given
    number of vertices from each block: a construction's defining event,
    tested subset by subset."""
    block = [i for i, (size, _) in enumerate(blocks) for _ in range(size)]
    hits = total = 0
    for verts in combinations(range(len(block)), k):
        taken = Counter(block[v] for v in verts)
        hits += all(taken[i] == want for i, (_, want) in enumerate(blocks))
        total += 1
    return Fraction(hits, total)


def brute_count_induced(h: Graph, g: Graph) -> int:
    count = 0
    for verts in combinations(range(g.n), h.n):
        pos = {v: i for i, v in enumerate(verts)}
        sub_edges = {
            frozenset((pos[u], pos[v]))
            for u, v in combinations(verts, 2)
            if g.has_edge(u, v)
        }
        sub = Graph.from_edges(h.n, [tuple(e) for e in sub_edges])
        if brute_isomorphic(sub, h):
            count += 1
    return count


def brute_injective_maps(h: Graph, g: Graph) -> int:
    """Injective maps preserving both adjacency and non-adjacency."""
    count = 0
    for image in permutations(range(g.n), h.n):
        ok = True
        for u in range(h.n):
            for v in range(u + 1, h.n):
                if h.has_edge(u, v) != g.has_edge(image[u], image[v]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def brute_ind_over_labeled(h: Graph, n: int) -> Fraction:
    """Max induced density over all labeled n-vertex hosts (no canonical
    machinery anywhere)."""
    pairs = list(combinations(range(n), 2))
    best = 0
    for bits in range(1 << len(pairs)):
        g = Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        )
        best = max(best, brute_count_induced(h, g))
    return Fraction(best, comb(n, h.n))


def brute_detectable_last_two(g: Graph, order: list[int], detectable: set[int]) -> bool:
    """Direct reading of the bright-labeling definition."""
    positive = []
    for i, v in enumerate(order):
        earlier = order[:i]
        if any(g.has_edge(v, u) for u in earlier):
            positive.append(v)
    if len(positive) < 2:
        return False
    return positive[-1] in detectable and positive[-2] in detectable


def brute_brightness(g: Graph, detectable: set[int]) -> Fraction:
    """Brightness over orderings of the full vertex set."""
    count = 0
    for order in permutations(range(g.n)):
        if brute_detectable_last_two(g, list(order), detectable):
            count += 1
    return Fraction(count, factorial(g.n))


def dp_brightness(h: Graph) -> Fraction:
    """Brightness by a DP over the 2^m prefix sets of the core (as in the
    Held-Karp subset DP) instead of walking all m! orderings.

    An ordering of a prefix set ends in one of four states: no vertex with
    an earlier neighbor yet (0), the last such vertex not detectable (1),
    the last one detectable but not the one before it (2), the last two
    both detectable (3).  The bright orderings are those of the whole core
    that end in state 3.
    """
    core = [v for v in range(h.n) if h.adj[v]]
    m = len(core)
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
    return Fraction(counts[full][3], factorial(m))


def brute_is_tamed_by_permutations(h: Graph, v0: set[int]) -> bool:
    """The permutation form: every permutation fixing v0 pointwise must be
    an automorphism."""
    free = [v for v in range(h.n) if v not in v0]
    e = edge_set(h)
    for perm in permutations(free):
        mapping = {v: v for v in v0}
        mapping.update(dict(zip(free, perm)))
        if {frozenset((mapping[u], mapping[v])) for u, v in h.edges()} != e:
            return False
    return True


def tames_by_definition(h: Graph, v0, e: set[frozenset[int]] | None = None) -> bool:
    """The two-condition form over the edge set e of h: W = V \\ v0 is a
    clique or a stable set, and every vertex of v0 is joined to all of W or
    none of it."""
    e = edge_set(h) if e is None else e
    w = [v for v in range(h.n) if v not in v0]
    inside = {frozenset(p) in e for p in combinations(w, 2)}  # {True}: a clique
    return len(inside) <= 1 and all(len({frozenset((u, x)) in e for x in w}) <= 1 for u in v0)


def brute_minimal_taming(h: Graph) -> tuple[int, frozenset[int]]:
    """Smallest taming-set size and a witness, by exhaustive search over the
    complements W = V \\ V0, each checked by `tames_by_definition`.  Every
    subset of a taming complement is one too (a vertex moved from W to V0
    sees all of the rest of W or none of it), so the search grows each
    taming W by one vertex above its largest until none grows; the witness
    is the smallest bitmask W of the largest size."""
    n = h.n
    e = edge_set(h)
    level: list[tuple[int, ...]] = [()]
    while grown := [
        w + (v,)
        for w in level
        for v in range(w[-1] + 1 if w else 0, n)
        if tames_by_definition(h, set(range(n)) - {*w, v}, e)
    ]:
        level = grown
    best_w = min(sum(1 << v for v in w) for w in level)
    return n - len(level[0]), frozenset(v for v in range(n) if not (best_w >> v) & 1)


def brute_classes(n: int) -> tuple[Graph, ...]:
    """One graph per isomorphism class on n vertices, built without orbit
    pruning: every child of every class on one vertex fewer (a new last
    vertex joined to each subset) is labelled by `canonical_key`, the first
    child seen of each key is kept, and the kept ones are sorted by key."""
    classes = (Graph.empty(0),)
    for m in range(1, n + 1):
        seen: dict[bytes, Graph] = {}
        for g in classes:
            for mask in range(1 << (m - 1)):
                rows = [row | (((mask >> v) & 1) << (m - 1)) for v, row in enumerate(g.adj)]
                child = Graph(m, tuple(rows + [mask]))
                seen.setdefault(canonical_key(child), child)
        classes = tuple(seen[k] for k in sorted(seen))
    return classes


def all_labeled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        )


def _bisect_last(ok) -> float:
    """The last point found in (0, 1] where ok holds: halve from 1 until ok
    holds, then bisect to a width of 1e-15 relative to the upper end, or
    until the midpoint is no float strictly between the ends."""
    hi = 1.0
    if ok(hi):
        return hi
    lo = hi / 2
    while not ok(lo):
        hi, lo = lo, lo / 2
    while hi - lo > 1e-15 * hi and lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


def bisect_sparse_alpha() -> float:
    """Largest alpha with (2 + 3e^2 alpha) / (2 + (e-2)/12) / e + 2 alpha < 1/e."""
    return _bisect_last(lambda a: (2 + 3 * E * E * a) / (2 + (E - 2) / 12) / E + 2 * a < 1 / E)


def bisect_epsilon(C: float) -> float:
    """Largest eps in (0, 1] with 2 (2/e)^(sqrt(1/(8 C eps)) - 1) <= 2/e^2;
    8 eps is formed before the product with C, which cannot then overflow."""
    return _bisect_last(lambda eps: 2 * (2 / E) ** (sqrt(1 / ((8 * eps) * C)) - 1) <= 2 / E**2)
