"""Independent checkers for the benchmark's outputs.

Nothing here imports the inducibility package.  Graphs are lists of
neighbour bitmasks read by a separate graph6 decoder; copies of a pattern
are induced embeddings (injective maps that preserve both adjacency and
non-adjacency) divided by the automorphism count from a permutation scan;
brightness is a dynamic programme over prefix sets; detectability and
taming come straight from their definitions.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

Adj = list[int]


# -- graph6 ------------------------------------------------------------------


def g6_encode(adj: Adj) -> str:
    """graph6 of a graph on at most 64 vertices (upper triangle, column-major)."""
    n = len(adj)
    if n > 64:
        raise ValueError("encoder handles n <= 64")
    bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [n + 63] if n <= 62 else [126, 63, 63 + (n >> 6), 63 + (n & 63)]
    for start in range(0, len(bits), 6):
        val = 0
        for b in bits[start:start + 6]:
            val = 2 * val + b
        out.append(val + 63)
    return bytes(out).decode("ascii")


def g6_decode(text: str) -> Adj:
    data = text.strip().encode("ascii")
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n, body = data[0] - 63, data[1:]
    if not 0 <= n <= 64:
        raise ValueError(f"unsupported graph6 header in {text!r}")
    bits = []
    for byte in body:
        bits.extend(((byte - 63) >> s) & 1 for s in (5, 4, 3, 2, 1, 0))
    need = n * (n - 1) // 2
    if len(bits) < need or any(bits[need:]) or len(bits) - need >= 6:
        raise ValueError(f"malformed graph6 body in {text!r}")
    adj = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            pos += 1
    return adj


# -- graph families ----------------------------------------------------------


def from_edges(n: int, edges) -> Adj:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def path(m: int) -> Adj:
    return from_edges(m, [(i, i + 1) for i in range(m - 1)])


def cycle(m: int) -> Adj:
    return from_edges(m, [(i, (i + 1) % m) for i in range(m)])


def with_isolated(adj: Adj, extra: int) -> Adj:
    return list(adj) + [0] * extra


def complement(adj: Adj) -> Adj:
    n = len(adj)
    full = (1 << n) - 1
    return [full ^ row ^ (1 << v) for v, row in enumerate(adj)]


def complete_multipartite(parts) -> Adj:
    n = sum(parts)
    adj = [0] * n
    start = 0
    full = (1 << n) - 1
    for size in parts:
        block = ((1 << size) - 1) << start
        for v in range(start, start + size):
            adj[v] = full ^ block
        start += size
    return adj


def partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def gnp(rng: random.Random, n: int, p: float) -> Adj:
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def caterpillar(rng: random.Random, m: int) -> Adj:
    """Random caterpillar on m vertices: a spine path with pendant legs.
    Every spine vertex that carries a leg is obscure."""
    spine = rng.randint(max(2, (m + 1) // 2), m - 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    for leaf in range(spine, m):
        edges.append((rng.randrange(spine), leaf))
    return from_edges(m, edges)


# -- counting ------------------------------------------------------------------


def _search_order(h: Adj) -> list[int]:
    """Pattern vertices in breadth-first order from a top-degree vertex, so
    that each new vertex is constrained by as many placed ones as possible."""
    k = len(h)
    order: list[int] = []
    placed = 0
    while len(order) < k:
        root = max((v for v in range(k) if not (placed >> v) & 1),
                   key=lambda v: h[v].bit_count())
        queue = [root]
        placed |= 1 << root
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in sorted(range(k), key=lambda u: -h[u].bit_count()):
                if (h[v] >> u) & 1 and not (placed >> u) & 1:
                    placed |= 1 << u
                    queue.append(u)
    return order


def embeddings(h: Adj, g: Adj) -> int:
    """Number of injective maps V(h) -> V(g) that preserve adjacency and
    non-adjacency."""
    k, n = len(h), len(g)
    if k > n:
        return 0
    order = _search_order(h)
    # for position i: which earlier positions are h-neighbours of order[i]
    links = [[(h[order[i]] >> order[j]) & 1 for j in range(i)] for i in range(k)]
    everyone = (1 << n) - 1
    images = [0] * k

    def extend(i: int, used: int) -> int:
        cand = everyone & ~used
        for j, edge in enumerate(links[i]):
            row = g[images[j]]
            cand &= row if edge else ~row
        if i == k - 1:
            return cand.bit_count()
        total = 0
        while cand:
            low = cand & -cand
            cand ^= low
            images[i] = low.bit_length() - 1
            total += extend(i + 1, used | low)
        return total

    return extend(0, 0)


def automorphisms(h: Adj) -> int:
    """|Aut(h)| by scanning every permutation of the vertex set."""
    k = len(h)
    edges = {(u, v) for v in range(k) for u in range(v) if (h[v] >> u) & 1}
    count = 0
    for p in permutations(range(k)):
        if all(((h[p[v]] >> p[u]) & 1) for u, v in edges):
            count += 1
    return count


def copies(h: Adj, g: Adj) -> int:
    """Induced copies of h in g: embeddings divided by automorphisms."""
    emb = embeddings(h, g)
    aut = automorphisms(h)
    if emb % aut:
        raise AssertionError("embedding count not divisible by |Aut(h)|")
    return emb // aut


def rational(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


# -- structure -----------------------------------------------------------------


def detectable(h: Adj) -> set[int]:
    """Non-isolated vertices of degree one, or all of whose neighbours have
    degree at least two."""
    deg = [row.bit_count() for row in h]
    out = set()
    for v, row in enumerate(h):
        if deg[v] == 0:
            continue
        nbrs = [u for u in range(len(h)) if (row >> u) & 1]
        if deg[v] == 1 or all(deg[u] >= 2 for u in nbrs):
            out.add(v)
    return out


def obscure(h: Adj) -> set[int]:
    return {v for v in range(len(h)) if h[v]} - detectable(h)


def tames(h: Adj, v0) -> bool:
    """V0 tames h when the rest is a clique or a stable set and every V0
    vertex is adjacent to all of the rest or to none of it."""
    rest = [v for v in range(len(h)) if v not in set(v0)]
    pairs = [(h[u] >> v) & 1 for i, u in enumerate(rest) for v in rest[i + 1:]]
    if pairs and not (all(pairs) or not any(pairs)):
        return False
    for v in v0:
        seen = {(h[v] >> u) & 1 for u in rest}
        if len(seen) > 1:
            return False
    return True


def bright_fraction(h: Adj) -> Fraction:
    """Probability that a uniform labelling is bright, by a DP over prefix
    sets of the non-isolated core.

    A position is active when its vertex has a neighbour earlier in the
    order; that depends only on the prefix set.  The labelling is bright
    when the last two active vertices are both detectable, so the state
    kept per prefix set is the number of detectable vertices at the end of
    the active sequence, capped at 2 (a non-detectable active vertex resets
    it to 0).
    """
    core = [v for v in range(len(h)) if h[v]]
    m = len(core)
    if m == 0:
        return Fraction(0)
    index = {v: i for i, v in enumerate(core)}
    nbr = [0] * m
    for i, v in enumerate(core):
        for u in core:
            if (h[v] >> u) & 1:
                nbr[i] |= 1 << index[u]
    det = detectable(h)
    is_det = [core[i] in det for i in range(m)]
    size = 1 << m
    ways = [[0, 0, 0] for _ in range(size)]
    ways[0][0] = 1
    for mask in range(size):
        here = ways[mask]
        if here == [0, 0, 0]:
            continue
        free = (size - 1) ^ mask
        while free:
            low = free & -free
            free ^= low
            i = low.bit_length() - 1
            nxt = ways[mask | low]
            if nbr[i] & mask:
                if is_det[i]:
                    nxt[1] += here[0]
                    nxt[2] += here[1] + here[2]
                else:
                    nxt[0] += here[0] + here[1] + here[2]
            else:
                nxt[0] += here[0]
                nxt[1] += here[1]
                nxt[2] += here[2]
    total = sum(ways[size - 1])
    return Fraction(ways[size - 1][2], total)


def self_test() -> list[str]:
    """The checkers on hand-worked cases; returns the failures."""
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, want {want}")

    p3 = path(3)
    expect("brightness(P3)", bright_fraction(p3), Fraction(1, 3))
    expect("brightness(2K2)", bright_fraction(from_edges(4, [(0, 1), (2, 3)])), Fraction(1))
    expect("brightness(C5)", bright_fraction(cycle(5)), Fraction(1))
    expect("obscure(P3)", obscure(p3), {1})
    k44 = complete_multipartite((4, 4))
    expect("C4 in K4,4", Fraction(copies(cycle(4), k44), 70), Fraction(18, 35))
    expect("|Aut(C4)|", automorphisms(cycle(4)), 8)
    best = max(copies(p3, complete_multipartite(p)) for p in partitions(4))
    best = max(best, max(copies(p3, complement(complete_multipartite(p)))
                         for p in partitions(4)))
    expect("ind(P3, 4) from the families", Fraction(best, 4), Fraction(1))
    claw = from_edges(4, [(0, 1), (0, 2), (0, 3)])
    expect("{0} tames K1,3", tames(claw, [0]), True)
    expect("{} tames K1,3", tames(claw, []), False)
    expect("{1} tames P4", tames(path(4), [1]), False)
    expect("graph6 round trip", g6_decode(g6_encode(k44)), k44)
    expect("graph6 of P4", g6_encode(path(4)), "Ch")
    big = cycle(64)
    expect("graph6 round trip at n = 64", g6_decode(g6_encode(big)), big)
    return failures


if __name__ == "__main__":
    problems = self_test()
    print("\n".join(problems) if problems else "all checker self-tests pass")
    raise SystemExit(1 if problems else 0)
