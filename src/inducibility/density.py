"""Exact and Monte-Carlo induced density of a pattern graph in a host graph.

One matcher, `_count_matches`, answers "which k-subsets of the host induce
h?" for every caller.  It walks increasing vertex subsets depth-first,
extends the prefix's induced rows one vertex at a time, and prunes every
prefix whose sorted degree sequence is not that of an induced subgraph of h
of its size.  A (k - 2)-vertex prefix Q counts the completions of each
child S = Q + w itself: S's join table, carried from h's rooted deck by a
labelling of S, folds over Q's neighbourhood classes into two masks, so the
later vertices that complete S are one popcount (`_fold`).  S is walked
vertex by vertex only until its table is built, so counts are exact.
Densities are exact rationals.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import InputError, UnsupportedSizeError
from .graphs import Graph, _canon_cached, _canonical_search, _induced_rows, _orbit, _pack_key
from .mc import MCEstimate, run_bernoulli_streams

DEFAULT_SUBSET_BUDGET = 10**8
# a pattern's join tables are cleared when they outgrow this many: one per
# labelled (k - 1)-vertex S, so at most 2^C(k - 1, 2), 32,768 for k = 7
JOIN_TABLE_LIMIT = 1 << 18


DensityResult = namedtuple("DensityResult", "copies total density")


def _check_sizes(h: Graph, g: Graph) -> None:
    if h.n > g.n:
        raise InputError(f"pattern has {h.n} vertices but host only {g.n}")


def _degrees(rows: Sequence[int]) -> int:
    return sum(1 << 7 * r.bit_count() for r in rows)  # 7-bit count per degree


def _delete(rows: tuple[int, ...], v: int) -> tuple[int, ...]:
    """`rows` less vertex v: the bits below v stay and those above shift down."""
    low = (1 << v) - 1
    return tuple((r & low) | ((r >> 1) & ~low) for r in rows[:v] + rows[v + 1 :])


class _Pattern:
    """What the walk tests a prefix of the host against, derived from h.

    `key` is h's canonical key.  Level j is the set of degree multisets
    (`_degrees`) of h's induced j-vertex subgraphs, derived from the distinct
    rows of level j + 1 by deleting each vertex.  That nears C(k, j) rows
    for an asymmetric h, so levels are derived only while the deletions made
    stay within the subsets the calling walk covers; a level not derived
    prunes nothing.

    `deck` and `rooted` hold h's rooted deck, and `joins(rows)` is the join
    table of a labelled (k - 1)-vertex S: the masks t that make S plus a
    vertex joined to t a copy of h, kept in `tables`.  A copy through u
    carries N_h(u) to t by an isomorphism h - u -> S, so t is a deck mask
    carried to S and moved by Aut(S), which also moves the mask of every u
    in u's orbit there: one u per orbit is enough, and only a u whose h - u
    has S's degree multiset.  The matcher folds S's table over the classes
    of S less its last vertex and counts S's completions by one popcount.
    """

    def __init__(self, h: Graph) -> None:
        self.k = h.n
        cols, _, self._gens, _ = _canonical_search(h.n, h.adj)  # the generators serve `deck`
        self.key = _pack_key(h.n, cols)
        self._levels = [{_degrees(h.adj)}]  # sizes k, k - 1, ...
        self._rows = {h.adj}  # distinct induced rows of the lowest level derived
        self._spent = 0
        self.adj = h.adj
        self.tables: dict[tuple[int, ...], frozenset[int] | None] = {}
        self.sums: dict[int, tuple] = {}  # `search._through`'s byte-lane sums, per parent size
        self._roots: dict[int, dict] = {}  # `rooted`'s groups, one per key of `deck` at most

    @cached_property
    def deck(self) -> dict[int, list[int]]:
        """h - u's degree multiset (`_degrees`) -> one u per Aut(h)-orbit with it."""
        deck: dict[int, list[int]] = {}
        for u in sorted({min(_orbit(u, self._gens)) for u in range(self.k)}):
            deck.setdefault(_degrees(_delete(self.adj, u)), []).append(u)
        return deck

    def rooted(self, degrees: int) -> dict[bytes, tuple[tuple[int, ...], list[int]]]:
        """h - u's canonical key -> its canonical rows and N_h(u) in that
        order, for the u of `deck[degrees]`: only an S of those degrees can
        meet them, so each is labelled when such an S first comes."""
        if degrees in self._roots:
            return self._roots[degrees]
        rooted = self._roots[degrees] = {}
        for u in self.deck.get(degrees, ()):
            rows = _delete(self.adj, u)
            cols, order, _, _ = _canonical_search(self.k - 1, rows)
            mask = sum(1 << i for i, w in enumerate(order) if (self.adj[u] >> (w + (w >= u))) & 1)
            rooted.setdefault(_pack_key(self.k - 1, cols), (_induced_rows(rows, order), []))[1].append(mask)
        return rooted

    def joins(self, rows: tuple[int, ...]) -> frozenset[int] | None:
        """S's join table, kept in `tables`, which are cleared once they hold
        `JOIN_TABLE_LIMIT` (a search keeps one pattern)."""
        if rows not in self.tables:
            if len(self.tables) >= JOIN_TABLE_LIMIT:
                self.tables.clear()
            self.tables[rows] = self._joins(rows)
        return self.tables[rows]

    def _joins(self, rows: tuple[int, ...]) -> frozenset[int] | None:
        """The join table of S = `rows`, or None past 2^12 masks, which needs k > 13."""
        degrees = _degrees(rows)
        if degrees not in self.deck:  # no h - u, so S is not labelled
            return frozenset()
        roots = self.rooted(degrees).get(_canon_cached(self.k - 1, rows))  # S's key is shared by every pattern
        if roots is None:
            return frozenset()
        _, order, gens, _ = _canonical_search(self.k - 1, rows)
        table = {sum(1 << w for i, w in enumerate(order) if (t >> i) & 1) for t in roots[1]}
        stack = list(table)
        for t in stack:  # grows with each new image
            images = {sum(1 << y for x, y in enumerate(perm) if (t >> x) & 1) for perm in gens} - table
            table |= images
            stack += images
            if len(table) > 1 << 12:
                return None
        return frozenset(table)

    def levels(self, j: int, subsets: int) -> list[set[int] | None]:
        """The levels of sizes j, j + 1, ..., k, in that order."""
        while len(self._levels) <= self.k - j:
            m = self.k - len(self._levels) + 1
            if self._spent + m * len(self._rows) > subsets:
                break
            self._spent += m * len(self._rows)
            below: set[tuple[int, ...]] = set()
            for rows in self._rows:
                below.update(_delete(rows, v) for v in range(m))
            self._rows = below
            self._levels.append({_degrees(rows) for rows in self._rows})
        known = self._levels[self.k - j :: -1]
        return [None] * (self.k - j + 1 - len(known)) + known


def _induces(pattern: _Pattern, adj: Sequence[int], verts: Sequence[int], mask: int) -> bool:
    """Whether the k host vertices `verts`, with bitmask `mask`, induce the
    pattern: one subset, such as a Monte-Carlo sample; its degree multiset
    is tested first."""
    degs = 0
    for v in verts:
        degs += 1 << 7 * (adj[v] & mask).bit_count()
    return (degs in pattern._levels[0]
            and _canon_cached(pattern.k, _induced_rows(adj, verts)) == pattern.key)


def _fold(adj: Sequence[int], prefix: tuple[int, ...], table: frozenset[int],
          classes: dict[int, int]) -> tuple[int, int]:
    """`on` and `off` of S = `prefix` plus a vertex w, whose join table is
    `table`: x completes S when x is joined to w in `on`, or not joined to w
    in `off`.  The classes M(s) = {x : N(x) meets `prefix` in s} (bit i of s
    for prefix[i]) are disjoint, so `on` is the union of M(t less w's bit)
    over the t that hold w, and `off` over the rest; `classes` keeps each
    M(s) of this prefix for its siblings."""
    top = 1 << len(prefix)
    on = off = 0
    for t in table:
        s = t & (top - 1)
        part = classes.get(s)
        if part is None:
            part = -1
            for i, p in enumerate(prefix):
                part &= adj[p] if (s >> i) & 1 else ~adj[p]
            classes[s] = part
        if t & top:
            on |= part
        else:
            off |= part
    return on, off


def _count_matches(pattern: _Pattern, adj: Sequence[int], forced: Sequence[int] = ()) -> int:
    """Number of k-subsets of the host `adj` that contain every vertex of
    `forced` and induce the pattern."""
    k, f, n = pattern.k, len(forced), len(adj)
    if f > k:
        return 0
    if f == k:
        return int(_induces(pattern, adj, forced, sum(1 << v for v in forced)))
    keys = pattern.levels(f, math.comb(n - f, k - f))
    rows = _induced_rows(adj, forced)
    if keys[0] is not None and _degrees(rows) not in keys[0]:
        return 0
    free = [w for w in range(n) if w not in forced]

    def walk(start: int, prefix: tuple[int, ...], mask: int, rows: tuple[int, ...], degs: int,
             classes: dict[int, int]) -> int:
        j = len(prefix)
        level, top, complete = keys[j + 1 - f], 1 << j, j + 1 == k
        joins = complete and pattern.tables.get(rows, False)  # False until built, None if unlisted
        folds = None
        if j + 2 == k:  # each child's completions are counted here, from this prefix's classes
            classes, folds = {}, {}
        # rows and degree multiset of each extension, by its neighbours in the prefix
        extended: dict[int, tuple[tuple[int, ...], int] | None] = {}
        copies = 0
        for idx, w in enumerate(free[start : len(free) - (k - j) + 1], start):
            if joins not in (False, None) and j:  # the rest by the fold over the prefix less its last
                on, off = _fold(adj, prefix[:-1], joins, classes)
                a = adj[prefix[-1]]
                return copies + ((1 << n) - (1 << w) & ~mask & (on & a | off & ~a)).bit_count()
            nbrs = adj[w] & mask
            if nbrs not in extended:
                grown, last, grown_degs = [], 0, degs
                for i, p in enumerate(prefix):
                    if (nbrs >> p) & 1:
                        grown.append(rows[i] | top)
                        last |= 1 << i
                        grown_degs += 127 << 7 * rows[i].bit_count()  # one count up a degree
                    else:
                        grown.append(rows[i])
                grown.append(last)
                grown_degs += 1 << 7 * last.bit_count()
                ext = tuple(grown)
                if level is not None and grown_degs not in level:
                    extended[nbrs] = None
                elif complete and (  # the first vertex past the degrees builds the table
                    last not in joins if (joins := joins or pattern.joins(rows)) is not None
                    else _canon_cached(k, ext) != pattern.key
                ):
                    extended[nbrs] = None
                else:
                    extended[nbrs] = ext, grown_degs
            found = extended[nbrs]
            if found is None:
                continue
            if folds is not None:  # S = prefix + w is walked only while its table is unbuilt or unlisted
                fold = folds.get(nbrs)
                if fold is None:
                    table = pattern.tables.get(found[0], False)
                    if table is not False and table is not None:
                        fold = folds[nbrs] = _fold(adj, prefix, table, classes)
                if fold is not None:
                    on, off = fold
                    a = adj[w]
                    copies += ((1 << n) - (2 << w) & ~mask & (on & a | off & ~a)).bit_count()
                    continue
            copies += 1 if complete else walk(idx + 1, prefix + (w,), mask | (1 << w), *found, classes)
        return copies

    return walk(0, tuple(forced), sum(1 << v for v in forced), rows, _degrees(rows), {})


def count_induced(h: Graph, g: Graph) -> int:
    """Number of |V(h)|-subsets of g inducing a copy of h."""
    _check_sizes(h, g)
    total = math.comb(g.n, h.n)
    if total > DEFAULT_SUBSET_BUDGET:
        raise UnsupportedSizeError(
            f"C({g.n},{h.n}) = {total} subsets exceeds the work budget {DEFAULT_SUBSET_BUDGET}"
        )
    return _count_matches(_Pattern(h), g.adj)


def induced_density(h: Graph, g: Graph) -> DensityResult:
    copies = count_induced(h, g)
    total = math.comb(g.n, h.n)
    return DensityResult(copies=copies, total=total, density=Fraction(copies, total))


def _draws(n: int, k: int) -> list[tuple[int, int, int]]:
    """What `_sample` draws for a k-subset of range(n): per pick i, i, the
    n - i positions left and their bit length."""
    return [(i, n - i, (n - i).bit_length()) for i in range(k)]


def _sample(rng: random.Random, draws: list[tuple[int, int, int]]) -> tuple[tuple[int, ...], int]:
    """Uniform k-subset of range(n), sorted, and its bitmask, by partial
    Fisher-Yates over `_draws(n, k)`; O(k) extra memory."""
    getrandbits = rng.getrandbits
    moved: dict[int, int] = {}  # position -> the id swapped into it; the rest hold their own
    picks = []
    mask = 0
    for i, w, b in draws:
        j = getrandbits(b)  # CPython's randrange(i, n): w = n - i, b its bit length
        while j >= w:
            j = getrandbits(b)
        j += i
        pick = moved.get(j, j)
        picks.append(pick)
        mask |= 1 << pick
        moved[j] = moved.get(i, i)
    picks.sort()
    return tuple(picks), mask


def induced_density_mc(
    h: Graph, g: Graph, samples: int, seed: int
) -> MCEstimate:
    """Monte-Carlo estimate of the induced density with a 95% Wilson interval."""
    _check_sizes(h, g)
    if samples < 1:
        raise InputError("samples must be >= 1")
    pattern = _Pattern(h)
    adj = g.adj
    draws = _draws(g.n, h.n)

    def trial(rng: random.Random) -> bool:
        return _induces(pattern, adj, *_sample(rng, draws))

    return run_bernoulli_streams(trial, samples, seed)
