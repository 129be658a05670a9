"""Simulation of the black/green/red coloring of an i.i.d. vertex stream.

Vertices of a host graph are drawn uniformly with replacement.  A drawn
vertex is black when the non-isolated core of the graph induced by the
black vertices so far plus itself matches neither the pattern's core nor
the core of the pattern minus one detectable vertex.  A non-black term is
red if adding it to U, the black vertices among the first L terms (L is the
step of the (k-2)nd black term), recreates the pattern's core, and green
otherwise.  U is only known at L, so a non-black term drawn before L is
coloured at L, and one drawn after L is coloured on arrival and does not
enter the green/red counts.  A trace that reaches its step limit before L
is truncated and leaves its non-black terms uncoloured ("nonblack").

Every core, the pattern's and the host's, is keyed by one function of a
vertex mask, `_core_key`; the host's keys are memoized per mask.  A host
set is keyed only when its edge count could match: the cores it is tested
against have e(h) edges, or e(h) - deg(u) for a detectable u, and edge
count is an isomorphism invariant, so a set with any other count is black,
and is no prefix match and no red term, without a key.  The edges of the
black set and of the first k draws are kept as the trace runs, one popcount
per vertex new to its set.

Per-trace flags record whether the first j draws were distinct with a core
matching the pattern's (j = k-2, k-1, k), the conjunction of the first and
last of those, the green/red count signatures (2,0) and (0,1), and whether
two consecutive terms up to L were non-black.  The simulator also verifies
at every step that a vertex isolated among the draws so far came out
black; any violation is counted and indicates an implementation bug.
`simulate` reads only these flags and tallies each distinct flag tuple;
`run_trial` and `record_trace` also record the steps, as a `ColoredTrace`.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from typing import Iterable, Iterator

from .errors import InputError, PreconditionError
from .graphs import Graph, _canon_cached, _induced_rows
from .mc import trial_rngs
from .structure import classify_vertices

# the core-code memo is cleared when it outgrows this many masks; a
# 20,000-trace run of P3 + 2K1 on G(64, 0.05) stores 7,884-10,305 (the
# `classify` benchmark's colouring job, workload seeds 1-10), so it never
# clears there
CORE_MEMO_LIMIT = 100_000

BLACK = "black"
GREEN = "green"
RED = "red"
NONBLACK = "nonblack"  # a term before L in a truncated trace


# `stop_index` is the 1-based step holding the (k-2)nd black term, None when
# truncated, and `black_prefix` the black terms up to it
ColoredTrace = namedtuple("ColoredTrace", (
    "steps stop_index black_prefix green_count red_count prefix_match_km2 prefix_match_km1"
    " prefix_match_k full_match two_green one_red consecutive_nonblack truncated"
    " isolated_nonblack_violations"))


def _core_key(adj: tuple[int, ...], mask: int) -> bytes:
    """The canonical key of the non-isolated core of the subgraph of `adj`
    induced on the vertices in `mask`."""
    verts = []
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        if adj[v] & mask:
            verts.append(v)
    return _canon_cached(len(verts), _induced_rows(adj, verts))


class _ColorContext:
    """Pattern-derived core keys and `edge_counts`, the edge counts of
    those cores (see the module docstring), the trace step limit (see
    `run_trial`) and a per-host memo of core keys, cleared wholesale once
    it holds `CORE_MEMO_LIMIT` masks.  0 is never an edge count: h has two
    edges and deleting a detectable vertex leaves one, so an edgeless set
    is always black."""

    def __init__(self, g: Graph, h: Graph, max_steps: int | None = None):
        if h.n < 3 or h.edge_count() < 2:
            raise PreconditionError("pattern needs at least 3 vertices and 2 edges")
        if h.n > g.n:
            raise InputError(f"pattern has {h.n} vertices but host only {g.n}")
        self.max_steps = 50 * g.n * h.n if max_steps is None else max_steps
        if self.max_steps < h.n:
            raise InputError("max_steps must allow at least k draws")
        self.g = g
        self.k = h.n
        full = (1 << h.n) - 1
        detectable = classify_vertices(h).detectable
        self.core_code = _core_key(h.adj, full)
        self.deleted_codes = frozenset(_core_key(h.adj, full ^ (1 << v)) for v in detectable)
        self.edge_count = h.edge_count()
        self.edge_counts = frozenset(
            {self.edge_count, *(self.edge_count - h.adj[v].bit_count() for v in detectable)}
        )
        self._core_by_mask: dict[int, bytes] = {}

    def core_code_of_mask(self, mask: int) -> bytes:
        code = self._core_by_mask.get(mask)
        if code is None:
            code = _core_key(self.g.adj, mask)
            if len(self._core_by_mask) >= CORE_MEMO_LIMIT:
                self._core_by_mask.clear()
            self._core_by_mask[mask] = code
        return code

    def is_black(self, mask: int, edges: int) -> bool:
        """Whether the drawn vertex is black, given `mask`, the black set
        plus that vertex, and `edges`, the edges it induces."""
        if edges not in self.edge_counts:
            return True
        code = self.core_code_of_mask(mask)
        return code != self.core_code and code not in self.deleted_codes

    def color(self, u_mask: int, u_edges: int, v: int) -> str:
        """Colour of a non-black term v given the black set U at L and the
        edges U induces."""
        bit = 1 << v
        if not u_mask & bit:
            u_edges += (self.g.adj[v] & u_mask).bit_count()
        if u_edges == self.edge_count and self.core_code_of_mask(u_mask | bit) == self.core_code:
            return RED
        return GREEN


def _traces(
    ctx: _ColorContext, rngs: Iterable[random.Random], steps: list | None = None
) -> Iterator[tuple]:
    """Per generator of `rngs`, one trace's `ColoredTrace` fields after
    `black_prefix`, with the stop index in front.  When a list is given,
    it holds the current trace's steps, each term and its colour, with
    terms left uncoloured recorded as "nonblack"."""
    k, core_code, edge_count = ctx.k, ctx.core_code, ctx.edge_count
    adj, n, max_steps = ctx.g.adj, ctx.g.n, ctx.max_steps
    # each step draws `rng.randrange(n)`: CPython's `_randbelow` rejection loop
    n_bits = n.bit_length()
    is_black, color, core_of = ctx.is_black, ctx.color, ctx.core_code_of_mask
    for rng in rngs:
        getrandbits = rng.getrandbits
        if steps is not None:
            steps.clear()
        waiting: list[int] = []  # the non-black terms before L
        matches: list[bool] = []  # the prefix matches at j = k-2, k-1, k
        black_mask = drawn_mask = u_mask = 0
        black_edges = drawn_edges = u_edges = 0
        stop: int | None = None
        blacks = violations = 0
        distinct_prefix = True
        prev_nonblack = consecutive = False

        i, limit = 0, max_steps
        while i < limit:
            i += 1
            v = getrandbits(n_bits)
            while v >= n:
                v = getrandbits(n_bits)
            bit = 1 << v
            if i <= k:
                if drawn_mask & bit:
                    distinct_prefix = False
                else:
                    drawn_edges += (adj[v] & drawn_mask).bit_count()
                if i >= k - 2:
                    matches.append(distinct_prefix and drawn_edges == edge_count
                                   and core_of(drawn_mask | bit) == core_code)
            edges = black_edges if black_mask & bit else black_edges + (adj[v] & black_mask).bit_count()
            if is_black(black_mask | bit, edges):
                black_mask |= bit
                black_edges = edges
                if steps is not None:
                    steps.append((v, BLACK))
                if stop is None:
                    blacks += 1
                    prev_nonblack = False
                    if blacks == k - 2:
                        stop, u_mask, u_edges, limit = i, black_mask, black_edges, max(i, k)
            else:
                if not adj[v] & drawn_mask:
                    violations += 1
                if stop is None:
                    # U is not known yet: the colour waits for L
                    waiting.append(v)
                    consecutive = consecutive or prev_nonblack
                    prev_nonblack = True
                    if steps is not None:
                        steps.append((v, NONBLACK))
                elif steps is not None:
                    steps.append((v, color(u_mask, u_edges, v)))
            drawn_mask |= bit

        green = red = None
        if stop is not None:
            colours = [color(u_mask, u_edges, w) for w in waiting] if waiting else waiting
            red = colours.count(RED)
            green = len(colours) - red
            if steps is not None:
                fill = iter(colours)
                steps[:] = [(w, next(fill) if c == NONBLACK else c) for w, c in steps]
        km2, km1, km = matches
        yield (
            stop, green, red, km2, km1, km, km2 and km,
            green == 2 and red == 0, green == 0 and red == 1,
            consecutive and stop is not None, stop is None, violations,
        )


def record_trace(ctx: _ColorContext, rng: random.Random) -> ColoredTrace:
    """The trace of `rng` on `ctx`, every step recorded."""
    steps: list[tuple[int, str]] = []
    stop, *flags = next(_traces(ctx, (rng,), steps))
    black_prefix = tuple(v for v, c in steps[:stop] if c == BLACK)
    return ColoredTrace(tuple(steps), stop, black_prefix, *flags)


def run_trial(
    g: Graph, h: Graph, seed: int, max_steps: int | None = None
) -> ColoredTrace:
    """One seeded trace.  max_steps defaults to 50*n*k; reaching it without
    k-2 black terms truncates the trace with an unset stop index."""
    return record_trace(_ColorContext(g, h, max_steps), random.Random(seed))


class ColoringSummary(namedtuple("ColoringSummary", (
        "trials seed truncated count_prefix_match_km2 count_prefix_match_km1"
        " count_prefix_match_k count_full_match count_two_green count_one_red"
        " count_consecutive_nonblack count_two_green_and_match count_one_red_and_match"
        " count_consecutive_and_match count_two_green_no_consecutive"
        " match_outside_signatures isolated_nonblack_violations"))):
    """Trace counts of one `simulate` run; `match_outside_signatures` counts the
    traces with the match but neither signature."""

    __slots__ = ()

    def freq(self, count: int) -> float:
        return count / self.trials

    def conditional(self, count: int, given: int) -> float | None:
        return None if given == 0 else count / given


def simulate(
    g: Graph, h: Graph, trials: int, seed: int, max_steps: int | None = None
) -> ColoringSummary:
    """Seeded empirical frequencies over independent traces; the two
    violation counters must come back zero (they check proven inclusions)."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    ctx = _ColorContext(g, h, max_steps)
    tally = Counter(_traces(ctx, trial_rngs(trials, seed)))
    rows = []
    for flags, times in tally.items():
        _, _, _, km2, km1, km, full, two_green, one_red, consecutive, truncated, isolated = flags
        # one entry per count field of ColoringSummary, in field order
        hits = (
            truncated, km2, km1, km, full, two_green, one_red, consecutive,
            two_green and full, one_red and full, consecutive and full,
            two_green and not consecutive,
            full and not truncated and not (two_green or one_red),
            isolated,
        )
        rows.append([times * hit for hit in hits])
    return ColoringSummary(trials, seed, *map(sum, zip(*rows)))
