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
vertex mask, `_core_key`; the host's keys are memoized per mask.

Per-trace flags record whether the first j draws were distinct with a core
matching the pattern's (j = k-2, k-1, k), the conjunction of the first and
last of those, the green/red count signatures (2,0) and (0,1), and whether
two consecutive terms up to L were non-black.  The simulator also verifies
at every step that a vertex isolated among the draws so far came out
black; any violation is counted and indicates an implementation bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .errors import InputError, PreconditionError
from .graphs import Graph, _canon_cached, _induced_rows
from .mc import trial_rngs
from .structure import classify_vertices

# the core-code memo is cleared when it outgrows this many masks, about
# 1.5 times what a 20,000-trace run on G(64, 0.05) stores
CORE_MEMO_LIMIT = 100_000

BLACK = "black"
GREEN = "green"
RED = "red"


@dataclass(frozen=True)
class ColoredTrace:
    steps: tuple[tuple[int, str], ...]
    stop_index: int | None  # 1-based step holding the (k-2)nd black term
    black_prefix: tuple[int, ...]  # black terms up to the stop index
    green_count: int | None
    red_count: int | None
    prefix_match_km2: bool
    prefix_match_km1: bool
    prefix_match_k: bool
    full_match: bool
    two_green: bool
    one_red: bool
    consecutive_nonblack: bool
    truncated: bool
    isolated_nonblack_violations: int


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
    """Pattern-derived core keys, the trace step limit (see `run_trial`)
    and a per-host memo of core keys, cleared wholesale once it holds
    `CORE_MEMO_LIMIT` masks."""

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
        self.core_code = _core_key(h.adj, full)
        self.deleted_codes = frozenset(
            _core_key(h.adj, full ^ (1 << v)) for v in classify_vertices(h).detectable
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

    def is_black(self, black_mask: int, v: int) -> bool:
        code = self.core_code_of_mask(black_mask | (1 << v))
        return code != self.core_code and code not in self.deleted_codes

    def color(self, u_mask: int, v: int) -> str:
        """Colour of a non-black term v given the black set U at L."""
        return RED if self.core_code_of_mask(u_mask | (1 << v)) == self.core_code else GREEN


def _run(ctx: _ColorContext, rng: random.Random) -> ColoredTrace:
    k, max_steps, core_code = ctx.k, ctx.max_steps, ctx.core_code
    adj, n = ctx.g.adj, ctx.g.n
    is_black, color = ctx.is_black, ctx.color
    steps: list[tuple[int, str]] = []
    black_seq: list[int] = []  # black terms up to the stop index
    waiting: list[int] = []  # positions in steps of the non-black terms before L
    black_mask = drawn_mask = u_mask = 0
    stop_index: int | None = None
    isolated_violations = red = 0
    distinct_prefix = True
    prev_nonblack = consecutive = False
    prefix_flags = {k - 2: False, k - 1: False, k: False}

    i = 0
    while i < (max_steps if stop_index is None else max(stop_index, k)):
        i += 1
        v = rng.randrange(n)
        bit = 1 << v
        black = is_black(black_mask, v)
        if not black and (adj[v] & drawn_mask) == 0:
            isolated_violations += 1
        if i <= k and drawn_mask & bit:
            distinct_prefix = False
        drawn_mask |= bit
        if black:
            black_mask |= bit
            steps.append((v, BLACK))
            if stop_index is None:
                black_seq.append(v)
                prev_nonblack = False
                if len(black_seq) == k - 2:
                    stop_index, u_mask = i, black_mask
                    for j in waiting:
                        w = steps[j][0]
                        c = color(u_mask, w)
                        steps[j] = (w, c)
                        red += c == RED
        elif stop_index is None:
            # U is not known yet: the colour waits for L
            waiting.append(len(steps))
            steps.append((v, "nonblack"))
            consecutive = consecutive or prev_nonblack
            prev_nonblack = True
        else:
            steps.append((v, color(u_mask, v)))
        if i in prefix_flags:
            prefix_flags[i] = distinct_prefix and ctx.core_code_of_mask(drawn_mask) == core_code

    truncated = stop_index is None
    green = len(waiting) - red
    return ColoredTrace(
        steps=tuple(steps),
        stop_index=stop_index,
        black_prefix=tuple(black_seq),
        green_count=None if truncated else green,
        red_count=None if truncated else red,
        prefix_match_km2=prefix_flags[k - 2],
        prefix_match_km1=prefix_flags[k - 1],
        prefix_match_k=prefix_flags[k],
        full_match=prefix_flags[k - 2] and prefix_flags[k],
        two_green=(not truncated) and green == 2 and red == 0,
        one_red=(not truncated) and green == 0 and red == 1,
        consecutive_nonblack=(not truncated) and consecutive,
        truncated=truncated,
        isolated_nonblack_violations=isolated_violations,
    )


def run_trial(
    g: Graph, h: Graph, seed: int, max_steps: int | None = None
) -> ColoredTrace:
    """One seeded trace.  max_steps defaults to 50*n*k; reaching it without
    k-2 black terms truncates the trace with an unset stop index."""
    return _run(_ColorContext(g, h, max_steps), random.Random(seed))


@dataclass(frozen=True)
class ColoringSummary:
    trials: int
    seed: int
    truncated: int
    count_prefix_match_km2: int
    count_prefix_match_km1: int
    count_prefix_match_k: int
    count_full_match: int
    count_two_green: int
    count_one_red: int
    count_consecutive_nonblack: int
    count_two_green_and_match: int
    count_one_red_and_match: int
    count_consecutive_and_match: int
    count_two_green_no_consecutive: int
    match_outside_signatures: int  # traces with the match but neither signature
    isolated_nonblack_violations: int

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
    total = {f.name: 0 for f in fields(ColoringSummary) if f.name not in ("trials", "seed")}
    for rng in trial_rngs(trials, seed):
        tr = _run(ctx, rng)
        total["truncated"] += tr.truncated
        total["count_prefix_match_km2"] += tr.prefix_match_km2
        total["count_prefix_match_km1"] += tr.prefix_match_km1
        total["count_prefix_match_k"] += tr.prefix_match_k
        total["count_full_match"] += tr.full_match
        total["count_two_green"] += tr.two_green
        total["count_one_red"] += tr.one_red
        total["count_consecutive_nonblack"] += tr.consecutive_nonblack
        total["count_two_green_and_match"] += tr.two_green and tr.full_match
        total["count_one_red_and_match"] += tr.one_red and tr.full_match
        total["count_consecutive_and_match"] += tr.consecutive_nonblack and tr.full_match
        total["count_two_green_no_consecutive"] += tr.two_green and not tr.consecutive_nonblack
        if tr.full_match and not tr.truncated:
            total["match_outside_signatures"] += not (tr.two_green or tr.one_red)
        total["isolated_nonblack_violations"] += tr.isolated_nonblack_violations
    return ColoringSummary(trials=trials, seed=seed, **total)
