"""Simulation of the black/green/red coloring of an i.i.d. vertex stream.

Vertices of a host graph are drawn uniformly with replacement.  A drawn
vertex is black when the non-isolated core of the graph induced by the
black vertices so far plus itself matches neither the pattern's core nor
the core of the pattern minus one detectable vertex.  Once the stream has
accumulated k-2 black terms (at step L), every non-black term up to L is
classified retroactively against the set U of those black vertices: red if
adding it to U recreates the pattern's core, green otherwise.  Retroactive
assignment is forced by the definition: red/green depend on U, which is
only known at L.  Terms after L are classified with the same rule but do
not enter the green/red counts.

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
from .graphs import (
    Graph,
    _induced_rows,
    canonical_key,
    induced_subgraph,
    non_isolated_core,
)
from .mc import split_samples, stream_seed
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


class _ColorContext:
    """Pattern-derived canonical codes, the trace step limit (see
    `run_trial`) and a per-host memo of core codes, cleared wholesale once
    it holds `CORE_MEMO_LIMIT` masks."""

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
        self.core_code = canonical_key(non_isolated_core(h))
        deleted = set()
        for v in classify_vertices(h).detectable:
            rest = [u for u in range(h.n) if u != v]
            deleted.add(canonical_key(non_isolated_core(induced_subgraph(h, rest))))
        self.deleted_codes = frozenset(deleted)
        self._core_by_mask: dict[int, bytes] = {}

    def core_code_of_mask(self, mask: int) -> bytes:
        code = self._core_by_mask.get(mask)
        if code is None:
            adj = self.g.adj
            verts = []
            m = mask
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                if adj[v] & mask:
                    verts.append(v)
            code = canonical_key(Graph(len(verts), _induced_rows(adj, verts)))
            if len(self._core_by_mask) >= CORE_MEMO_LIMIT:
                self._core_by_mask.clear()
            self._core_by_mask[mask] = code
        return code

    def is_black(self, black_mask: int, v: int) -> bool:
        code = self.core_code_of_mask(black_mask | (1 << v))
        return code != self.core_code and code not in self.deleted_codes


def _run(ctx: _ColorContext, rng: random.Random) -> ColoredTrace:
    g, k, max_steps = ctx.g, ctx.k, ctx.max_steps
    adj = g.adj
    n = g.n
    draws: list[int] = []
    black_flags: list[bool] = []
    black_mask = 0
    black_terms = 0
    stop_index: int | None = None
    drawn_mask = 0
    isolated_violations = 0
    distinct_prefix = True
    prefix_flags = {k - 2: False, k - 1: False, k: False}

    while True:
        i = len(draws) + 1
        if stop_index is None and i > max_steps:
            break
        if stop_index is not None and i > max(stop_index, k):
            break
        v = rng.randrange(n)
        is_black = ctx.is_black(black_mask, v)
        draws.append(v)
        black_flags.append(is_black)
        if (adj[v] & drawn_mask) == 0 and not is_black:
            isolated_violations += 1
        if i <= k and (drawn_mask >> v) & 1:
            distinct_prefix = False
        drawn_mask |= 1 << v
        if is_black:
            black_mask |= 1 << v
            black_terms += 1
            if black_terms == k - 2 and stop_index is None:
                stop_index = i
        if i in prefix_flags:
            prefix_flags[i] = distinct_prefix and (
                ctx.core_code_of_mask(drawn_mask) == ctx.core_code
            )

    truncated = stop_index is None
    if truncated:
        u_mask = black_mask
        u_seq = tuple(v for v, b in zip(draws, black_flags) if b)
    else:
        u_seq = tuple(
            v for v, b in zip(draws[:stop_index], black_flags[:stop_index]) if b
        )
        u_mask = 0
        for v in u_seq:
            u_mask |= 1 << v

    steps: list[tuple[int, str]] = []
    green = red = 0
    prev_nonblack = False
    consecutive = False
    for idx, (v, is_black) in enumerate(zip(draws, black_flags), start=1):
        if is_black:
            steps.append((v, BLACK))
            if stop_index is not None and idx <= stop_index:
                prev_nonblack = False
            continue
        if truncated:
            # U is undetermined, leave the classification open
            steps.append((v, "nonblack"))
            continue
        code = ctx.core_code_of_mask(u_mask | (1 << v))
        color = RED if code == ctx.core_code else GREEN
        steps.append((v, color))
        if idx <= stop_index:
            if color == GREEN:
                green += 1
            else:
                red += 1
            if prev_nonblack:
                consecutive = True
            prev_nonblack = True

    e_km2 = prefix_flags[k - 2]
    e_km1 = prefix_flags[k - 1]
    e_k = prefix_flags[k]
    full = e_km2 and e_k
    return ColoredTrace(
        steps=tuple(steps),
        stop_index=stop_index,
        black_prefix=u_seq,
        green_count=None if truncated else green,
        red_count=None if truncated else red,
        prefix_match_km2=e_km2,
        prefix_match_km1=e_km1,
        prefix_match_k=e_k,
        full_match=full,
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
    count_prefix_km2: int
    count_prefix_km1: int
    count_prefix_k: int
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
    for idx, count in enumerate(split_samples(trials)):
        rng = random.Random(stream_seed(seed, idx))
        for _ in range(count):
            tr = _run(ctx, rng)
            total["truncated"] += tr.truncated
            total["count_prefix_km2"] += tr.prefix_match_km2
            total["count_prefix_km1"] += tr.prefix_match_km1
            total["count_prefix_k"] += tr.prefix_match_k
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
