"""Maximum induced density over n-vertex hosts: exact for small n, local
search for larger n.

Exact mode takes the maximum density over the n-vertex hosts, breaking
ties by smallest canonical code so outputs are stable.  The classes on n
vertices are built by canonical augmentation (McKay, "Isomorph-free
exhaustive generation", J. Algorithms 1998): each class on n - 1 vertices
gets a new vertex v joined to the smallest subset of each orbit of the
parent's automorphism group, and a child is kept only when v
is in the orbit of its canonically chosen vertex.  That vertex maximizes a
cheap invariant, so most children are settled without a labelling.  Every
class comes out exactly once, and its representative is its canonical
form, which depends on the class alone.  A class keeps its parent and v's
subset, so its copy count is its parent's plus the copies through v.

The top level is scored from its parents without being built: every
n-vertex host is some (n - 1)-vertex class plus v, so the maximum is read
off every subset of every class of `_tree(n - 1)`, and a class met twice
does not change a maximum.  The copies through v for all subsets of a
parent come from one table per parent: for each (k - 1)-subset S, the
patterns of v's neighbours in S that complete a copy, found once per
labelled S by the density module's matcher.  Only the hosts at the maximum
are labelled, to pick the witness.  So scoring builds `_tree` up to n - 1,
and `_tree(n)` is built only to enumerate the n-vertex classes.

Parents are scored best-first.  A copy through v is v plus a (k - 1)-subset
of the parent inducing some h - u, and each such subset makes at most one
copy, so a parent's deck, the number of those subsets, plus its own count
bounds every child.  The deck is `_host_counts` summed over h's distinct
vertex-deleted subgraphs: a subset induces one class, so none is counted
twice.  Parents are scored in decreasing order of that bound, and the scan
stops at the first whose bound is below the best count found so far.  A
parent whose bound equals the best is still scored, so every child at the
maximum is seen and the witness does not depend on the pruning.

The local search is simulated annealing over single edge flips with
geometric cooling.  Density is maintained incrementally: flipping (u, v)
changes the count by the copies through both endpoints after the flip
minus those before, each counted by the density module's forced walk.
Every run is resumable bit-exactly from a versioned JSON checkpoint; a
malformed or stale checkpoint is rejected rather than silently restarted.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterator

from .density import _count_matches, _Pattern
from .errors import CheckpointError, InputError, UnsupportedSizeError
from .graphs import Graph, _canonical_search, _from_columns, _induced_rows, _orbit, _pack_key
from .graphs import canonical_key, induced_subgraph, parse_graph6, to_graph6

ENUM_LIMIT = 9

LOCAL_SEARCH_LIMIT = 40

CHECKPOINT_VERSION = 1

T0 = 0.05
COOLING = 0.995
RESTART_AFTER = 100_000


@dataclass(frozen=True)
class IndResult:
    value: Fraction
    witness: Graph
    mode: str  # "exact" or "lower_bound"


def _child(rows: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """`rows` plus a new last vertex joined to the vertices in `mask`."""
    return tuple(row | ((mask >> u) & 1) << len(rows) for u, row in enumerate(rows)) + (mask,)


def _augmentations(n: int, rows: tuple[int, ...]) -> Iterator[int]:
    """The smallest neighbor mask of each Aut-orbit on vertex subsets of the
    n-vertex `rows`, in increasing order: one orbit gives isomorphic children."""
    gens = _canonical_search(n, rows)[2]
    size = 1 << n
    images = []
    for perm in gens:
        image = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            image[mask] = image[mask ^ low] | (1 << perm[low.bit_length() - 1])
        images.append(image)
    seen = bytearray(size)
    for mask in range(size):
        if not seen[mask]:
            seen[mask] = 1
            stack = [mask]
            while stack:
                m = stack.pop()
                for image in images:
                    if not seen[image[m]]:
                        seen[image[m]] = 1
                        stack.append(image[m])
            yield mask


@lru_cache(maxsize=None)
def _tree(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]:
    """The classes on n vertices in canonical-code order, as parallel tuples of
    canonical rows, parent indices in `_tree(n - 1)` and the parents' masks."""
    if n == 0:
        return ((),), (), ()
    v = n - 1
    keyed = []
    for p, parent in enumerate(_tree(v)[0]):
        degrees = [row.bit_count() for row in parent]
        for mask in _augmentations(v, parent):
            # keep the child when v is in the orbit of the vertex that
            # maximizes f(u) = (degree, sorted neighbor degrees) and comes
            # first in the canonical order; f alone rejects most children
            deg = [d + ((mask >> u) & 1) for u, d in enumerate(degrees)] + [mask.bit_count()]
            if max(deg) > deg[v]:
                continue
            rows = _child(parent, mask)
            f = {u: sorted(deg[w] for w in range(n) if (rows[u] >> w) & 1)
                 for u in range(n) if deg[u] == deg[v]}
            if max(f.values()) > f[v]:
                continue
            cols, order, gens, _ = _canonical_search(n, rows)
            if v in _orbit(next(u for u in order if f.get(u) == f[v]), gens):
                keyed.append((_pack_key(n, cols), cols, p, mask))
    _, cols, parents, masks = zip(*sorted(keyed))
    return tuple(_from_columns(n, c) for c in cols), parents, masks


def _classes(n: int) -> tuple[Graph, ...]:
    return tuple(Graph(n, rows) for rows in _tree(n)[0])


def enumerate_graphs(n: int):
    """One representative per isomorphism class, in canonical-code order."""
    if n > ENUM_LIMIT:
        raise UnsupportedSizeError(f"enumerate_graphs supports n <= {ENUM_LIMIT}, got {n}")
    if n < 0:
        raise InputError("n must be nonnegative")
    yield from _classes(n)


@lru_cache(maxsize=None)
def _layout(m: int, j: int) -> tuple[tuple[tuple[int, ...], list[int], list[int]], ...]:
    """Per j-subset S of range(m): S, the mask of range(m) that each
    pattern t < 2^j on S stands for, and the submasks of range(m) outside S."""
    layout = []
    for subset in combinations(range(m), j):
        spread = [sum(1 << u for i, u in enumerate(subset) if (t >> i) & 1) for t in range(1 << j)]
        free = (1 << m) - 1 - spread[-1]  # spread[-1] is S itself
        layout.append((subset, spread, [r for r in range(free + 1) if r & free == r]))
    return tuple(layout)


def _through(pattern: _Pattern, rows: tuple[int, ...]) -> list[int]:
    """Copies of the pattern through a new vertex joined to the m-vertex
    `rows` by each of the 2^m masks, indexed by mask."""
    k = pattern.k
    through = [0] * (1 << len(rows))
    if k == 0:
        return through
    for subset, spread, rests in _layout(len(rows), k - 1):
        sub = _induced_rows(rows, subset)
        joins = pattern.joins.get(sub)
        if joins is None:
            # the patterns t of a new vertex's neighbours in S that complete a copy
            joins = pattern.joins[sub] = [
                t for t in range(len(spread)) if _count_matches(pattern, _child(sub, t), range(k))
            ]
        for t in joins:
            # every mask that meets S in t
            for rest in rests:
                through[spread[t] | rest] += 1
    return through


def _host_counts(pattern: _Pattern, n: int) -> list[int]:
    """Copies of the pattern in each `_tree(n)` class: its parent's plus those through v."""
    counts = [int(pattern.k == 0)]  # the 0-vertex graph holds one empty copy
    for m in range(1, n + 1):
        rows, (_, parents, masks) = _tree(m - 1)[0], _tree(m)
        level = [0] * len(parents)
        last = -1
        for i in sorted(range(len(parents)), key=parents.__getitem__):
            p = parents[i]
            if p != last:
                through, last = _through(pattern, rows[p]), p
            level[i] = counts[p] + through[masks[i]]
        counts = level
    return counts


def _deck_counts(h: Graph, n: int) -> list[int]:
    """The (h.n - 1)-subsets of each `_tree(n)` class that induce some h - u,
    summed over h's distinct vertex deletions: a subset induces one class."""
    deletions = [induced_subgraph(h, [w for w in range(h.n) if w != u]) for u in range(h.n)]
    distinct = {canonical_key(g): g for g in deletions}.values()
    return [sum(c) for c in zip(*(_host_counts(_Pattern(g), n) for g in distinct))]


def ind_exact(h: Graph, n: int) -> IndResult:
    """Maximum induced density of h over all n-vertex hosts, with witness.

    Every n-vertex host is a child of an (n - 1)-vertex class, so the
    maximum is read off the masks of the classes of `_tree(n - 1)`: a
    child's copies are its parent's (`_host_counts`) plus those through the
    new vertex (`_through`).  No child of a parent holds more than the
    parent's count plus its deck (`_deck_counts`), so parents are scored in
    decreasing order of that bound until it falls below the best count;
    a parent whose bound ties the best is still scored.  The witness is the
    child at the maximum of smallest canonical code, the first such host in
    canonical-code order.
    """
    if h.n > n:
        raise InputError(f"pattern has {h.n} vertices but n = {n}")
    if n > ENUM_LIMIT:
        raise UnsupportedSizeError(f"ind_exact supports n <= {ENUM_LIMIT}, got {n}")
    if h.n <= 1:
        # every host holds C(n, k) copies; the edgeless host has the smallest code
        return IndResult(Fraction(1), Graph.empty(n), "exact")
    if h.n == n:
        # h's class is the one host holding a copy
        return IndResult(Fraction(1), Graph(n, _from_columns(n, _canonical_search(n, h.adj)[0])), "exact")
    pattern = _Pattern(h)
    counts = _host_counts(pattern, n - 1)
    bound = [c + d for c, d in zip(counts, _deck_counts(h, n - 1))]
    tree = _tree(n - 1)[0]
    best, tied = -1, []
    for p in sorted(range(len(tree)), key=bound.__getitem__, reverse=True):
        if bound[p] < best:
            break
        rows = tree[p]
        through = _through(pattern, rows)
        top = counts[p] + max(through)
        if top > best:
            best, tied = top, []
        if top == best:
            tied += [_child(rows, mask) for mask, c in enumerate(through) if counts[p] + c == best]
    cols = min((_canonical_search(n, adj)[0] for adj in tied), key=lambda c: _pack_key(n, c))
    return IndResult(Fraction(best, math.comb(n, h.n)), Graph(n, _from_columns(n, cols)), "exact")


# -- local search ----------------------------------------------------------


def _flip_delta(pattern: _Pattern, adj: list[int], u: int, v: int) -> int:
    """Change in copy count from flipping (u, v); only subsets holding both change."""
    flipped = list(adj)
    flipped[u] ^= 1 << v
    flipped[v] ^= 1 << u
    return _count_matches(pattern, flipped, (u, v)) - _count_matches(pattern, adj, (u, v))


@dataclass
class _SearchState:
    h: Graph
    n: int
    iteration: int
    temperature: float
    rng: random.Random
    current: list[int]
    current_copies: int
    best_adj: tuple[int, ...]
    best_copies: int
    since_improve: int


def _seed_graph(rng: random.Random, n: int) -> list[int]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


def save_checkpoint(path: str | Path, state: _SearchState) -> None:
    total = math.comb(state.n, state.h.n)
    version, internal, gauss = state.rng.getstate()
    doc = {
        "version": CHECKPOINT_VERSION,
        "h_code": to_graph6(state.h),
        "n": state.n,
        "iteration": state.iteration,
        "temperature": float.hex(state.temperature),
        "rng_state": [version, list(internal), None if gauss is None else float.hex(gauss)],
        "current_graph": to_graph6(Graph(state.n, tuple(state.current))),
        "best_graph": to_graph6(Graph(state.n, state.best_adj)),
        "best_density": f"{state.best_copies}/{total}",
        "since_improve": state.since_improve,
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="ascii")


def load_checkpoint(
    path: str | Path, h: Graph, n: int, pattern: _Pattern | None = None
) -> _SearchState:
    """The search state stored at `path`, recounted with h's `pattern`."""
    pattern = pattern or _Pattern(h)
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} is not a JSON object")
    for key in ("version", "iteration", "since_improve", "n"):
        if key in doc and type(doc[key]) is not int:  # JSON true is not the integer 1
            raise CheckpointError(f"checkpoint field {key!r} is not an integer: {doc[key]!r}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    try:
        stored_h = parse_graph6(doc["h_code"])
        current = parse_graph6(doc["current_graph"])
        best = parse_graph6(doc["best_graph"])
        iteration = doc["iteration"]
        temperature = float.fromhex(doc["temperature"])
        since_improve = doc["since_improve"]
        stored_n = doc["n"]
        stored = Fraction(doc["best_density"])
        version, internal, gauss = doc["rng_state"]
        rng = random.Random()
        rng.setstate((version, tuple(internal), None if gauss is None else float.fromhex(gauss)))
    except KeyError as exc:
        raise CheckpointError(f"checkpoint missing field {exc}") from None
    except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
        raise CheckpointError(f"malformed checkpoint field: {exc}") from None
    if stored_h != h or stored_n != n:
        raise CheckpointError("checkpoint was produced for different inputs")
    if current.n != n or best.n != n:
        raise CheckpointError(f"checkpoint graphs do not have n = {n} vertices")
    if iteration < 0 or since_improve < 0 or not temperature >= 0:
        raise CheckpointError("checkpoint has a negative counter or temperature")
    words = rng.getstate()[1]  # setstate keeps the low 32 bits of each word
    if not (words[0] >> 31 or any(words[1:624])):
        # this Mersenne Twister state draws 0 forever: no flip finds a second vertex
        raise CheckpointError("checkpoint rng_state is the all-zero generator state")
    best_copies = _count_matches(pattern, best.adj)
    recount = Fraction(best_copies, math.comb(n, h.n))
    if recount != stored:
        raise CheckpointError(
            f"stored best density {stored} disagrees with recount {recount};"
            " refusing to resume from a stale witness"
        )
    return _SearchState(
        h=h,
        n=n,
        iteration=iteration,
        temperature=temperature,
        rng=rng,
        current=list(current.adj),
        current_copies=_count_matches(pattern, current.adj),
        best_adj=best.adj,
        best_copies=best_copies,
        since_improve=since_improve,
    )


def ind_local_search(
    h: Graph,
    n: int,
    iters: int,
    seed: int,
    checkpoint: str | Path | None = None,
) -> IndResult:
    """Simulated-annealing lower bound on the maximum induced density.

    Deterministic per seed; if `checkpoint` names an existing file the run
    resumes from it bit-exactly.  The checkpoint file is written once, when
    the run ends.
    """
    if h.n > n:
        raise InputError(f"pattern has {h.n} vertices but n = {n}")
    if n > LOCAL_SEARCH_LIMIT:
        raise UnsupportedSizeError(
            f"ind_local_search supports n <= {LOCAL_SEARCH_LIMIT}, got {n}"
        )
    if iters < 0:
        raise InputError(f"iters must be >= 0, got {iters}")
    pattern = _Pattern(h)
    if checkpoint is not None and Path(checkpoint).exists():
        st = load_checkpoint(checkpoint, h, n, pattern)
    else:
        rng = random.Random(seed)
        current = _seed_graph(rng, n)
        copies = _count_matches(pattern, current)
        st = _SearchState(
            h=h,
            n=n,
            iteration=0,
            temperature=T0,
            rng=rng,
            current=current,
            current_copies=copies,
            best_adj=tuple(current),
            best_copies=copies,
            since_improve=0,
        )

    total = math.comb(n, h.n)
    while st.iteration < iters:
        u = st.rng.randrange(n)
        v = st.rng.randrange(n)
        while v == u:
            v = st.rng.randrange(n)
        if u > v:
            u, v = v, u
        delta = _flip_delta(pattern, st.current, u, v)
        accept = delta >= 0
        if not accept:
            # at temperature 0 every downhill move is rejected
            prob = math.exp((delta / total) / st.temperature) if st.temperature > 0 else 0.0
            accept = st.rng.random() < prob
        if accept:
            st.current[u] ^= 1 << v
            st.current[v] ^= 1 << u
            st.current_copies += delta
        if st.current_copies > st.best_copies:
            st.best_copies = st.current_copies
            st.best_adj = tuple(st.current)
            st.since_improve = 0
        else:
            st.since_improve += 1
        if st.since_improve >= RESTART_AFTER:
            st.temperature = T0
            st.current = list(st.best_adj)
            st.current_copies = st.best_copies
            st.since_improve = 0
        else:
            st.temperature *= COOLING
        st.iteration += 1

    if checkpoint is not None:
        save_checkpoint(checkpoint, st)
    if _count_matches(pattern, st.best_adj) != st.best_copies:
        raise AssertionError("incremental copy count drifted; implementation bug")
    return IndResult(Fraction(st.best_copies, total), Graph(n, st.best_adj), "lower_bound")
