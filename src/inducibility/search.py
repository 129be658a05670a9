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

So the levels depend on n alone, and those on 1 to 8 vertices are read
from `classes.zlib` beside this module: the generator's output, stored
once.  The payload's length, CRC-32 and the class count of every level are
checked on the first read, and a level is decoded only when asked for.  The
generator builds level 9, and every level when the file is missing or
fails its check, so a damaged file costs time, never an answer.

The top level is scored from its parents without being built: every
n-vertex host is some (n - 1)-vertex class plus v, so the maximum is read
off every subset of every class of `_tree(n - 1)`, and a class met twice
does not change a maximum.  The copies through v for all 2^(n - 1) masks of
a parent come from the join tables of its (k - 1)-subsets S: the patterns
of v's neighbours in S that complete a copy, which the density module's
pattern builds from h's rooted deck once per labelled S.  An S whose
canonical key is no h - u's has an empty table.  Each S adds one big int
with a byte lane per mask, 1 where the mask meets S in a table entry, so
the counts are the bytes of one sum.  That int depends on the graph on S
alone, which the parent's pair word (its upper triangle packed in one int)
masked to S's pairs names, so the pattern keeps it under that key and a
parent costs one AND, one dict lookup and one add per S.  Only the hosts
at the maximum are labelled, to pick the witness.  So scoring builds
`_tree` up to n - 1, and `_tree(n)` is built only to enumerate the
n-vertex classes.

Two bounds prune the parents.  A copy through v is v plus a (k - 1)-subset
of the parent inducing some h - u, and each such subset makes at most one
copy, so a parent's deck, the number of those subsets, plus its own count
bounds every child.  The deck is `_host_counts` summed over h's distinct
vertex-deleted subgraphs: a subset induces one class, so none is counted
twice.  The second bound averages: a copy in an n-vertex child G misses
n - k of its vertices, so (n - k) X(G) is the sum of X(G - w) over every
vertex w, at most the parent's count plus n - 1 times M, the largest count
over `_tree(n - 1)` (the double counting behind the monotonicity of
ind(h, n), Pippenger and Golumbic 1975).  Parents are scored in decreasing
order of their count.  The averaging bound falls with the count, so the
scan stops at the first parent whose averaging bound is below the best
count found so far; the deck bound does not, so it only skips a parent.
The deck is computed the first time a parent after the first scored one
reaches that test.  A parent whose bound equals the best is still scored,
so every child at the maximum is seen and the witness does not depend on
the pruning.

The local search is simulated annealing over single edge flips with
geometric cooling.  Density is maintained incrementally: flipping (u, v)
changes the count by the copies through both endpoints after the flip
minus those before, each counted by the density module's forced walk.
The loop keeps its state in locals; a `SearchState` record carries it to
and from a versioned JSON checkpoint, from which every run resumes
bit-exactly.  A checkpoint replaces its file whole, never in place, and a
malformed or stale one is rejected rather than silently restarted.
"""

from __future__ import annotations

import json
import math
import os
import random
import struct
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import Iterator

from .density import _count_matches, _Pattern
from .errors import CheckpointError, InputError, InternalCheckError, UnsupportedSizeError
from .graphs import Graph, _canonical_search, _induced_rows, _orbit
from .graphs import _pack_key, parse_graph6, to_graph6
from .mc import randbelow

ENUM_LIMIT = 9

LOCAL_SEARCH_LIMIT = 40

CHECKPOINT_VERSION = 1

T0 = 0.05
COOLING = 0.995
RESTART_AFTER = 100_000

# The classes on 1 to 8 vertices, packed by `_pack` and zlib-compressed.
# Rewrite it from the generator with `PYTHONPATH=src python -m
# inducibility.search`, which prints the length and CRC-32 to pin here.
TABLE = Path(__file__).with_name("classes.zlib")
TABLE_COUNTS = (1, 2, 4, 11, 34, 156, 1044, 12346)  # OEIS A000088
TABLE_LENGTH = 148_069
TABLE_CRC32 = 0x60BA27F0

# one level of the class tree: canonical rows, parent indices and masks
Level = tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[int, ...]]


IndResult = namedtuple("IndResult", "value witness mode")  # mode: "exact" or "lower_bound"


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
    seen: set[int] = set()
    for mask in range(size):
        if mask not in seen:
            seen |= _orbit(mask, images)  # an image table indexes like a permutation
            yield mask


def _grow(n: int, parent_rows: tuple[tuple[int, ...], ...]) -> Level:
    """The classes on n vertices built by canonical augmentation from
    `parent_rows`, the canonical rows of the classes on n - 1 vertices, as
    `_tree(n)` returns them."""
    v = n - 1
    keyed = []
    for p, parent in enumerate(parent_rows):
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
                keyed.append((_pack_key(n, cols), _induced_rows(rows, order), p, mask))
    _, canonical, parents, masks = zip(*sorted(keyed))
    return canonical, parents, masks


def _pack(n: int, level: Level) -> bytes:
    """Level n as the table stores it: the class count (4 bytes, little
    endian), each class's n canonical rows (one byte each), the parent
    indices (little-endian uint16) and the masks (one byte each)."""
    canonical, parents, masks = level
    return (len(parents).to_bytes(4, "little") + bytes(row for rows in canonical for row in rows)
            + struct.pack(f"<{len(parents)}H", *parents) + bytes(masks))


def _generated_payload() -> bytes:
    """Every stored level built by `_grow` alone and packed by `_pack`."""
    level, packed = _tree(0), []
    for n in range(1, len(TABLE_COUNTS) + 1):
        level = _grow(n, level[0])
        packed.append(_pack(n, level))
    return b"".join(packed)


@lru_cache(maxsize=None)
def _stored() -> tuple[bytes, tuple[int, ...]] | None:
    """The table's payload and the offset of each level's rows, or None when
    the file is missing, damaged or not the pinned table."""
    import zlib  # only a command that reads a level needs it

    try:
        payload = zlib.decompress(TABLE.read_bytes())
    except (OSError, zlib.error):
        return None
    if len(payload) != TABLE_LENGTH or zlib.crc32(payload) != TABLE_CRC32:
        return None
    offsets, at = [], 0
    for n, count in enumerate(TABLE_COUNTS, 1):
        if payload[at:at + 4] != count.to_bytes(4, "little"):
            return None
        offsets.append(at + 4)
        at += 4 + count * (n + 3)
    return payload, tuple(offsets)


def _load(n: int) -> Level | None:
    """Level n decoded from the table, or None when it holds no such level."""
    stored = _stored() if n <= len(TABLE_COUNTS) else None
    if stored is None:
        return None
    payload, offsets = stored
    count, at = TABLE_COUNTS[n - 1], offsets[n - 1]
    end = at + count * n
    canonical = tuple(tuple(payload[i:i + n]) for i in range(at, end, n))
    parents = struct.unpack_from(f"<{count}H", payload, end)
    return canonical, parents, tuple(payload[end + 2 * count:end + 3 * count])


@lru_cache(maxsize=None)
def _tree(n: int) -> Level:
    """The classes on n vertices in canonical-code order, as parallel tuples of
    canonical rows, parent indices in `_tree(n - 1)` and the parents' masks:
    read from the table when it holds level n and passes its check, built by
    `_grow` otherwise."""
    if n == 0:
        return ((),), (), ()
    return _load(n) or _grow(n, _tree(n - 1)[0])


def _classes(n: int) -> tuple[Graph, ...]:
    return tuple(Graph(n, rows) for rows in _tree(n)[0])


def enumerate_graphs(n: int):
    """One representative per isomorphism class, in canonical-code order."""
    if n > ENUM_LIMIT:
        raise UnsupportedSizeError(f"enumerate_graphs supports n <= {ENUM_LIMIT}, got {n}")
    if n < 0:
        raise InputError("n must be nonnegative")
    yield from _classes(n)


# one subset S of `_layout`: S, its pair bits, its lane shifts and its outside int
Lanes = tuple[tuple[int, ...], int, tuple[int, ...], int]


@lru_cache(maxsize=None)
def _layout(m: int, j: int) -> tuple[tuple[int, ...], tuple[Lanes, ...]]:
    """How `_through` reads an m-vertex parent: the shift of each vertex u's
    pairs (u, w > u) in the parent's pair word, and per j-subset S of
    range(m): S, its pair bits in that word, the lane shift of the mask of
    range(m) that each pattern t < 2^j on S stands for, and the int with
    byte lane r equal to 1 for each r outside S."""
    offsets = [0] * m
    for u in range(1, m):
        offsets[u] = offsets[u - 1] + m - u
    layout = []
    for subset in combinations(range(m), j):
        bits = sum(1 << offsets[u] + w - u - 1 for u, w in combinations(subset, 2))
        shifts = tuple(8 * sum(1 << u for i, u in enumerate(subset) if (t >> i) & 1) for t in range(1 << j))
        outside = 1
        for u in range(m):
            if u not in subset:
                outside |= outside << (8 << u)
        layout.append((subset, bits, shifts, outside))
    return tuple(offsets), tuple(layout)


def _through(pattern: _Pattern, rows: tuple[int, ...]) -> list[int]:
    """Copies of the pattern through a new vertex joined to the m-vertex
    `rows` by each of the 2^m masks, indexed by mask.

    A copy through the new vertex is it plus one (k - 1)-subset S, and a
    mask makes one through S when it meets S in an entry t of S's join
    table.  `outside << shifts[t]` is 1 in byte lane `mask` exactly when the
    mask meets S in t, so S's sum over its entries holds its copies, and the
    total over the C(m, k - 1) subsets every count, within a byte while
    C(m, k - 1) <= 255.  S's sum depends on the graph on S alone, which the
    parent's pair word ANDed with S's pair bits names: the pattern keeps it
    under that key, per parent size, from the first parent that meets it."""
    m, j = len(rows), pattern.k - 1
    if j < 0:
        return [0] * (1 << m)
    cached = pattern.sums.get(m)
    if cached is None:
        if math.comb(m, j) > 255:
            raise InternalCheckError(f"{math.comb(m, j)} subsets of a {m}-vertex parent overflow a byte lane")
        offsets, layout = _layout(m, j)
        cached = pattern.sums[m] = offsets, [(*entry, {}) for entry in layout]
    offsets, entries = cached
    word = 0
    for u, shift in enumerate(offsets):
        word |= rows[u] >> u + 1 << shift
    total = 0
    for subset, bits, shifts, outside, sums in entries:
        key = word & bits
        try:
            total += sums[key]
        except KeyError:
            table = pattern.joins(_induced_rows(rows, subset))
            sums[key] = added = sum(outside << shifts[t] for t in table)
            total += added
    return list(total.to_bytes(1 << m, "little"))


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


def _deck_counts(pattern: _Pattern, n: int) -> list[int]:
    """The (k - 1)-subsets of each `_tree(n)` class that induce some h - u,
    summed over h's distinct vertex deletions: a subset induces one class."""
    deletions = (Graph(pattern.k - 1, rows)
                 for degrees in pattern.deck for rows, _ in pattern.rooted(degrees).values())
    return [sum(c) for c in zip(*(_host_counts(_Pattern(g), n) for g in deletions))]


def ind_exact(h: Graph, n: int) -> IndResult:
    """Maximum induced density of h over all n-vertex hosts, with witness.

    Every n-vertex host is a child of an (n - 1)-vertex class, so the
    maximum is read off the masks of the classes of `_tree(n - 1)`: a
    child's copies are its parent's (`_host_counts`) plus those through the
    new vertex (`_through`).  Parents are scored in decreasing order of
    their count.  The scan stops at the first whose averaging bound is below
    the best count, and skips one whose deck bound is; the deck is computed
    when the second parent reaches that test, so a scan that stops there
    never computes it.  A parent whose bounds tie the best is still scored.
    The witness is the child at the maximum of smallest canonical code, the
    first such host in canonical-code order.
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
        return IndResult(Fraction(1), Graph(n, _induced_rows(h.adj, _canonical_search(n, h.adj)[1])), "exact")
    pattern = _Pattern(h)
    counts = _host_counts(pattern, n - 1)
    most = max(counts)
    tree = _tree(n - 1)[0]
    best, tied, deck = -1, [], None
    for p in sorted(range(len(tree)), key=counts.__getitem__, reverse=True):
        if (counts[p] + (n - 1) * most) // (n - h.n) < best:
            break
        if best >= 0:
            if deck is None:
                deck = _deck_counts(pattern, n - 1)
            if counts[p] + deck[p] < best:
                continue
        rows = tree[p]
        through = _through(pattern, rows)
        top = counts[p] + max(through)
        if top > best:
            best, tied = top, []
        if top == best:
            tied += [_child(rows, mask) for mask, c in enumerate(through) if counts[p] + c == best]
    _, adj, order = min((_pack_key(n, cols), adj, order)
                        for adj in tied for cols, order, _, _ in [_canonical_search(n, adj)])
    return IndResult(Fraction(best, math.comb(n, h.n)), Graph(n, _induced_rows(adj, order)), "exact")


# -- local search ----------------------------------------------------------


def _flip_delta(pattern: _Pattern, adj: list[int], u: int, v: int) -> int:
    """Change in copy count from flipping (u, v); only subsets holding both change."""
    flipped = list(adj)
    flipped[u] ^= 1 << v
    flipped[v] ^= 1 << u
    return _count_matches(pattern, flipped, (u, v)) - _count_matches(pattern, adj, (u, v))


# the annealing's state between iterations, as a checkpoint stores it; rows are tuples
SearchState = namedtuple(
    "SearchState", "iteration temperature rng current best best_copies since_improve"
)


def _seed_graph(rng: random.Random, n: int) -> tuple[int, ...]:
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.getrandbits(1):
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def save_checkpoint(path: str | Path, h: Graph, state: SearchState) -> None:
    """Write the search `state` for pattern `h` to `path`.

    The document goes to a temporary file beside `path`, which then
    replaces it whole, so a process interrupted mid-write leaves the
    previous checkpoint intact.  Nothing is synced to disk: this does not
    guard against power loss.
    """
    n = len(state.current)
    version, internal, gauss = state.rng.getstate()
    doc = {
        "version": CHECKPOINT_VERSION,
        "h_code": to_graph6(h),
        "n": n,
        "iteration": state.iteration,
        "temperature": float.hex(state.temperature),
        "rng_state": [version, list(internal), None if gauss is None else float.hex(gauss)],
        "current_graph": to_graph6(Graph(n, state.current)),
        "best_graph": to_graph6(Graph(n, state.best)),
        "best_density": f"{state.best_copies}/{math.comb(n, h.n)}",
        "since_improve": state.since_improve,
    }
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="ascii")
        os.replace(tmp, path)
    except OSError as exc:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None


def load_checkpoint(
    path: str | Path, h: Graph, n: int, pattern: _Pattern | None = None
) -> SearchState:
    """The search state stored at `path`, its best host recounted with h's `pattern`."""
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
    return SearchState(iteration, temperature, rng, current.adj, best.adj, best_copies,
                       since_improve)


def ind_local_search(
    h: Graph,
    n: int,
    iters: int,
    seed: int,
    checkpoint: str | Path | None = None,
) -> IndResult:
    """Simulated-annealing lower bound on the maximum induced density.

    Deterministic per seed, which must be >= 0: `random.Random` seeds from
    |seed|, so -s would repeat the run of s.  If `checkpoint` names an
    existing file the run resumes from it bit-exactly.  The checkpoint file is written before the
    first iteration, so an unwritable path fails before any work, and again
    when the run ends.  Below two vertices no pair can flip, so the seed
    host, the only host, is returned whatever `iters` is.
    """
    if h.n > n:
        raise InputError(f"pattern has {h.n} vertices but n = {n}")
    if n > LOCAL_SEARCH_LIMIT:
        raise UnsupportedSizeError(
            f"ind_local_search supports n <= {LOCAL_SEARCH_LIMIT}, got {n}"
        )
    if iters < 0:
        raise InputError(f"iters must be >= 0, got {iters}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    pattern = _Pattern(h)
    if checkpoint is not None and Path(checkpoint).exists():
        state = load_checkpoint(checkpoint, h, n, pattern)
        copies = _count_matches(pattern, state.current)
    else:
        rng = random.Random(seed)
        rows = _seed_graph(rng, n)
        copies = _count_matches(pattern, rows)
        state = SearchState(0, T0, rng, rows, rows, copies, 0)
    if checkpoint is not None:
        save_checkpoint(checkpoint, h, state)
    iteration, temperature, rng, current, best, best_copies, since_improve = state
    current = list(current)

    total = math.comb(n, h.n)
    while iteration < iters and n >= 2:
        u = randbelow(rng, n)
        v = randbelow(rng, n)
        while v == u:
            v = randbelow(rng, n)
        if u > v:
            u, v = v, u
        delta = _flip_delta(pattern, current, u, v)
        accept = delta >= 0
        if not accept:
            # at temperature 0 every downhill move is rejected
            prob = math.exp((delta / total) / temperature) if temperature > 0 else 0.0
            accept = rng.random() < prob
        if accept:
            current[u] ^= 1 << v
            current[v] ^= 1 << u
            copies += delta
        if copies > best_copies:
            best_copies = copies
            best = tuple(current)
            since_improve = 0
        else:
            since_improve += 1
        if since_improve >= RESTART_AFTER:
            temperature = T0
            current = list(best)
            copies = best_copies
            since_improve = 0
        else:
            temperature *= COOLING
        iteration += 1

    if checkpoint is not None:
        save_checkpoint(checkpoint, h, SearchState(iteration, temperature, rng, tuple(current),
                                                   best, best_copies, since_improve))
    if _count_matches(pattern, best) != best_copies:
        raise InternalCheckError("incremental copy count drifted; implementation bug")
    return IndResult(Fraction(best_copies, total), Graph(n, best), "lower_bound")


if __name__ == "__main__":
    import zlib

    payload = _generated_payload()
    TABLE.write_bytes(zlib.compress(payload, 9))
    print(f"{TABLE.name}: payload {len(payload)} bytes, crc32 {zlib.crc32(payload):#010x}")
