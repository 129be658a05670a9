import gc
import hashlib
import json
import math
import random
import zlib
from fractions import Fraction

import pytest

from inducibility import search
from inducibility.density import _count_matches, _Pattern, count_induced, induced_density
from inducibility.errors import CheckpointError, InputError, InternalCheckError, UnsupportedSizeError
from inducibility.graphs import (
    Graph,
    _canonical_search,
    _encode_order,
    _induced_rows,
    canonical_key,
    complement,
    induced_subgraph,
    is_isomorphic,
    parse_graph6,
    to_graph6,
)
from inducibility.search import (
    _child,
    _classes,
    _flip_delta,
    _host_counts,
    _through,
    enumerate_graphs,
    ind_exact,
    ind_local_search,
    load_checkpoint,
)
from inducibility.verify import _aut_floor_holds
from oracles import (
    BIPARTITE,
    all_labeled_graphs,
    brute_census,
    brute_classes,
    brute_count_induced,
    brute_form,
    brute_ind_over_labeled,
    complete_bipartite_ind,
    relabel,
)


def _form(g):
    return brute_form(g.n, frozenset(g.edges()))


@pytest.fixture(scope="module")
def brute_max(classes_by_n):
    """brute_max(h, n): h's maximum copy count over the classes on n vertices
    by brute census, the indices of the classes reaching it, and the indices
    of the classes on n - 1 vertices that are one of those less a vertex."""
    census, index = {}, {}

    def at_max(h, n):
        if (n, h.n) not in census:
            census[n, h.n] = [brute_census(g, h.n) for g in classes_by_n[n]]
            index[n - 1] = {_form(g): i for i, g in enumerate(classes_by_n[n - 1])}
        copies = [c[_form(h)] for c in census[n, h.n]]
        top = max(copies)
        best = [i for i, c in enumerate(copies) if c == top]
        parents = set()
        for i in best:
            for v in range(n):
                edges = [(a - (a > v), b - (b > v)) for a, b in classes_by_n[n][i].edges() if v not in (a, b)]
                parents.add(index[n - 1][brute_form(n - 1, frozenset(edges))])
        return top, best, parents

    return at_max


def _brute_mismatches(classes_by_n, brute_max, monkeypatch):
    """Each (pattern, n) with 2 <= k <= 5 and k <= n <= 7 where `ind_exact`
    differs from the brute-force maximum over every class, its witness from
    the first class in canonical-code order that reaches it, or a parent
    with a child at the maximum goes unscored."""
    through, scored = search._through, []
    monkeypatch.setattr(search, "_through", lambda p, rows: scored.append(rows) or through(p, rows))
    index = {g.adj: i for m in range(1, 7) for i, g in enumerate(classes_by_n[m])}
    for k in range(2, 6):
        for h in classes_by_n[k]:
            for n in range(k, 8):
                copies, best, parents = brute_max(h, n)
                scored.clear()
                res = ind_exact(h, n)
                missed = parents - {index[rows] for rows in scored if len(rows) == n - 1}
                if (
                    res.value != Fraction(copies, math.comb(n, k))
                    or res.witness != classes_by_n[n][best[0]]
                    or (n > k and missed)
                ):
                    yield to_graph6(h), n


class TestEnumerate:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
        for n, count in expected.items():
            assert len(list(enumerate_graphs(n))) == count

    def test_unique_and_deterministic(self):
        batch1 = list(enumerate_graphs(5))
        batch2 = list(enumerate_graphs(5))
        assert batch1 == batch2
        keys = [canonical_key(g) for g in batch1]
        assert len(set(keys)) == len(keys)
        assert keys == sorted(keys)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            list(enumerate_graphs(10))
        with pytest.raises(InputError, match="n must be nonnegative"):
            list(enumerate_graphs(-1))

    def test_limits_checked_on_call(self):
        """The call itself refuses, before any `next`."""
        with pytest.raises(UnsupportedSizeError):
            enumerate_graphs(10)
        with pytest.raises(InputError, match="n must be nonnegative"):
            enumerate_graphs(-1)

    def test_matches_unpruned_enumeration(self):
        # the same representatives in the same order, not only as many
        for n in range(8):
            forms = tuple(
                Graph(n, _induced_rows(g.adj, _canonical_search(n, g.adj)[1]))
                for g in brute_classes(n)
            )
            assert _classes(n) == forms

    @pytest.mark.slow
    def test_representatives_are_canonical_forms(self):
        for n in range(9):
            for g in _classes(n):
                assert _canonical_search(n, g.adj)[0] == _encode_order(n, g.adj, range(n))

    @pytest.mark.slow
    def test_count_n8(self):
        classes = list(enumerate_graphs(8))
        assert len(classes) == 12346
        keys = [canonical_key(g) for g in classes]
        assert len(set(keys)) == len(keys) and keys == sorted(keys)
        # golden digest of the keys for n <= 8 in order: it pins the classes
        # and their order whichever labelling represents each class
        digest = hashlib.sha256()
        for n in range(8):
            for g in enumerate_graphs(n):
                digest.update(canonical_key(g))
        for key in keys:
            digest.update(key)
        assert digest.hexdigest() == (
            "a46b9b1d4818825e20d45d0ad0acca4ba80d95117c91a43a380ab9ed61b6a95b"
        )
        # the stored class table, pinned, is the generator's output byte for byte
        table = search.TABLE.read_bytes()
        assert hashlib.sha256(table).hexdigest() == (
            "fe7f45ca7270d290ebffecade0170f3c6f7c6012fac78421952b12a9cfa9210c"
        )
        assert search._generated_payload() == zlib.decompress(table)
        # golden digest of every representative and its canonical key, in
        # order: a change to the labelling changes the keys or the order
        digest = hashlib.sha256()
        for g, key in zip(classes, keys):
            digest.update(to_graph6(g).encode())
            digest.update(key)
        assert digest.hexdigest() == (
            "7753c98de8ab23fc97fe6972e11200c3c4ee782ecbe2551705ed53cf19c4d42a"
        )
        # golden digest of the copy counts of P4 and the bull in every host,
        # recorded with one unforced count per host
        bull = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        counts = [_host_counts([_Pattern(h)], 8) for h in (Graph.path(4), bull)]
        assert hashlib.sha256(repr(counts).encode()).hexdigest() == (
            "d7ca207b7d9e54c9b282dd2a1ba224a0873171f419dab21e283ede57629cd95b"
        )
        star = hashlib.sha256(canonical_key(Graph.star(59))).hexdigest()
        assert star == (
            "b430541fe8244ff3fbf2309dc4676e9e3e8253b7c3c5cde2387f0522f8001148"
        )

    @pytest.mark.slow
    def test_aut_floor_from_taming_n8(self):
        # verify's aut_floor_from_taming covers n <= 7; the same predicate at n = 8
        bad = [to_graph6(h) for h in enumerate_graphs(8) if not _aut_floor_holds(h)]
        assert not bad


@pytest.fixture
def table(monkeypatch):
    """`table(path)` points the class-table loader at `path` and clears the
    level caches, which are cleared again after the test."""
    def use(path):
        monkeypatch.setattr(search, "TABLE", path)
        search._stored.cache_clear()
        search._tree.cache_clear()
    yield use
    search._stored.cache_clear()
    search._tree.cache_clear()


def _bad_table(kind, path, monkeypatch):
    """Write at `path` a class table that the loader must reject."""
    good = search.TABLE.read_bytes()
    if kind == "flipped file byte":
        path.write_bytes(good[:1000] + bytes([good[1000] ^ 1]) + good[1001:])
    elif kind == "flipped payload byte":
        # a row byte of level 7, recompressed: only the CRC-32 catches it
        payload = bytearray(zlib.decompress(good))
        payload[sum(4 + c * (n + 3) for n, c in enumerate(search.TABLE_COUNTS[:6], 1)) + 104] ^= 1
        path.write_bytes(zlib.compress(payload))
    elif kind == "truncated":
        path.write_bytes(good[:len(good) // 2])
    elif kind == "wrong counts":
        # well formed, with the length and CRC-32 pinned for it, but level 4 lacks its last class
        levels = [search._tree(n) for n in range(1, len(search.TABLE_COUNTS) + 1)]
        levels[3] = tuple(part[:-1] for part in levels[3])
        payload = b"".join(search._pack(n, level) for n, level in enumerate(levels, 1))
        path.write_bytes(zlib.compress(payload))
        monkeypatch.setattr(search, "TABLE_LENGTH", len(payload))
        monkeypatch.setattr(search, "TABLE_CRC32", zlib.crc32(payload))
    return path


class TestClassTable:
    CASES = ((Graph.path(4), 8), (Graph.cycle(5), 7), (parse_graph6("Dlo"), 6))

    @pytest.mark.parametrize("kind", ["flipped file byte", "flipped payload byte", "truncated",
                                      "missing", "wrong counts"])
    def test_bad_table_changes_no_answer(self, kind, table, tmp_path, monkeypatch):
        answers = [ind_exact(h, n) for h, n in self.CASES]
        table(_bad_table(kind, tmp_path / "classes.zlib", monkeypatch))
        assert search._stored() is None
        level = search._tree(0)
        for n in range(1, 8):
            level = search._grow(n, level[0])
            assert search._tree(n) == level, n
        assert [ind_exact(h, n) for h, n in self.CASES] == answers

    def test_levels_come_from_the_table(self, table, monkeypatch):
        table(search.TABLE)

        def generator_called(*args):
            raise AssertionError("a level was built, not read from the table")

        monkeypatch.setattr(search, "_augmentations", generator_called)
        assert len(search._tree(8)[0]) == 12346


class TestIndExact:
    def test_values_and_witnesses_are_pinned(self, exact_table):
        """One line per pattern class with 2 <= k <= 5 and host size k <= n <= 8
        (229 entries), hashed; recorded before this pin was added."""
        digest = hashlib.sha256()
        for (key, n), r in exact_table.items():
            h = exact_table.patterns[key]
            line = f"{to_graph6(h)} {n} {r.value} {to_graph6(r.witness)}\n"
            digest.update(line.encode())
        assert digest.hexdigest() == (
            "6b21d617daf1b5b18631ab6ed4d3e0de87527edc27da3c7b611d7c7a7f426589"
        )

    def test_tree_counts_match_host_counts(self, classes_by_n):
        """A host's copies from its parent's plus those through the new
        vertex equal one unforced count of the host, below k included."""
        for k in range(5):
            for h in classes_by_n[k]:
                pattern, unforced = _Pattern(h), _Pattern(h)
                for n in range(8):
                    expected = [_count_matches(unforced, g.adj) for g in classes_by_n[n]]
                    assert _host_counts([pattern], n) == expected, (to_graph6(h), n)

    def test_through_matches_forced_walk(self, classes_by_n):
        """The join tables count, for every mask, the copies through a new
        vertex that one forced walk of the child counts."""
        for k in range(6):
            for h in classes_by_n[k]:
                pattern = _Pattern(h)
                for m in range(6):
                    for g in classes_by_n[m]:
                        through = list(_through(pattern, g.adj).to_bytes(1 << m, "little"))
                        assert through == [
                            _count_matches(pattern, _child(g.adj, mask), (m,))
                            for mask in range(1 << m)
                        ], (to_graph6(h), to_graph6(g))

    def test_join_filter_keeps_every_join(self, classes_by_n):
        """The join table of each labelled (k - 1)-vertex S, built from h's
        rooted deck, equals the matcher's table read off whole k-vertex keys:
        through S alone, a mask's copies are its one table entry.  Every class
        with k <= 5 meets every labelled S, a seeded sample of six-vertex
        classes every labelled 5-vertex S, and Gi\\sVg a seeded sample."""

        def agree(h, samples):
            pattern = _Pattern(h)
            for s in samples:
                assert list(_through(pattern, s.adj).to_bytes(1 << s.n, "little")) == [
                    _count_matches(pattern, _child(s.adj, t), range(h.n))
                    for t in range(1 << (h.n - 1))
                ], (to_graph6(h), to_graph6(s))

        for k in range(1, 6):
            for h in classes_by_n[k]:
                agree(h, all_labeled_graphs(k - 1))
        rng = random.Random(16)
        for h in rng.sample(classes_by_n[6], 7):
            agree(h, all_labeled_graphs(5))
        h = parse_graph6("Gi\\sVg")
        # each h - u under random labellings, whose tables are not empty, and random S
        deck = [induced_subgraph(h, [w for w in range(8) if w != u]) for u in range(8)]
        agree(h, [relabel(g, rng.sample(range(7), 7)) for g in deck for _ in range(4)]
              + [Graph.gnp(rng, 7, 0.5) for _ in range(32)])

    def test_through_at_scored_parent_sizes(self):
        """The pair word and byte lanes at the parent sizes that `--n 7`,
        `--n 8` and `--n 9` score: a seeded sample of the classes on 6, 7
        and 8 vertices, against one forced walk of each child."""
        rng = random.Random(28)
        parents = [rows for m in (6, 7, 8) for rows in rng.sample(search._tree(m)[0], 8)]
        bull = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        for h in (Graph.path(4), parse_graph6("Cs"), Graph.cycle(5), bull, Graph.path(6)):
            pattern = _Pattern(h)
            for rows in parents:
                assert list(_through(pattern, rows).to_bytes(1 << len(rows), "little")) == [
                    _count_matches(pattern, _child(rows, mask), (len(rows),))
                    for mask in range(1 << len(rows))
                ], (to_graph6(h), rows)

    def test_through_sums_belong_to_their_pattern(self):
        """P4, C4 and P4 again over the same parents, each pattern dropped
        and collected before the next is built, so that a new pattern often
        takes a dropped one's id: every result is the forced walk's."""
        rng = random.Random(29)
        parents = [rows for m in (4, 6, 7) for rows in rng.sample(search._tree(m)[0], 2)]
        p4, c4 = Graph.path(4), Graph.cycle(4)
        expected = {
            (h, rows): [_count_matches(_Pattern(h), _child(rows, mask), (len(rows),))
                        for mask in range(1 << len(rows))]
            for h in (p4, c4) for rows in parents
        }
        gc.collect()  # a pattern holds no reference cycle, so `del` alone frees it
        for rows in parents:
            for h in (p4, c4, p4):
                pattern = _Pattern(h)
                assert list(_through(pattern, rows).to_bytes(1 << len(rows), "little")) == expected[h, rows], (
                    to_graph6(h), rows)
                del pattern
                gc.collect()

    def test_through_refuses_a_lane_overflow(self, within):
        """C(11, 5) = 462 subsets could wrap a byte lane: refused before any
        sum or join table is built."""
        pattern = _Pattern(Graph.path(6))
        rows = Graph.gnp(random.Random(30), 11, 0.5).adj
        with within(5), pytest.raises(InternalCheckError, match="462 subsets"):
            _through(pattern, rows)
        assert pattern.sums == {} and not pattern.tables

    def test_bounds_cover_every_child(self):
        """For P4, C5, the bull, the paw and K1,3, every parent on at most
        7 vertices bounds the copies in each child, its count plus the most
        copies through the new vertex, by its deck bound and by its
        averaging bound, each on its own."""
        bull = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)])
        paw = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        for h in (Graph.path(4), Graph.cycle(5), bull, paw, Graph.star(3)):
            pattern = _Pattern(h)
            for n in range(h.n + 1, 9):
                counts = _host_counts([pattern], n - 1)
                deck, most = search._deck_counts(pattern, n - 1), max(counts)
                for rows, count, d in zip(search._tree(n - 1)[0], counts, deck):
                    child = count + max(_through(pattern, rows).to_bytes(1 << len(rows), "little"))
                    assert count + d >= child, ("deck", to_graph6(h), n, rows)
                    assert (count + (n - 1) * most) // (n - h.n) >= child, (
                        "averaging", to_graph6(h), n, rows)

    def test_host_counts_of_a_deck_add_up(self, classes_by_n):
        """One pass over the distinct deletions of every class on 2 to 5
        vertices counts, at every n <= 7, the sum of one pass per deletion,
        and so does `_deck_counts`: the per-deletion sum is the oracle."""
        for k in range(2, 6):
            for h in classes_by_n[k]:
                deletions = {canonical_key(g): g for g in (
                    induced_subgraph(h, [w for w in range(k) if w != u]) for u in range(k))}
                patterns = [_Pattern(g) for g in deletions.values()]
                for n in range(8):
                    oracle = [sum(c) for c in zip(*(_host_counts([_Pattern(g)], n)
                                                    for g in deletions.values()))]
                    assert _host_counts(patterns, n) == oracle, (to_graph6(h), n)
                    assert search._deck_counts(_Pattern(h), n) == oracle, (to_graph6(h), n)

    def test_c4_at_8_computes_no_deck(self, exact_table, monkeypatch):
        """The averaging bound stops C4's scan at n = 8 after its first
        parent, before any parent reaches the deck bound."""

        def deck(pattern, n):
            raise AssertionError("the deck was computed")

        monkeypatch.setattr(search, "_deck_counts", deck)
        c4 = Graph.cycle(4)
        assert ind_exact(c4, 8) == exact_table[canonical_key(c4), 8]

    def test_census_matches_brute_count(self, classes_by_n):
        for k in range(5):
            for h in classes_by_n[k]:
                for g in classes_by_n[5]:
                    assert brute_census(g, k)[_form(h)] == brute_count_induced(h, g)

    def test_matches_brute_force_over_classes(self, classes_by_n, brute_max, monkeypatch):
        """The maximum over every class by the brute-force count, the first
        class in canonical-code order that reaches it as witness, and every
        parent of a host at the maximum scored."""
        assert list(_brute_mismatches(classes_by_n, brute_max, monkeypatch)) == []

    def test_deck_one_too_small_is_caught(self, classes_by_n, brute_max, monkeypatch):
        """A bound one too small skips a parent whose bound is tight."""
        deck = search._deck_counts
        monkeypatch.setattr(search, "_deck_counts", lambda h, n: [d - (d > 0) for d in deck(h, n)])
        assert next(_brute_mismatches(classes_by_n, brute_max, monkeypatch), None)

    def test_pruning_tied_parents_is_caught(self, classes_by_n, brute_max, monkeypatch):
        """Skipping a parent whose deck bound equals the best, not only one
        below it, skips a parent with a child at the maximum; a deck one
        smaller on every parent is the same scan."""
        deck = search._deck_counts
        monkeypatch.setattr(search, "_deck_counts", lambda h, n: [d - 1 for d in deck(h, n)])
        assert next(_brute_mismatches(classes_by_n, brute_max, monkeypatch), None)

    def test_monotone_in_n(self, exact_table):
        """ind(h, n) <= ind(h, n - 1) for every entry of the n <= 8 table."""
        assert exact_table.failing("monotone") == []

    def test_complete_bipartite_closed_form(self, exact_table):
        """K_{s,t} and its complement reach Brown and Sidorenko's value at
        every n <= 8."""
        assert exact_table.failing("brown-sidorenko") == []

    def test_complement_symmetry_n8(self, exact_table):
        """A host's complement holds the complement's copies; the table
        checks it at every n <= 8, n = 8 included."""
        assert exact_table.failing("complement") == []

    def test_witness_density_matches_value(self, exact_table):
        """Every witness in the table holds value * C(n, k) copies, counted
        by the brute-force oracle."""
        assert exact_table.failing("brute recount") == []

    def test_never_exceeds_one_and_universal_witness(self, exact_table):
        for (key, n), res in exact_table.items():
            assert res.value <= 1
            if res.value == 1:
                # every k-subset of the witness induces the pattern
                h = exact_table.patterns[key]
                counted = induced_density(h, res.witness)
                assert counted.copies == counted.total, (to_graph6(h), n)

    @pytest.mark.slow
    def test_complete_bipartite_closed_form_n9(self):
        for s, t in BIPARTITE:
            h, want = Graph.complete_bipartite(s, t), complete_bipartite_ind(s, t, 9)
            assert ind_exact(h, 9).value == want == ind_exact(complement(h), 9).value, (s, t)

    @pytest.mark.slow
    def test_n9(self):
        # C5 (DUW) and P4 recorded when every 9-vertex class was built and
        # counted; K1,3 (Cs) and the house (Dlo) when every parent was scored
        for h, value, witness in (
            (Graph.cycle(5), Fraction(8, 63), "H?~E@ku"),
            (Graph.path(4), Fraction(8, 21), "H?~E@ku"),
            (parse_graph6("Cs"), Fraction(5, 9), "H???F~}"),
            (parse_graph6("Dlo"), Fraction(1, 3), "H`Bm|px"),
        ):
            res = ind_exact(h, 9)
            assert res.value == value and to_graph6(res.witness) == witness, to_graph6(h)

    def test_empty_pattern(self):
        for n in range(4):
            res = ind_exact(Graph.empty(0), n)
            assert res.value == 1 and res.witness == Graph.empty(n)

    def test_p3_at_4(self, p3, exact_table):
        res = exact_table[canonical_key(p3), 4]
        assert res.value == 1
        assert is_isomorphic(res.witness, Graph.cycle(4))
        assert res.mode == "exact"

    def test_k3_at_5(self, exact_table):
        res = exact_table[canonical_key(Graph.complete(3)), 5]
        assert res.value == 1 and is_isomorphic(res.witness, Graph.complete(5))

    def test_p3_at_5(self, p3, exact_table):
        assert exact_table[canonical_key(p3), 5].value == Fraction(9, 10)

    def test_matches_labeled_brute_force(self, exact_table):
        rng = random.Random(41)
        for _ in range(6):
            k = rng.randint(2, 3)
            n = rng.randint(k, 5)
            h = Graph.from_edges(
                k,
                [
                    (i, j)
                    for i in range(k)
                    for j in range(i + 1, k)
                    if rng.random() < 0.5
                ],
            )
            assert exact_table[canonical_key(h), n].value == brute_ind_over_labeled(h, n)

    def test_input_errors(self, p3):
        with pytest.raises(InputError):
            ind_exact(Graph.complete(5), 4)
        with pytest.raises(UnsupportedSizeError):
            ind_exact(p3, 10)


class TestLocalSearch:
    def test_reaches_exact_optimum(self, p3):
        res = ind_local_search(p3, 4, 10_000, seed=3)
        assert res.value == 1 and res.mode == "lower_bound"

    def test_size_errors(self, p4):
        with pytest.raises(InputError, match="pattern has 4 vertices but n = 3"):
            ind_local_search(p4, 3, 10, seed=1)
        with pytest.raises(UnsupportedSizeError, match="supports n <= 40, got 41"):
            ind_local_search(p4, 41, 10, seed=1)

    def test_zero_iterations_returns_seed_graph(self, p3):
        res = ind_local_search(p3, 6, 0, seed=7)
        assert res.value == induced_density(p3, res.witness).density

    def test_never_exceeds_exact_with_equality_report(self, classes_by_n, exact_table):
        hits = total = 0
        for h in classes_by_n[3]:
            exact = exact_table[canonical_key(h), 6].value
            found = ind_local_search(h, 6, 1500, seed=1).value
            assert found <= exact
            total += 1
            hits += found == exact
        print(f"local search matched the exact optimum in {hits}/{total} cases")

    def test_seed_determinism(self, p4):
        a = ind_local_search(p4, 7, 500, seed=9)
        b = ind_local_search(p4, 7, 500, seed=9)
        assert a == b

    def test_checkpoint_resume_bit_exact(self, p3, tmp_path):
        cp = tmp_path / "run.json"
        full = ind_local_search(p3, 6, 400, seed=11)
        ind_local_search(p3, 6, 200, seed=11, checkpoint=cp)
        resumed = ind_local_search(p3, 6, 400, seed=11, checkpoint=cp)
        assert resumed.value == full.value
        assert resumed.witness == full.witness

    def test_checkpoint_bytes_pinned(self, tmp_path):
        """A fresh run and its resume write the same checkpoint bytes as ever."""
        cp = tmp_path / "run.json"
        ind_local_search(Graph.path(4), 12, 300, 5, checkpoint=cp)
        assert hashlib.sha256(cp.read_bytes()).hexdigest() == (
            "b4331d46971ff95b4cba38b217f55e2cc001a5821bf182774f8e39e6195a46c3")
        ind_local_search(Graph.path(4), 12, 600, 5, checkpoint=cp)
        assert hashlib.sha256(cp.read_bytes()).hexdigest() == (
            "4d02d763599d15f213551ebaecd4d5b6b53255a62cce45c8bf14e5ebdd33ac47")

    def test_negative_seed_rejected(self, p3, tmp_path):
        # random.Random(-11) is random.Random(11): -11 would repeat seed 11's run
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=11, checkpoint=cp)
        saved = cp.read_bytes()
        for checkpoint in (None, cp):
            with pytest.raises(InputError, match="seed must be >= 0, got -11"):
                ind_local_search(p3, 6, 100, seed=-11, checkpoint=checkpoint)
        assert cp.read_bytes() == saved

    def test_interrupted_write_keeps_the_old_checkpoint(self, p3, tmp_path, monkeypatch):
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=1, checkpoint=cp)
        saved = cp.read_bytes()

        def replace(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(search.os, "replace", replace)
        with pytest.raises(CheckpointError, match="cannot write checkpoint.*interrupted"):
            ind_local_search(p3, 6, 100, seed=1, checkpoint=cp)
        assert cp.read_bytes() == saved
        assert load_checkpoint(cp, p3, 6).iteration == 50
        assert [f.name for f in tmp_path.iterdir()] == ["run.json"]

    def test_checkpoint_mismatch_rejected(self, p3, p4, tmp_path):
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=1, checkpoint=cp)
        with pytest.raises(CheckpointError):
            ind_local_search(p4, 6, 100, seed=1, checkpoint=cp)

    def test_corrupt_checkpoint_rejected(self, p3, tmp_path):
        cp = tmp_path / "run.json"
        cp.write_text("{not valid json")
        with pytest.raises(CheckpointError):
            ind_local_search(p3, 6, 100, seed=1, checkpoint=cp)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(lambda doc: {**doc, "best_density": "abc"}, "malformed checkpoint field",
                         id="density-abc"),
            pytest.param(lambda doc: {**doc, "best_density": "1/0"}, "malformed checkpoint field",
                         id="density-1/0"),
            pytest.param(lambda doc: {**doc, "iteration": "x"}, "'iteration' is not an integer",
                         id="iteration-x"),
            pytest.param(lambda doc: {**doc, "rng_state": [3, [0] * 10, None]},
                         "malformed checkpoint field", id="rng-state-size"),
            pytest.param(lambda doc: [doc], "is not a JSON object", id="top-level-list"),
            pytest.param(lambda doc: {**doc, "rng_state": [3, [0] * 625, None]},
                         "all-zero generator state", id="rng-state-zero"),
            pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "best_graph"},
                         "missing field 'best_graph'", id="missing-field"),
            pytest.param(lambda doc: {**doc, "current_graph": to_graph6(Graph.empty(5))},
                         "do not have n = 6 vertices", id="graph-not-on-n"),
        ],
    )
    def test_malformed_checkpoint_rejected(self, p3, tmp_path, corrupt, message):
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=1, checkpoint=cp)
        cp.write_text(json.dumps(corrupt(json.loads(cp.read_text()))))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(cp, p3, 6)

    def test_resume_at_temperature_zero(self, p3, tmp_path):
        """Temperature 0 rejects every downhill move instead of dividing by it."""
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=1, checkpoint=cp)
        doc = json.loads(cp.read_text())
        doc["temperature"] = float.hex(0.0)
        cp.write_text(json.dumps(doc))
        res = ind_local_search(p3, 6, 300, seed=1, checkpoint=cp)
        assert res.value == induced_density(p3, res.witness).density
        assert json.loads(cp.read_text())["temperature"] == float.hex(0.0)

    def test_count_drift_is_an_internal_error(self, monkeypatch, p3):
        monkeypatch.setattr(search, "_flip_delta", lambda pattern, adj, u, v: 1)
        with pytest.raises(InternalCheckError, match="drifted"):
            ind_local_search(p3, 6, 10, seed=1)

    def test_stale_density_rejected(self, p3, tmp_path):
        cp = tmp_path / "run.json"
        ind_local_search(p3, 6, 50, seed=1, checkpoint=cp)
        doc = json.loads(cp.read_text())
        num, den = doc["best_density"].split("/")
        doc["best_density"] = f"{int(num) + 1}/{den}"
        cp.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="refusing to resume"):
            ind_local_search(p3, 6, 100, seed=1, checkpoint=cp)


class TestFlipDelta:
    def test_matches_recount(self, classes_by_n):
        """The forced walk over subsets holding both endpoints agrees with
        unforced recounts before and after every possible flip."""
        rng = random.Random(43)
        patterns = [h for k in range(1, 5) for h in classes_by_n[k]] + [Graph.cycle(5)]
        for n in (5, 7, 9):
            adj = list(
                Graph.from_edges(
                    n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
                ).adj
            )
            for h in patterns:
                pattern = _Pattern(h)
                before = count_induced(h, Graph(n, tuple(adj)))
                for u in range(n):
                    for v in range(u + 1, n):
                        flipped = list(adj)
                        flipped[u] ^= 1 << v
                        flipped[v] ^= 1 << u
                        after = count_induced(h, Graph(n, tuple(flipped)))
                        assert _flip_delta(pattern, adj, u, v) == after - before, (h, n, u, v)
