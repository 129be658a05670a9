import hashlib
import math
import pickle
import random
from itertools import combinations, permutations

import pytest

from inducibility.errors import Graph6Error, InputError
from inducibility.graphs import (
    DegreeProfile,
    Graph,
    _canonical_search,
    _encode_order,
    _induced_rows,
    _orbit,
    _refine,
    automorphism_count,
    canonical_code,
    canonical_key,
    complement,
    degree_profile,
    disjoint_union,
    induced_subgraph,
    is_isomorphic,
    non_isolated_core,
    parse_graph6,
    to_graph6,
    with_isolated,
)
from inducibility.verify import _symmetric_hosts
from oracles import (
    all_labeled_graphs,
    brute_automorphisms,
    brute_isomorphic,
    edge_set,
    ref_decode_graph6,
    relabel,
)


class TestGraph6:
    def test_named_decodings(self):
        assert parse_graph6("Bw") == Graph.complete(3)
        assert parse_graph6("A?") == Graph.empty(2)
        assert parse_graph6("Bg") == Graph.from_edges(3, [(0, 1), (1, 2)])
        assert parse_graph6(">>graph6<<Bw") == Graph.complete(3)

    def test_named_encodings(self):
        assert to_graph6(Graph.complete(3)) == "Bw"
        assert to_graph6(Graph(1, (0,))) == "@"

    def test_agrees_with_reference_decoder(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(0, 40)
            g = Graph.gnp(rng, n, rng.uniform(0.1, 0.9))
            line = to_graph6(g)
            n_ref, edges_ref = ref_decode_graph6(line)
            assert n_ref == g.n
            assert edges_ref == edge_set(g)

    def test_round_trip_all_small(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                assert parse_graph6(to_graph6(g)) == g

    def test_round_trip_random_large(self):
        rng = random.Random(2)
        for _ in range(1000):
            n = rng.randint(0, 40)
            g = Graph.gnp(rng, n, rng.random())
            assert parse_graph6(to_graph6(g)) == g

    def test_extended_header_for_63_and_64(self):
        for n in (63, 64):
            g = Graph.complete(n)
            line = to_graph6(g)
            assert line.startswith("~")
            assert parse_graph6(line) == g

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("", "empty"),
            ("!", "offset 0"),
            ("B", "expected"),
            ("Bww", "expected"),
            ("B!", "offset 1"),
            ("~~~~~", "unsupported"),
            ("~", "truncated extended header"),
            ("~??", "truncated extended header"),
        ],
    )
    def test_parse_errors_name_offsets(self, bad, fragment):
        with pytest.raises(Graph6Error, match=fragment):
            parse_graph6(bad)

    def test_vertex_count_limit(self):
        line = to_graph6(Graph.empty(64))
        too_big = "~" + chr(64) + chr(63) + chr(63)  # n = 4096
        with pytest.raises(Graph6Error, match="exceeds"):
            parse_graph6(too_big + "?" * 10)
        assert parse_graph6(line).n == 64

    def test_nonzero_padding_rejected(self):
        # single vertex pair, no edge, but padding bit set
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6("A" + chr(63 + 1))


class TestBasicOps:
    def test_complement_examples(self):
        assert complement(Graph.complete(3)) == Graph.empty(3)
        assert is_isomorphic(complement(Graph.path(4)), Graph.path(4))

    def test_complement_involution(self):
        rng = random.Random(3)
        for _ in range(100):
            g = Graph.gnp(rng, rng.randint(0, 12), 0.5)
            assert complement(complement(g)) == g

    def test_induced_subgraph_examples(self):
        c4 = Graph.cycle(4)
        for verts in combinations(range(4), 3):
            assert is_isomorphic(induced_subgraph(c4, verts), Graph.path(3))
        g = Graph.path(5)
        assert induced_subgraph(g, []) == Graph.empty(0)
        assert induced_subgraph(g, range(5)) == g

    def test_induced_subgraph_out_of_range(self):
        with pytest.raises(InputError):
            induced_subgraph(Graph.path(3), [0, 5])

    def test_degree_profile_examples(self):
        prof = degree_profile(Graph.path(3))
        assert prof.degrees == (1, 2, 1)
        assert prof.edge_count == 2
        assert (prof.m, prof.m1, prof.m_ge2) == (3, 2, 1)
        prof = degree_profile(Graph.complete(4))
        assert prof.max_degree == 3 and prof.edge_count == 6
        assert prof.m == 4 and prof.m1 == 0
        g = with_isolated(Graph.from_edges(4, [(0, 1), (2, 3)]), 1)
        prof = degree_profile(g)
        assert (prof.m, prof.m1, prof.m_ge2, prof.edge_count) == (4, 4, 0, 2)
        assert sum(prof.k_hist.values()) == g.n

    def test_degree_sum_invariant(self):
        rng = random.Random(4)
        for _ in range(200):
            g = Graph.gnp(rng, rng.randint(0, 20), 0.5)
            prof = degree_profile(g)
            assert sum(prof.degrees) == 2 * prof.edge_count

    def test_non_isolated_core(self):
        assert non_isolated_core(with_isolated(Graph.path(3), 2)) == Graph.path(3)
        assert non_isolated_core(Graph.empty(5)) == Graph.empty(0)
        assert non_isolated_core(Graph.complete(3)) == Graph.complete(3)


class TestRecords:
    def test_graph_equality_and_hash(self):
        g = Graph(2, (2, 1))
        assert g == Graph.path(2) and hash(g) == hash(Graph.path(2))
        assert len({g, Graph.path(2), Graph.empty(2)}) == 2
        assert g != Graph.empty(2) and g != Graph.path(3)
        assert g != (2, (2, 1)) and g != "Graph(n=2, adj=(2, 1))"

    def test_graph_repr(self):
        assert repr(Graph.path(2)) == "Graph(n=2, adj=(2, 1))"
        assert repr(Graph.empty(0)) == "Graph(n=0, adj=())"

    @pytest.mark.parametrize("name", ["n", "adj"])
    def test_graph_fields_cannot_be_assigned(self, name):
        g = Graph.path(3)
        with pytest.raises(AttributeError):
            setattr(g, name, 2)
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert g == Graph.path(3)

    def test_graph_pickles(self):
        g = Graph.cycle(5)
        assert pickle.loads(pickle.dumps(g)) == g

    def test_degree_profile_checks_the_degree_sum(self):
        with pytest.raises(InputError, match="^degree sum is not twice the edge count$"):
            DegreeProfile((1, 1), 1, 2, 2, 2, 0, {1: 2})
        prof = DegreeProfile(degrees=(1, 1), max_degree=1, edge_count=1, m=2, m1=2, m_ge2=0,
                             k_hist={1: 2})
        assert prof == degree_profile(Graph.path(2))


class TestCanonical:
    def test_relabel_invariance_exhaustive_small(self):
        for n in range(5):
            for g in all_labeled_graphs(n):
                code = canonical_key(g)
                for p in permutations(range(n)):
                    assert canonical_key(relabel(g, list(p))) == code

    def test_relabel_invariance_sampled_n6(self):
        rng = random.Random(5)
        for _ in range(500):
            g = Graph.gnp(rng, 6, 0.5)
            p = list(range(6))
            rng.shuffle(p)
            assert canonical_key(g) == canonical_key(relabel(g, p))

    def test_relabel_invariance_sampled_larger(self):
        rng = random.Random(50)
        for n in (7, 8, 12, 16):
            for _ in range(150):
                g = Graph.gnp(rng, n, rng.uniform(0.1, 0.9))
                p = list(range(n))
                rng.shuffle(p)
                assert canonical_key(g) == canonical_key(relabel(g, p))
                assert is_isomorphic(g, relabel(g, p))

    def test_relabel_rejects_a_non_permutation(self):
        with pytest.raises(ValueError, match="not a permutation"):
            relabel(Graph.path(3), [0, 0, 1])

    def test_canonical_rows_come_from_the_order(self):
        # the rows induced in the order the search returns encode to its columns
        rng = random.Random(18)
        graphs = [g for n in range(5) for g in all_labeled_graphs(n)] + [
            Graph.gnp(rng, n, rng.uniform(0.05, 0.95))
            for n in (5, 6, 7, 8, 16, 33, 64) for _ in range(10)
        ]
        for g in graphs:
            cols, order, _, _ = _canonical_search(g.n, g.adj)
            rows = _induced_rows(g.adj, order)
            assert _encode_order(g.n, rows, range(g.n)) == cols

    def test_distinct_classes_on_four_vertices(self):
        codes = {canonical_key(g) for g in all_labeled_graphs(4)}
        assert len(codes) == 11

    def test_code_object_equality(self):
        assert canonical_code(Graph.cycle(4)) != canonical_code(Graph.star(3))
        assert canonical_code(Graph.path(3)) == canonical_code(
            relabel(Graph.path(3), [2, 0, 1])
        )

    def test_iso_agrees_with_brute_force(self):
        rng = random.Random(6)
        for _ in range(400):
            n = rng.randint(1, 6)
            g1 = Graph.gnp(rng, n, 0.5)
            g2 = Graph.gnp(rng, n, 0.5)
            assert is_isomorphic(g1, g2) == brute_isomorphic(g1, g2)

    def test_large_graph_keys_pinned(self):
        # golden digest of the keys of graphs beyond the n <= 8 classes, so a
        # change to the refinement or the search cannot move them unnoticed
        rng = random.Random(2024)
        graphs = []
        for n in range(9, 65, 5):
            for p in (0.1, 0.5):
                g = Graph.gnp(rng, n, p)
                graphs += [g, complement(g)]
        graphs += [
            Graph.cycle(30),
            Graph.complete_bipartite(7, 9),
            disjoint_union(Graph.cycle(5), Graph.cycle(5)),
            with_isolated(Graph.path(6), 4),
        ]
        digest = hashlib.sha256()
        for g in graphs:
            digest.update(canonical_key(g))
        assert digest.hexdigest() == (
            "aa0a56718ee0eb301b62120c8377c9d1819500c29c26135615bb0071df608eb5"
        )
        # Paley(61), the 8x8 rook graph, Q6 and K32,32: their searches prune
        # by the automorphisms they find
        digest = hashlib.sha256()
        for g in _symmetric_hosts():
            digest.update(canonical_key(g))
        assert digest.hexdigest() == (
            "d7609b24fa6d764784437b2bb0c6c9fa8dcf9c7e1d1ce6436c2a0e5e63ee408e"
        )

    def test_search_outputs_pinned(self, classes_by_n):
        # golden digest of all the search returns but its generators: the
        # columns, the order that `_rooted` and `_joins` read, the group
        # order and the orbit partition
        rng = random.Random(29)
        graphs = [g for n in range(7) for g in classes_by_n[n]]
        graphs += [Graph.gnp(rng, n, rng.uniform(0.05, 0.95)) for n in range(2, 25) for _ in range(8)]
        graphs += _symmetric_hosts()
        digest = hashlib.sha256()
        for g in graphs:
            cols, order, gens, size = _canonical_search(g.n, g.adj)
            orbits = sorted({tuple(sorted(_orbit(v, gens))) for v in range(g.n)})
            digest.update(repr((cols, order, size, orbits)).encode())
        assert digest.hexdigest() == (
            "a73573845bd2dcc7aac7df583ee9b9d956909f1e4d00b27281da2af96521046f"
        )

    def test_search_order_encodes_to_the_columns(self):
        rng = random.Random(51)
        graphs = [Graph.gnp(rng, n, rng.uniform(0.1, 0.9)) for n in (1, 2, 5, 9, 16, 30)]
        graphs += [Graph.empty(5), Graph.complete(6), *_symmetric_hosts()]
        for g in graphs:
            cols, order, _, _ = _canonical_search(g.n, g.adj)
            assert sorted(order) == list(range(g.n))
            assert _encode_order(g.n, g.adj, order) == cols

    def test_iso_examples(self):
        assert is_isomorphic(Graph.path(3), relabel(Graph.path(3), [1, 2, 0]))
        assert not is_isomorphic(Graph.complete(3), Graph.path(3))
        assert is_isomorphic(complement(Graph.path(4)), Graph.path(4))


def _rook4():
    idx = lambda i, j: 4 * i + j
    edges = []
    for i in range(4):
        for j in range(4):
            edges += [(idx(i, j), idx(i, jj)) for jj in range(j + 1, 4)]
            edges += [(idx(i, j), idx(ii, j)) for ii in range(i + 1, 4)]
    return Graph.from_edges(16, edges)


def _shrikhande():
    idx = lambda a, b: 4 * a + b
    conn = [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)]
    edges = set()
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u = idx(a, b)
                v = idx((a + da) % 4, (b + db) % 4)
                edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(16, sorted(edges))


class TestAutomorphisms:
    def test_examples(self):
        assert automorphism_count(Graph.star(3)) == 6
        assert automorphism_count(Graph.path(4)) == 2
        assert automorphism_count(Graph.cycle(5)) == 10

    def test_agrees_with_brute_force_exhaustive(self):
        for n in range(1, 6):
            for g in all_labeled_graphs(n):
                assert automorphism_count(g) == brute_automorphisms(g)

    def test_agrees_with_brute_force_sampled(self, classes_by_n):
        rng = random.Random(7)
        sample = rng.sample(list(classes_by_n[7]), 60)
        for g in sample:
            assert automorphism_count(g) == brute_automorphisms(g)

    def test_generators_generate_the_group(self, classes_by_n):
        rng = random.Random(8)

        def shuffled(g):
            p = list(range(g.n))
            rng.shuffle(p)
            return relabel(g, p)

        cube = Graph.from_edges(
            8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
        )
        graphs = [g for n in range(7) for g in classes_by_n[n]]
        graphs += rng.sample(list(classes_by_n[7]), 30)
        graphs += [Graph.gnp(rng, n, rng.uniform(0.2, 0.8)) for n in (7, 7, 8, 8)]
        graphs += [
            shuffled(g)
            for g in (
                Graph.cycle(8),
                cube,
                disjoint_union(Graph.cycle(4), Graph.cycle(4)),
                with_isolated(Graph.star(3), 3),
                with_isolated(Graph.path(4), 3),
            )
        ]
        for g in graphs:
            _, _, gens, order = _canonical_search(g.n, g.adj)
            e = edge_set(g)
            for perm in gens:
                assert sorted(perm) == list(range(g.n))
                assert {frozenset((perm[u], perm[v])) for u, v in g.edges()} == e
            group = {tuple(range(g.n))}
            frontier = list(group)
            while frontier:
                elem = frontier.pop()
                for perm in gens:
                    img = tuple(perm[x] for x in elem)
                    if img not in group:
                        group.add(img)
                        frontier.append(img)
            assert len(group) == order == brute_automorphisms(g), to_graph6(g)

    def test_symmetric_hosts_generators_are_automorphisms(self):
        # in relabelings of the complement of the 4x4 rook graph plus the
        # Shrikhande graph, which refinement cannot tell apart, leaves inside
        # nested searches match the kept first leaves of outer nodes and give
        # their generators
        rng = random.Random(30)
        hosts = list(_symmetric_hosts())
        _, rook, cube, _ = hosts
        joined = complement(disjoint_union(_rook4(), _shrikhande()))
        for g in (rook, cube, joined):
            for _ in range(3):
                p = list(range(g.n))
                rng.shuffle(p)
                hosts.append(relabel(g, p))
        for g in hosts:
            _, _, gens, order = _canonical_search(g.n, g.adj)
            if g.n == joined.n:
                assert order == 1152 * 192
            e = edge_set(g)
            for perm in gens:
                assert sorted(perm) == list(range(g.n))
                assert {frozenset((perm[u], perm[v])) for u, v in g.edges()} == e

    def test_refinements_on_symmetric_hosts(self, monkeypatch):
        # a sibling's search ends at its first leaf that encodes like a kept
        # vertex's first leaf, with no second descent to compare colorings
        calls = []

        def counted(nbrs, colors):
            calls.append(1)
            return _refine(nbrs, colors)

        monkeypatch.setattr("inducibility.graphs._refine", counted)
        _, rook, cube, _ = _symmetric_hosts()
        for g, bound in ((rook, 117), (cube, 28)):
            calls.clear()
            _canonical_search(g.n, g.adj)
            assert len(calls) <= bound

    def test_divides_factorial(self, classes_by_n):
        for n in range(1, 8):
            for g in classes_by_n[n]:
                assert math.factorial(n) % automorphism_count(g) == 0

    def test_large_symmetric_graphs(self):
        assert automorphism_count(Graph.complete(16)) == math.factorial(16)
        assert automorphism_count(Graph.empty(12)) == math.factorial(12)
        assert automorphism_count(Graph.complete_bipartite(4, 4)) == 2 * 24 * 24
        assert automorphism_count(Graph.cycle(12)) == 24
        paley, rook, cube, k32 = _symmetric_hosts()
        f = math.factorial
        assert automorphism_count(paley) == 61 * 30
        assert automorphism_count(rook) == 2 * f(8) ** 2
        assert automorphism_count(cube) == 2**6 * f(6)
        assert automorphism_count(k32) == 2 * f(32) ** 2

    def test_size_limit(self):
        # the only bound is the graph's own: exact past 16 vertices and at 64
        for n in (17, 64):
            assert automorphism_count(Graph.empty(n)) == math.factorial(n)
            assert automorphism_count(Graph.complete(n)) == math.factorial(n)
        with pytest.raises(InputError):
            Graph.empty(65)

    def test_strongly_regular_pair(self):
        # rook and Shrikhande are both (16,6,2,2)-strongly-regular and
        # refinement alone cannot split them; exactness means the codes,
        # the isomorphism test, and the group orders must all tell them apart
        r, s = _rook4(), _shrikhande()
        assert sorted(r.degrees()) == sorted(s.degrees())
        assert not is_isomorphic(r, s)
        assert automorphism_count(r) == 1152
        assert automorphism_count(s) == 192
        rng = random.Random(99)
        for g in (r, s):
            p = list(range(16))
            rng.shuffle(p)
            assert canonical_key(g) == canonical_key(relabel(g, p))

    def test_petersen_group_order(self):
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        edges += [(i, 5 + i) for i in range(5)]
        assert automorphism_count(Graph.from_edges(10, edges)) == 120


class TestConstructionHelpers:
    def test_disjoint_union(self):
        g = disjoint_union(Graph.complete(2), Graph.complete(2))
        assert g.edge_count() == 2 and g.n == 4
        assert not g.has_edge(0, 2)

    @pytest.mark.parametrize("build, message", [
        (lambda: Graph(3, (0, 0)), "adjacency has 2 rows, expected 3"),
        (lambda: Graph.from_edges(3, [(1, 1)]), r"self-loop \(1, 1\)"),
        (lambda: Graph.from_edges(3, [(0, 3)]), r"edge \(0, 3\) out of range for n=3"),
        (lambda: Graph.cycle(2), "cycle needs at least 3 vertices"),
        (lambda: disjoint_union(Graph.empty(40), Graph.empty(25)), "exceeds the 64-vertex limit"),
    ], ids=["row-count", "self-loop", "edge-out-of-range", "cycle-2", "union-past-64"])
    def test_input_errors(self, build, message):
        with pytest.raises(InputError, match=message):
            build()

    def test_validation(self):
        with pytest.raises(InputError):
            Graph(2, (1, 0))  # asymmetric
        with pytest.raises(InputError):
            Graph(2, (2, 0))  # self loop at 1? bit 1 of row 0 is vertex 1: fine
        with pytest.raises(InputError):
            Graph(1, (1,))  # self loop
        with pytest.raises(InputError):
            Graph(2, (4, 0))  # bit above n
