import hashlib
import random

import pytest

from inducibility import structure
from inducibility.errors import InputError, InternalCheckError, PreconditionError, UnsupportedSizeError
from inducibility.graphs import Graph, to_graph6, with_isolated
from inducibility.structure import (
    TameWitness,
    classify_vertices,
    is_obscure_oracle,
    is_tamed_by,
    minimal_taming_number,
    tame_witness_from,
)
from oracles import (
    all_labeled_graphs,
    brute_is_tamed_by_permutations,
    brute_minimal_taming,
    edge_set,
    tames_by_definition,
)


def planted_twins(rng, n):
    """A random graph on a few vertices grown to n vertices, each new one a
    copy of an earlier vertex joined to it (a true twin) or not (a false
    twin), with the labels shuffled at the end."""
    rows = [0] * n
    base = rng.randint(2, n // 2)
    for v in range(base):
        for u in range(v):
            if rng.random() < 0.5:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    for v in range(base, n):
        u = rng.randrange(v)
        rows[v] = rows[u] | (1 << u if rng.random() < 0.5 else 0)
        for w in range(v):
            rows[w] |= (rows[v] >> w & 1) << v
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[u], label[v]) for v in range(n) for u in range(v) if rows[v] >> u & 1]
    return Graph.from_edges(n, edges)


class TestTaming:
    def test_is_tamed_examples(self, p4):
        assert is_tamed_by(Graph.star(3), {0})
        assert not is_tamed_by(p4, {1, 2})
        assert is_tamed_by(p4, {0, 1, 2, 3})

    def test_two_condition_form_matches_permutation_form(self):
        # every labelled graph on n <= 5 vertices, with every v0
        for n in range(6):
            for h in all_labeled_graphs(n):
                for mask in range(1 << n):
                    v0 = {v for v in range(n) if mask >> v & 1}
                    assert is_tamed_by(h, v0) == brute_is_tamed_by_permutations(h, v0)

    def test_twin_form_matches_definition(self, classes_by_n):
        # every class on n <= 7 vertices, with every v0
        for n in range(8):
            for h in classes_by_n[n]:
                e = edge_set(h)
                for mask in range(1 << n):
                    v0 = {v for v in range(n) if mask >> v & 1}
                    assert is_tamed_by(h, v0) == tames_by_definition(h, v0, e), (to_graph6(h), v0)

    def test_witness_examples(self, p4):
        w = tame_witness_from(Graph.complete_bipartite(2, 3), {0, 1})
        assert w.v0 == frozenset({0, 1}) and w.valid
        w = tame_witness_from(p4, {1})
        assert w.v0 == frozenset({1, 2, 3})
        w = tame_witness_from(with_isolated(Graph.path(3), 2), set())
        assert w.v0 == frozenset({0, 1, 2})
        assert w.source == "closure"

    def test_closure_witness_pinned(self):
        # the closure of every s in every labelled graph on n <= 5 vertices
        digest = hashlib.sha256()
        for n in range(6):
            for h in all_labeled_graphs(n):
                for mask in range(1 << n):
                    s = {v for v in range(n) if mask >> v & 1}
                    v0 = sorted(tame_witness_from(h, s).v0)
                    digest.update(repr((h.n, h.adj, mask, v0)).encode())
        assert digest.hexdigest() == (
            "dc3f0077ca51ae2d5540873c984c1af5368728df943f991781f49f967cb70e7c"
        )

    def test_untamed_closure_is_an_internal_error(self, monkeypatch, p4):
        monkeypatch.setattr(structure, "_tames", lambda h, mask: False)
        with pytest.raises(InternalCheckError, match="closure witness"):
            tame_witness_from(p4, {1})

    def test_minimal_witness_is_valid_and_minimal(self, classes_by_n):
        # the closed form against the scan of every complement: the number
        # and the witness, on every class with n <= 7 and on larger graphs
        # with planted twin classes, where ties between classes are common
        rng = random.Random(13)
        graphs = [h for n in range(8) for h in classes_by_n[n]]
        graphs += [planted_twins(rng, rng.randint(8, 14)) for _ in range(40)]
        for h in graphs:
            number, w = minimal_taming_number(h)
            assert (number, w.v0) == brute_minimal_taming(h), to_graph6(h)
            assert len(w.v0) == number and is_tamed_by(h, w.v0)
            assert w.valid and w.source == "exact_min"

    def test_large_graphs(self):
        cases = [
            (Graph.complete_bipartite(32, 32), 32, frozenset(range(32, 64))),
            (Graph.empty(64), 0, frozenset()),
            (Graph.complete(64), 0, frozenset()),
            (Graph.star(63), 1, frozenset({0})),
        ]
        for h, number, v0 in cases:
            assert minimal_taming_number(h) == (number, TameWitness(v0, True, "exact_min"))
            assert is_tamed_by(h, v0)


class TestClassification:
    def test_p3(self, p3):
        cls = classify_vertices(p3)
        assert cls.happy == frozenset({0, 2})
        assert cls.detectable == frozenset({0, 2})
        assert cls.obscure == frozenset({1})

    def test_2k2_and_k3(self, two_k2):
        assert classify_vertices(two_k2).detectable == frozenset(range(4))
        cls = classify_vertices(Graph.complete(3))
        assert cls.happy == cls.detectable == frozenset(range(3))

    def test_partition_invariants(self, classes_by_n):
        for n in range(1, 8):
            for h in classes_by_n[n]:
                cls = classify_vertices(h)
                non_isolated = {v for v in range(n) if h.adj[v]}
                assert cls.obscure & cls.detectable == frozenset()
                assert cls.obscure | cls.detectable == non_isolated
                assert cls.detectable == (cls.happy | cls.degree_one) & non_isolated


class TestObscureOracle:
    def test_examples(self, p3, two_k2):
        assert is_obscure_oracle(p3, 1)
        assert not is_obscure_oracle(p3, 0)
        for v in range(4):
            assert not is_obscure_oracle(two_k2, v)

    def test_isolated_rejected(self):
        with pytest.raises(PreconditionError):
            is_obscure_oracle(with_isolated(Graph.path(3), 1), 3)

    def test_vertex_out_of_range(self, p3):
        with pytest.raises(InputError, match="vertex 3 out of range for n=3"):
            is_obscure_oracle(p3, 3)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            is_obscure_oracle(Graph.cycle(11), 0)
