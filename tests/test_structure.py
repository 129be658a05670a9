import random

import pytest

from inducibility import verify
from inducibility.errors import PreconditionError, UnsupportedSizeError
from inducibility.graphs import Graph, with_isolated
from inducibility.structure import (
    classify_vertices,
    is_d_tame,
    is_obscure_oracle,
    is_tamed_by,
    minimal_taming_number,
    tame_witness_from,
)
from oracles import brute_is_tamed_by_permutations


def random_graph(rng, n, p=0.5):
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


class TestTaming:
    def test_is_tamed_examples(self, p4):
        assert is_tamed_by(Graph.star(3), {0})
        assert not is_tamed_by(p4, {1, 2})
        assert is_tamed_by(p4, {0, 1, 2, 3})

    def test_two_condition_form_matches_permutation_form(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randint(1, 6)
            h = random_graph(rng, n)
            v0 = {v for v in range(n) if rng.random() < 0.5}
            assert is_tamed_by(h, v0) == brute_is_tamed_by_permutations(h, v0)

    def test_witness_examples(self, p4):
        w = tame_witness_from(Graph.complete_bipartite(2, 3), {0, 1})
        assert w.v0 == frozenset({0, 1}) and w.valid
        w = tame_witness_from(p4, {1})
        assert w.v0 == frozenset({1, 2, 3})
        w = tame_witness_from(with_isolated(Graph.path(3), 2), set())
        assert w.v0 == frozenset({0, 1, 2})
        assert w.source == "closure"

    def test_witness_validates_randomly(self, verified):
        assert verified(verify._check_closure_witness).ok

    def test_minimal_taming_examples(self, verified):
        assert verified(verify._check_aut_vs_taming).ok

    def test_minimal_witness_is_valid_and_minimal(self):
        rng = random.Random(13)
        for _ in range(60):
            n = rng.randint(1, 7)
            h = random_graph(rng, n)
            number, w = minimal_taming_number(h)
            assert len(w.v0) == number and is_tamed_by(h, w.v0)
            assert w.source == "exact_min"
            # nothing smaller works
            smaller = [
                v0
                for v0 in _subsets_of_size(n, number - 1)
                if is_tamed_by(h, v0)
            ]
            assert not smaller

    def test_is_d_tame(self, p4):
        assert is_d_tame(p4, 3)
        assert not is_d_tame(p4, 2)
        assert is_d_tame(Graph.empty(4), 0)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            minimal_taming_number(Graph.empty(17))


def _subsets_of_size(n, size):
    from itertools import combinations

    if size < 0:
        return
    for c in combinations(range(n), size):
        yield set(c)


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

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            is_obscure_oracle(Graph.cycle(11), 0)

    def test_matches_classifier_exhaustive_small(self, verified):
        assert verified(verify._check_detectable_characterization).ok


class TestModuleInvariants:
    def test_happy_count_floor(self, verified):
        assert verified(verify._check_happy_floor).ok

    def test_detectable_deletion_keeps_edge(self, verified):
        assert verified(verify._check_detectable_deletion).ok

    def test_taming_complement_invariant(self, verified):
        assert verified(verify._check_taming_complement).ok
