import collections
import functools
import hashlib
import math
import random

import pytest

from inducibility import coloring
from inducibility.coloring import (
    ColoringSummary,
    _ColorContext,
    _traces,
    record_trace,
    run_trial,
    simulate,
)
from inducibility.errors import InputError, PreconditionError
from inducibility.graphs import Graph, disjoint_union, with_isolated
from inducibility.mc import trial_rngs


HOST = with_isolated(Graph.path(3), 7)
PATTERN = with_isolated(Graph.path(3), 2)


@pytest.fixture
def host():
    return HOST


@pytest.fixture
def pattern():
    return PATTERN


def _sparse_host() -> Graph:
    rng = random.Random(5)
    return Graph.from_edges(
        40, [(i, j) for i in range(40) for j in range(i + 1, 40) if rng.random() < 0.1]
    )


# (host, pattern, seeds, step cap) of the pinned traces
TRACE_CASES = (
    (HOST, PATTERN, 300, None),
    (functools.reduce(disjoint_union, [Graph.path(3)] * 3), PATTERN, 300, 5),
    (with_isolated(Graph.complete(5), 5), PATTERN, 300, 6),
    (with_isolated(Graph.cycle(6), 2), PATTERN, 300, 5),
    (_sparse_host(), with_isolated(Graph.path(4), 3), 200, None),
    (with_isolated(Graph.cycle(12), 4), with_isolated(Graph.star(3), 2), 200, None),
)


class TestColorStep:
    """The colour of the next drawn vertex given the black vertices so far
    plus itself, passed to `is_black` as a bitmask and its edge count."""

    def test_first_vertex_always_black(self, host, pattern):
        ctx = _ColorContext(host, pattern)
        for v in range(host.n):
            assert ctx.is_black(1 << v, 0)

    def test_isolated_arrival_black(self, host, pattern):
        # vertex 5 is isolated in the host, so always isolated on arrival;
        # blacks {0, 2} (the two path leaves) is a reachable black state
        assert _ColorContext(host, pattern).is_black(0b100101, 0)

    def test_completing_the_core_is_not_black(self, host, pattern):
        # blacks hold one edge of the path; adding the third path vertex
        # recreates the pattern's core
        assert not _ColorContext(host, pattern).is_black(0b111, 2)

    def test_completing_deleted_core_not_black(self, host, pattern):
        # one black path endpoint; adding the middle forms a single edge,
        # the core of the pattern minus one detectable leaf
        assert not _ColorContext(host, pattern).is_black(0b11, 1)

    def test_sparse_pattern_required(self, host):
        with pytest.raises(PreconditionError):
            _ColorContext(host, Graph.complete(2))


def test_edge_count_filter_is_sound(classes_by_n):
    """A host set whose edge count is outside `edge_counts` has a core that
    is neither h's nor a detectable h - u's, for every pattern on 3 to 5
    vertices with two edges, over every mask of every class on at most 6
    vertices and of four seeded G(12, p); no edge count is 0."""
    rng = random.Random(12)
    hosts = [g for n in range(7) for g in classes_by_n[n]]
    hosts += [Graph.gnp(rng, 12, p) for p in (0.15, 0.3, 0.5, 0.7)]
    cores = set()  # (edge count, core key) of every host mask
    for g in hosts:
        for mask in range(1 << g.n):
            edges = sum((g.adj[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1) // 2
            cores.add((edges, coloring._core_key(g.adj, mask)))
    for h in (h for k in (3, 4, 5) for h in classes_by_n[k] if h.edge_count() >= 2):
        ctx = _ColorContext(Graph.empty(12), h)
        codes = {ctx.core_code, *ctx.deleted_codes}
        assert 0 not in ctx.edge_counts
        assert all(edges in ctx.edge_counts for edges, key in cores if key in codes), h


class TestRunTrial:
    def test_first_step_black_every_seed(self, host, pattern):
        for seed in range(50):
            tr = run_trial(host, pattern, seed=seed)
            assert tr.steps[0][1] == "black"

    def test_black_prefix_length(self, host, pattern):
        k = pattern.n
        for seed in range(50):
            tr = run_trial(host, pattern, seed=seed)
            assert not tr.truncated
            assert len(tr.black_prefix) == k - 2
            blacks_up_to_stop = sum(
                1 for _, c in tr.steps[: tr.stop_index] if c == "black"
            )
            assert blacks_up_to_stop == k - 2

    def test_match_nonblacks_are_last_non_isolated_arrivals(self, host, pattern):
        for seed in range(2000):
            tr = run_trial(host, pattern, seed=seed)
            if not tr.prefix_match_k:
                continue
            k = pattern.n
            seen = set()
            arrivals = []  # indices whose vertex is non-isolated on arrival
            for i, (v, _) in enumerate(tr.steps[:k], start=1):
                if any(host.has_edge(v, u) for u in seen):
                    arrivals.append(i)
                seen.add(v)
            nonblack = [
                i for i, (_, c) in enumerate(tr.steps[:k], start=1) if c != "black"
            ]
            assert set(nonblack) <= set(arrivals[-2:])

    def test_max_steps_truncation(self, host, pattern):
        tr = run_trial(host, pattern, seed=0, max_steps=pattern.n)
        # with so few draws the trace may or may not truncate, but the
        # invariants still hold
        if tr.truncated:
            assert tr.stop_index is None
            assert tr.green_count is None
        else:
            assert tr.stop_index is not None

    def test_traces_pinned(self):
        # SHA-256 of every field of 1,600 traces, recorded before the trace
        # was coloured in one pass; the step limits of the middle three
        # pairs truncate 54 traces, and 1,433 traces draw past L
        digest = hashlib.sha256()
        for g, h, seeds, max_steps in TRACE_CASES:
            for seed in range(seeds):
                tr = run_trial(g, h, seed, max_steps)
                digest.update(repr(tuple(tr)).encode())
        assert digest.hexdigest() == (
            "746b7e4d54ba3d15ad16a7072302e345afba7a5457e4450165bf83d5f1dfa84e"
        )

    def test_flags_only_run_is_the_recorded_run(self):
        # the TRACE_CASES of test_traces_pinned: without a step list, `_traces` draws
        # the same vertices and returns the fields of the recorded trace
        for g, h, seeds, max_steps in TRACE_CASES:
            ctx = _ColorContext(g, h, max_steps)
            for seed in range(seeds):
                bare, recorded = random.Random(seed), random.Random(seed)
                flags = next(_traces(ctx, (bare,)))
                tr = record_trace(ctx, recorded)
                assert flags == (tr.stop_index, *tuple(tr)[3:]), seed
                assert bare.getstate() == recorded.getstate(), seed
                assert tr == run_trial(g, h, seed, max_steps), seed

    def test_max_steps_too_small(self, host, pattern):
        with pytest.raises(InputError):
            run_trial(host, pattern, seed=0, max_steps=2)


class TestSimulate:
    def test_no_copy_means_no_match(self, pattern):
        bare = Graph.empty(10)
        s = simulate(bare, pattern, 1000, seed=1)
        assert s.count_full_match == 0
        assert s.conditional(s.count_two_green_and_match, s.count_full_match) is None

    def test_seed_reproducible(self, host, pattern):
        assert simulate(host, pattern, 3000, seed=5) == simulate(
            host, pattern, 3000, seed=5
        )

    def test_seeded_counts_are_pinned(self, host, pattern):
        a = simulate(host, pattern, 4000, seed=9)
        b = simulate(host, pattern, 4000, seed=9)
        assert a == b
        assert (
            a.count_prefix_match_km2, a.count_prefix_match_km1, a.count_prefix_match_k
        ) == (22, 51, 93)
        assert (a.count_full_match, a.count_two_green, a.count_one_red) == (6, 55, 23)
        assert a.count_consecutive_nonblack == 53

    @pytest.mark.parametrize("max_steps", [None, 5])
    def test_tally_is_the_recorded_traces(self, host, pattern, max_steps):
        """The flag tally equals per-trace counting over recorded traces; a
        cap of 5 steps truncates traces on both hosts."""
        sparse = Graph.gnp(random.Random(64), 64, 0.05)
        for g, trials, seed in ((host, 3000, 21), (sparse, 2000, 22)):
            ctx = _ColorContext(g, pattern, max_steps)
            total = collections.Counter()
            for rng in trial_rngs(trials, seed):
                tr = record_trace(ctx, rng)
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
                total["count_two_green_no_consecutive"] += (
                    tr.two_green and not tr.consecutive_nonblack
                )
                if tr.full_match and not tr.truncated:
                    total["match_outside_signatures"] += not (tr.two_green or tr.one_red)
                total["isolated_nonblack_violations"] += tr.isolated_nonblack_violations
            names = ColoringSummary._fields[2:]
            expected = ColoringSummary(trials, seed, *(total[name] for name in names))
            assert simulate(g, pattern, trials, seed, max_steps) == expected
            assert (total["truncated"] > 0) == (max_steps is not None)
            assert total["count_prefix_match_k"] > 0

    def test_trials_positive(self, host, pattern):
        with pytest.raises(InputError):
            simulate(host, pattern, 0, seed=0)

    def test_pattern_larger_than_host(self, pattern):
        with pytest.raises(InputError, match="pattern has 5 vertices but host only 4"):
            simulate(Graph.path(4), pattern, 10, seed=0)

    def test_core_memo_bound(self, pattern, monkeypatch):
        """Clearing the core-key memo whenever it holds 50 masks changes no
        tally: each key is recomputed when its mask comes again."""
        sparse = Graph.gnp(random.Random(64), 64, 0.05)
        kept = _ColorContext(sparse, pattern)
        for rng in trial_rngs(300, 23):
            record_trace(kept, rng)
        expected = simulate(sparse, pattern, 300, seed=23)
        monkeypatch.setattr(coloring, "CORE_MEMO_LIMIT", 50)
        assert simulate(sparse, pattern, 300, seed=23) == expected
        cleared = _ColorContext(sparse, pattern)
        for rng in trial_rngs(300, 23):
            record_trace(cleared, rng)
        assert len(kept._core_by_mask) > 50 >= len(cleared._core_by_mask)

    def test_exact_event_probabilities(self, host, pattern):
        # independent hand computation for this configuration: a prefix of
        # length j matches when its j distinct draws contain the path
        # triple (isolated vertices may interleave anywhere), so
        # P = C(7, j-3) j! / 10^j; the full match also needs the triple
        # drawn first, giving 3!/10^3 * (7*6)/10^2; the early-green
        # signature happens exactly when the path center is drawn first
        # among the triple (1/3 of matching traces)
        trials = 200_000
        s = simulate(host, pattern, trials, seed=13)

        def within(count, p_true):
            se = math.sqrt(p_true * (1 - p_true) / trials)
            return abs(count / trials - p_true) <= 4 * se + 1e-12

        assert within(s.count_prefix_match_km2, 6 / 1000)
        assert within(s.count_prefix_match_km1, 7 * 24 / 10**4)
        assert within(s.count_prefix_match_k, 21 * 120 / 10**5)
        assert within(s.count_full_match, 6 / 1000 * 42 / 100)
        ne = s.count_full_match
        p_a1 = s.count_two_green_and_match / ne
        se = math.sqrt((1 / 3) * (2 / 3) / ne)
        assert abs(p_a1 - 1 / 3) <= 4 * se
        assert s.count_two_green_and_match + s.count_one_red_and_match == ne
