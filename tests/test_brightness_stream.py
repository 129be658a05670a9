"""`brightness_mc` draws the labelings CPython's `random.shuffle` draws.

Each trial decides brightness while it makes the shuffle's draws, and skips
the swaps once the outcome is known.  Every pinned brightness estimate rests
on its making the same draws, so a CPython release that changes `shuffle` or
`_randbelow` fails here first.  The module needs no pytest, so other
interpreters can run it as a script:
`PYTHONPATH=src python tests/test_brightness_stream.py`.
"""

import hashlib
import random

from inducibility.brightness import _bright_given_masks, _bright_trial, brightness_mc
from inducibility.graphs import Graph

SEEDS = range(100)
SAMPLE_COUNTS = (1, 15, 17, 2001)  # none a multiple of the 16 substreams


def _seeded_core(rng, m, extra):
    """A connected graph on m vertices (a random tree plus random chords)
    with `extra` isolated vertices, the labels shuffled."""
    p = rng.uniform(0, 3 / m)
    edges = {(rng.randrange(v), v) for v in range(1, m)}
    edges |= {(u, v) for v in range(m) for u in range(v) if rng.random() < p}
    label = list(range(m + extra))
    rng.shuffle(label)
    return Graph.from_edges(m + extra, [(label[u], label[v]) for u, v in edges])


def test_seeded_estimates_are_pinned():
    rng = random.Random("brightness stream")
    digest = hashlib.sha256()
    for m in range(3, 17):
        for extra in range(3):
            g = _seeded_core(rng, m, extra)
            for samples in SAMPLE_COUNTS:
                seed = rng.randrange(2**31)
                est = brightness_mc(g, samples, seed)
                digest.update(repr((g.n, g.adj, tuple(est))).encode())
    assert digest.hexdigest() == (
        "bdbdf6647e4ab2f24255520dc87fbc7fb71bb764b408eb76eb6e0872a0516e02"
    )


def test_trial_is_random_shuffle_then_the_order_check():
    # every vertex count to 40, each with a seeded graph and detectable set,
    # three trials each on one generator per seed: the same outcome as the
    # shuffled order's check, and the same generator state after every trial
    shapes = random.Random("trial shapes")
    cases = []
    for n in range(41):
        adj = Graph.gnp(shapes, n, shapes.uniform(0, 0.5)).adj
        detect_mask = shapes.getrandbits(n)
        cases.append((adj, detect_mask, _bright_trial(adj, detect_mask)))
    outcomes = set()
    for seed in SEEDS:
        ours, theirs = random.Random(seed), random.Random(seed)
        for adj, detect_mask, trial in cases:
            for _ in range(3):
                order = list(range(len(adj)))
                theirs.shuffle(order)
                bright = trial(ours)
                assert bright == _bright_given_masks(adj, order, detect_mask), (seed, adj)
                assert ours.getstate() == theirs.getstate(), (seed, adj)
                outcomes.add(bright)
    assert outcomes == {False, True}


if __name__ == "__main__":
    import sys

    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
