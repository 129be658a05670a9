"""`mc.randbelow` draws what CPython's `randrange` draws, and leaves the
generator in the same state.

Every pinned Monte-Carlo output of `density`, `search` and `brightness_mc`
rests on this equivalence, so a CPython release that changes `_randbelow`
fails here first.
The module needs no pytest, so other interpreters can run it as a script:
`PYTHONPATH=src python tests/test_mc.py`.
"""

import random

from inducibility import mc

SEEDS = range(100)
# 1 to 200, and every power of two up to 2^70 with its neighbours
WIDTHS = sorted({*range(1, 201), *(2**e + d for e in range(71) for d in (-1, 0, 1))} - {0})
SPANS = [(a, a + w) for a in (-(2**40), -7, 0, 1, 3, 2**33) for w in (1, 2, 5, 64, 100, 2**31 + 1)]


def _same_stream(seed, ours, theirs):
    a, b = random.Random(seed), random.Random(seed)
    assert ours(a) == theirs(b), seed
    assert a.getstate() == b.getstate(), seed


def test_randbelow_is_randrange():
    for seed in SEEDS:
        _same_stream(
            seed,
            lambda rng: [mc.randbelow(rng, w) for w in WIDTHS for _ in range(3)],
            lambda rng: [rng.randrange(w) for w in WIDTHS for _ in range(3)],
        )


def test_offset_randbelow_is_two_argument_randrange():
    for seed in SEEDS:
        _same_stream(
            seed,
            lambda rng: [a + mc.randbelow(rng, b - a) for a, b in SPANS for _ in range(3)],
            lambda rng: [rng.randrange(a, b) for a, b in SPANS for _ in range(3)],
        )


def test_wilson_interval_needs_a_sample():
    try:
        mc.wilson_interval(0, 0)
    except ValueError as exc:
        assert str(exc) == "samples must be positive"
    else:
        raise AssertionError("wilson_interval(0, 0) returned")


if __name__ == "__main__":
    import sys

    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} passed on Python {sys.version.split()[0]}")
