"""Shared Monte-Carlo machinery: seeded substreams, draws and Wilson intervals.

Sampling work is split over a fixed number of independent substreams whose
seeds derive only from (seed, stream index), and results are aggregated in
stream-index order, so every estimate is bit-identical for a fixed seed.
The streams run one after another in one thread.  Every uniform index the
package draws reproduces CPython's `randrange` stream (same values, same
final generator state) with fewer Python calls per draw.  Those draws are
made in three places:

- `randbelow` here, CPython's `randrange(w)`, for the moves of `search`
  and the two draws of a `brightness_mc` trial; `tests/test_mc.py` guards
  it;
- `density._sample`, `randrange(i, n)` per pick, inlined in the subset
  sampler of `density --mc`; `tests/test_density.py` replays it against a
  full shuffle;
- `coloring._traces`, `randrange(n)` per step, inlined in its one loop
  over every trace of a run; the pinned trace digests of
  `tests/test_coloring.py` guard it.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import Callable, Iterator

STREAM_COUNT = 16

Z95 = 1.96


def stream_seed(seed: int, index: int) -> int:
    # disjoint streams, each a function of (seed, index) alone
    return (seed << 32) ^ (0x9E3779B9 * (index + 1))


def split_samples(samples: int) -> list[int]:
    base, extra = divmod(samples, STREAM_COUNT)
    return [base + (1 if i < extra else 0) for i in range(STREAM_COUNT)]


def trial_rngs(samples: int, seed: int) -> Iterator[random.Random]:
    """The generator of each of `samples` trials, substream by substream."""
    for idx, count in enumerate(split_samples(samples)):
        rng = random.Random(stream_seed(seed, idx))
        for _ in range(count):
            yield rng


def randbelow(rng: random.Random, w: int) -> int:
    """`rng.randrange(w)` for w > 0: CPython's `_randbelow` rejection loop."""
    k = w.bit_length()
    r = rng.getrandbits(k)
    while r >= w:
        r = rng.getrandbits(k)
    return r


def wilson_interval(successes: int, samples: int) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at estimates near 0 and 1."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    phat = successes / samples
    z2 = Z95 * Z95
    denom = 1.0 + z2 / samples
    center = phat + z2 / (2 * samples)
    half = Z95 * ((phat * (1 - phat) / samples + z2 / (4 * samples * samples)) ** 0.5)
    lo = (center - half) / denom
    hi = (center + half) / denom
    return (max(0.0, lo), min(1.0, hi))


MCEstimate = namedtuple("MCEstimate", "estimate ci_low ci_high samples seed")


def run_bernoulli_streams(
    trial: Callable[[random.Random], bool], samples: int, seed: int
) -> MCEstimate:
    successes = sum(1 for rng in trial_rngs(samples, seed) if trial(rng))
    lo, hi = wilson_interval(successes, samples)
    return MCEstimate(
        estimate=successes / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
        seed=seed,
    )

