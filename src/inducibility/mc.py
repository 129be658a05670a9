"""Shared Monte-Carlo machinery: seeded substreams and Wilson intervals.

Sampling work is split over a fixed number of independent substreams whose
seeds derive only from (seed, stream index).  Streams may run on a thread
pool sized by the INDUCIBILITY_THREADS environment variable, and results
are aggregated in stream-index order, so every estimate is bit-identical
regardless of the thread count.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

THREADS_ENV = "INDUCIBILITY_THREADS"

STREAM_COUNT = 16

Z95 = 1.96

T = TypeVar("T")


def thread_count() -> int:
    raw = os.environ.get(THREADS_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            value = 1
        return max(1, value)
    return max(1, os.cpu_count() or 1)


def stream_seed(seed: int, index: int) -> int:
    # disjoint, order-independent of thread scheduling
    return (seed << 32) ^ (0x9E3779B9 * (index + 1))


def split_samples(samples: int) -> list[int]:
    base, extra = divmod(samples, STREAM_COUNT)
    return [base + (1 if i < extra else 0) for i in range(STREAM_COUNT)]


def map_streams(fn: Callable[[int], T], n_streams: int) -> list[T]:
    """Run fn(stream_index) for each stream; results in stream order."""
    workers = thread_count()
    if workers == 1 or n_streams == 1:
        return [fn(i) for i in range(n_streams)]
    with ThreadPoolExecutor(max_workers=min(workers, n_streams)) as pool:
        return list(pool.map(fn, range(n_streams)))


def wilson_interval(successes: int, samples: int, z: float = Z95) -> tuple[float, float]:
    """95% Wilson score interval; well behaved at estimates near 0 and 1."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    phat = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    center = phat + z2 / (2 * samples)
    half = z * ((phat * (1 - phat) / samples + z2 / (4 * samples * samples)) ** 0.5)
    lo = (center - half) / denom
    hi = (center + half) / denom
    return (max(0.0, lo), min(1.0, hi))


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    successes: int


def run_bernoulli_streams(
    trial: Callable[[random.Random], bool], samples: int, seed: int
) -> MCEstimate:
    counts = split_samples(samples)

    def run_stream(idx: int) -> int:
        rng = random.Random(stream_seed(seed, idx))
        hits = 0
        for _ in range(counts[idx]):
            if trial(rng):
                hits += 1
        return hits

    successes = sum(map_streams(run_stream, STREAM_COUNT))
    lo, hi = wilson_interval(successes, samples)
    return MCEstimate(
        estimate=successes / samples,
        ci_low=lo,
        ci_high=hi,
        samples=samples,
        seed=seed,
        successes=successes,
    )

