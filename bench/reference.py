"""A fixed job that does not use the package: the yardstick for how fast
the machine runs during a benchmark run.

It starts like a CLI job (a fresh interpreter importing the standard
modules the package imports) and then does graph work of the package's
kind in pure Python: bitset embedding counts and a prefix-set DP from
`checks`.  Its inputs never change, so any change in its time is the
machine's.
"""

from __future__ import annotations

import argparse
import json
import random

# Unused here, but the package imports them, so start-up costs what a job's does.
import concurrent.futures  # noqa: F401
import dataclasses  # noqa: F401
import pathlib  # noqa: F401

import checks as C


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.parse_args()
    rng = random.Random(20241126)
    host = C.gnp(rng, 30, 0.5)
    counts = [C.copies(h, host) for h in (C.path(4), C.cycle(4), C.path(5), C.cycle(5))]
    bright = C.bright_fraction(C.path(13))
    print(json.dumps({"copies": counts, "brightness": str(bright)}))


if __name__ == "__main__":
    main()
