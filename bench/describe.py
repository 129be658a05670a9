"""Print the make-up of each workload's inputs for some seeds.

    python3 bench/describe.py 1 2 3

For every `count` pair it gives the share of k-subsets whose induced
degree sequence equals the pattern's, which is the share that passes the
package's degree filter and reaches `Graph` construction and canonical
coding.  Uses only the benchmark's own code, not the package.
"""

from __future__ import annotations

import math
import sys
from itertools import combinations

import checks as C
import workloads as W


def degree_filter_share(h, g) -> float:
    k = len(h)
    want = sorted(row.bit_count() for row in h)
    passed = 0
    for verts in combinations(range(len(g)), k):
        mask = sum(1 << v for v in verts)
        if sorted((g[v] & mask).bit_count() for v in verts) == want:
            passed += 1
    return passed / math.comb(len(g), k)


def edges(adj) -> int:
    return sum(row.bit_count() for row in adj) // 2


def describe(workload: str, seed: int) -> None:
    for job in W.make_jobs(workload, seed):
        x = job.inputs
        line = f"  {job.label}"
        if job.kind == "density":
            line += (f": {edges(x['g'])} host edges, degree filter passes "
                     f"{100 * degree_filter_share(x['h'], x['g']):.2f}% of subsets")
        elif job.kind == "classify":
            line += (f": {edges(x['h'])} edges, {len(C.obscure(x['h']))} obscure vertices, "
                     f"brightness {C.bright_fraction(x['h'])}")
        elif job.kind == "coloring":
            line += f": {edges(x['g'])} host edges, {x['trials']} traces"
        print(line)


def main() -> None:
    for seed in [int(s) for s in sys.argv[1:]] or [1]:
        for workload in W.WORKLOADS:
            print(f"{workload} seed {seed}")
            describe(workload, seed)


if __name__ == "__main__":
    main()
