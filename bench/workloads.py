"""The three workloads: seeded inputs, the CLI job list of one round, and
the checks each job's output must pass.

A job is one `python -m inducibility ...` process.  Every input is made
here from the benchmark seed; the package only ever sees graph6 strings
and flags.  Checks compare the outputs against `checks`, which does not
use the package.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import checks as C

WORKLOADS = ("count", "enumerate", "classify")

FOUR = {
    "P4": C.path(4),
    "C4": C.cycle(4),
    "K1,3": C.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    "paw": C.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
}
FIVE = {
    "P5": C.path(5),
    "C5": C.cycle(5),
    "K1,4": C.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    "chair": C.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
    "bull": C.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4)]),
    "house": C.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
}
TREES = ("P4", "K1,3", "P5", "K1,4", "chair")

# (pattern size, host size, edge probability, MC samples); dense and
# sparse hosts for 4- and 5-vertex patterns
DENSITY_PAIRS = ((5, 30, 0.5, 10_000), (5, 30, 0.15, 10_000),
                 (4, 40, 0.5, 10_000), (4, 40, 0.15, 10_000))
# (host size, annealing iterations), each run split in half by a checkpoint
SEARCH_RUNS = ((20, 300), (28, 100))
ENUM_N = 8
ENUM_CLASSES = 12_346  # graphs on 8 vertices up to isomorphism, OEIS A000088
# classify panel: (non-isolated vertices m, shape); exact brightness for
# m <= 10, Monte Carlo above
CLASSIFY_PANEL = ((10, "caterpillar"), (9, "caterpillar"), (8, "path"),
                  (12, "caterpillar"), (14, "caterpillar"))
CLASSIFY_MC = 50_000
EXACT_BRIGHTNESS_LIMIT = 10
COLORING_TRIALS = ((10, 30_000), (64, 20_000))  # (host size, traces)

# A checkpoint that is valid except for `best_density`.  Fixed, so the
# job fails the same way on every seed.
BAD_CHECKPOINT_FILE = "bad-checkpoint.json"
BAD_CHECKPOINT_N = 20


def bad_checkpoint_text() -> str:
    empty = C.g6_encode([0] * BAD_CHECKPOINT_N)
    doc = {
        "version": 1,
        "h_code": C.g6_encode(FOUR["P4"]),
        "n": BAD_CHECKPOINT_N,
        "iteration": 5,
        "temperature": float.hex(0.05),
        "rng_state": [3, list(range(625)), None],
        "current_graph": empty,
        "best_graph": empty,
        "best_density": "abc",
        "since_improve": 0,
    }
    return json.dumps(doc, sort_keys=True) + "\n"


@dataclass
class Job:
    label: str
    kind: str  # density, density_mc, search, bad_resume, ind_exact, classify, coloring
    argv: list[str]
    inputs: dict  # graphs as checker adjacency lists, plus numbers
    rates: dict[str, int] = field(default_factory=dict)  # detail metric -> work

    def expected_exit(self) -> int:
        return 2 if self.kind == "bad_resume" else 0


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- job lists -----------------------------------------------------------------


def count_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for k, n, p, samples in DENSITY_PAIRS:
        panel = FIVE if k == 5 else FOUR
        names = sorted(panel) if p >= 0.5 else sorted(t for t in TREES if t in panel)
        name = rng.choice(names)
        h, g = panel[name], C.gnp(rng, n, p)
        hs, gs = C.g6_encode(h), C.g6_encode(g)
        tag = f"{name} in G({n},{p})"
        jobs.append(Job(f"density {tag}", "density", ["density", hs, gs],
                        {"h": h, "g": g}, {"subsets_per_s": math.comb(n, k)}))
        seed = rng.randrange(1 << 30)
        jobs.append(Job(f"density --mc {tag}", "density_mc",
                        ["density", hs, gs, "--mc", str(samples), "--seed", str(seed)],
                        {"h": h, "g": g, "samples": samples, "seed": seed},
                        {"samples_per_s": samples}))
    for n, iters in SEARCH_RUNS:
        name = rng.choice(sorted(FOUR))
        h = FOUR[name]
        seed = rng.randrange(1 << 30)
        common = ["ind", C.g6_encode(h), "--n", str(n), "--search", "--seed", str(seed)]
        tag = f"{name} n={n} seed={seed}"
        cp = f"checkpoint-{n}.json"
        half = iters // 2
        base = {"h": h, "n": n, "seed": seed}
        jobs.append(Job(f"search first half {tag}", "search",
                        common + ["--iters", str(half), "--checkpoint", cp],
                        {**base, "iters": half, "checkpoint": cp}, {"flips_per_s": half}))
        jobs.append(Job(f"search resumed {tag}", "search",
                        common + ["--iters", str(iters), "--checkpoint", cp],
                        {**base, "iters": iters, "checkpoint": cp,
                         "same_as": f"search whole {tag}"},
                        {"flips_per_s": iters - half}))
        jobs.append(Job(f"search whole {tag}", "search", common + ["--iters", str(iters)],
                        {**base, "iters": iters}, {"flips_per_s": iters}))
    jobs.append(Job("resume from a checkpoint with best_density 'abc'", "bad_resume",
                    ["ind", C.g6_encode(FOUR["P4"]), "--n", str(BAD_CHECKPOINT_N),
                     "--search", "--iters", "10", "--checkpoint", BAD_CHECKPOINT_FILE],
                    {"h": FOUR["P4"], "n": BAD_CHECKPOINT_N, "iters": 10,
                     "checkpoint": BAD_CHECKPOINT_FILE}))
    return jobs


def enumerate_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for panel in (FOUR, FIVE):
        name = rng.choice(sorted(panel))
        h = panel[name]
        jobs.append(Job(f"ind --exact {name} n={ENUM_N}", "ind_exact",
                        ["ind", C.g6_encode(h), "--n", str(ENUM_N), "--exact"],
                        {"h": h, "n": ENUM_N},
                        {"exact_ind_s": 1}))
    return jobs


def classify_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for m, shape in CLASSIFY_PANEL:
        core = C.path(m) if shape == "path" else C.caterpillar(rng, m)
        h = C.with_isolated(core, rng.randint(0, 2))
        seed = rng.randrange(1 << 30)
        rates = {"patterns_per_s": 1}
        if m > EXACT_BRIGHTNESS_LIMIT:
            rates["samples_per_s"] = CLASSIFY_MC
        jobs.append(Job(f"classify {shape} m={m} n={len(h)}", "classify",
                        ["classify", C.g6_encode(h), "--mc", str(CLASSIFY_MC),
                         "--seed", str(seed)],
                        {"h": h, "m": m, "samples": CLASSIFY_MC, "seed": seed}, rates))
    pattern = C.with_isolated(C.path(3), 2)
    for n, trials in COLORING_TRIALS:
        # n = 10 is the pair of acceptance criterion 9: P3 plus isolated vertices
        g = C.with_isolated(C.path(3), n - 3) if n == 10 else C.gnp(rng, n, 0.05)
        seed = rng.randrange(1 << 30)
        jobs.append(Job(f"simulate-coloring host n={n}", "coloring",
                        ["simulate-coloring", C.g6_encode(g), C.g6_encode(pattern),
                         "--trials", str(trials), "--seed", str(seed)],
                        {"g": g, "h": pattern, "trials": trials, "seed": seed,
                         "capped": n == 10},
                        {"traces_per_s": trials}))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return {"count": count_jobs, "enumerate": enumerate_jobs,
            "classify": classify_jobs}[workload](rng)


def prepare_round(jobs: list[Job], workdir: Path) -> None:
    """Remove checkpoints from an earlier round and write the bad one."""
    for path in workdir.glob("checkpoint-*.json"):
        path.unlink()
    if any(job.kind == "bad_resume" for job in jobs):
        (workdir / BAD_CHECKPOINT_FILE).write_text(bad_checkpoint_text(), encoding="ascii")


# -- checks ----------------------------------------------------------------------


class Checker:
    """Checks one round's outputs.  Recounts are memoised: the exact and MC
    jobs of a pair, and the jobs of one pattern, share them."""

    def __init__(self) -> None:
        self._copies: dict[tuple, int] = {}
        self._bright: dict[tuple, Fraction] = {}

    def copies(self, h, g) -> int:
        key = (tuple(h), tuple(g))
        if key not in self._copies:
            self._copies[key] = C.copies(h, g)
        return self._copies[key]

    def bright(self, h) -> Fraction:
        key = tuple(h)
        if key not in self._bright:
            self._bright[key] = C.bright_fraction(h)
        return self._bright[key]

    def density(self, h, g) -> Fraction:
        return Fraction(self.copies(h, g), math.comb(len(g), len(h)))

    def check(self, job: Job, out: dict, by_label: dict[str, dict]) -> None:
        getattr(self, "_" + job.kind)(job, out, by_label)

    def _density(self, job, out, by_label):
        h, g = job.inputs["h"], job.inputs["g"]
        want = self.copies(h, g)
        require(out["copies"] == want, f"copies {out['copies']} != recount {want}")
        require(out["total"] == math.comb(len(g), len(h)), "wrong subset total")
        require(C.rational(out["density"]) == self.density(h, g), "density != copies/total")

    def _within(self, estimate: float, p: Fraction, samples: int, what: str):
        se = math.sqrt(float(p) * (1 - float(p)) / samples)
        require(abs(estimate - float(p)) <= 5 * se,
                 f"{what} estimate {estimate} is more than 5 SE from {float(p)}")

    def _density_mc(self, job, out, by_label):
        mc = out["mc"]
        require(mc["samples"] == job.inputs["samples"], "wrong sample count")
        self._within(mc["estimate"], self.density(job.inputs["h"], job.inputs["g"]),
                     job.inputs["samples"], "density MC")

    def _search(self, job, out, by_label):
        h, n = job.inputs["h"], job.inputs["n"]
        w = C.g6_decode(out["witness"])
        require(len(w) == n and out["mode"] == "lower_bound", "bad witness or mode")
        require(C.rational(out["value"]) == self.density(h, w),
                 "annealing value != recount of its witness")
        twin = job.inputs.get("same_as")
        if twin is not None:
            require(out == by_label[twin],
                     "checkpoint-resumed run differs from the uninterrupted run")

    def _ind_exact(self, job, out, by_label):
        h, n = job.inputs["h"], job.inputs["n"]
        w = C.g6_decode(out["witness"])
        value = C.rational(out["value"])
        require(len(w) == n and out["mode"] == "exact", "bad witness or mode")
        require(value == self.density(h, w), "maximum != recount of its witness")
        for host in lower_bound_hosts(n):
            require(self.density(h, host) <= value,
                     f"host {C.g6_encode(host)} beats the reported maximum")

    def _classify(self, job, out, by_label):
        h = job.inputs["h"]
        require(set(out["detectable"]) == C.detectable(h), "detectable set differs")
        require(set(out["obscure"]) == C.obscure(h), "obscure set differs")
        v0 = out["taming_set"]
        require(len(v0) == out["minimal_taming_number"] and C.tames(h, v0),
                 "taming witness fails the definition")
        want = self.bright(h)
        br = out["brightness"]
        if job.inputs["m"] <= EXACT_BRIGHTNESS_LIMIT:
            got = C.rational(br["exact"])
            require(got == want, f"exact brightness {got} != prefix-set DP {want}")
            require(got >= Fraction(1, 12), "brightness below the 1/12 floor")
        else:
            require(br["mc"]["samples"] == job.inputs["samples"], "wrong sample count")
            self._within(br["mc"]["estimate"], want, job.inputs["samples"], "brightness MC")

    def _coloring(self, job, out, by_label):
        trials = job.inputs["trials"]
        require(out["trials"] == trials, "wrong trial count")
        require(out["violations"] == {"match_outside_signatures": 0,
                                       "isolated_nonblack": 0},
                 f"violation counters {out['violations']}")
        if job.inputs["capped"]:
            for key, cap in (("two_green_no_consecutive", 2 / math.e**2),
                             ("one_red", 1 / math.e)):
                p = out["counts"][key] / trials
                se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
                require(p <= cap + 4 * se, f"{key} frequency {p} above its cap {cap}")


def lower_bound_hosts(n: int) -> list:
    """Complete multipartite hosts, their complements and seeded random
    labelled hosts; none may beat an exact maximum."""
    hosts = []
    for parts in C.partitions(n):
        hosts.append(C.complete_multipartite(parts))
        hosts.append(C.complement(hosts[-1]))
    rng = random.Random(f"hosts:{n}")
    hosts += [C.gnp(rng, n, rng.uniform(0.2, 0.8)) for _ in range(16)]
    return hosts
