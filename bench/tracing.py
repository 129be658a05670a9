"""The traced run: the workload's jobs in-process, plus one probe per layer.

Spans are recorded by the benchmark around its calls into each module's
public functions (nothing inside the package is instrumented), kept in
memory and written out when the run ends.  A span has a name, a start, an
end and a parent; a layer's self time is its spans' time minus the time of
their child spans.  The workload's jobs run three times in this process:
once to warm the package's caches (this pass is checked), then with the
tracer off and with it on; the difference of the last two is the tracing
overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import checks as C
import workloads as W


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "parent": self._stack[-1] if self._stack else None, **counts})
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[sid]["start"] = start
            self.spans[sid]["end"] = time.perf_counter_ns()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_seconds(self) -> dict[str, float]:
        """Self time per module (the span name up to its first dot)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            module = s["name"].split(".")[0]
            own = s["end"] - s["start"] - child_ns[s["id"]]
            out[module] = out.get(module, 0.0) + own / 1e9
        return out


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


class InProcess:
    """The jobs of `workloads` through the package's public functions,
    returning the fields of the CLI's `outputs` that the checks read."""

    def __init__(self, pkg, tracer: Tracer, workdir: Path) -> None:
        self.pkg, self.t, self.workdir = pkg, tracer, workdir

    def graph(self, adj):
        return self.t.call("graphs.parse_graph6", self.pkg.parse_graph6, C.g6_encode(adj))

    def run(self, job: W.Job) -> dict | None:
        """Outputs of the job, or None when the operation failed."""
        with self.t.span("bench.job", label=job.label):
            return getattr(self, "_" + job.kind)(job.inputs)

    def _density(self, x):
        r = self.t.call("density.induced_density", self.pkg.induced_density,
                        self.graph(x["h"]), self.graph(x["g"]))
        return {"copies": r.copies, "total": r.total, "density": _frac(r.density)}

    def _density_mc(self, x):
        est = self.t.call("density.induced_density_mc", self.pkg.induced_density_mc,
                          self.graph(x["h"]), self.graph(x["g"]), x["samples"], x["seed"])
        return {"mc": {"estimate": est.estimate, "samples": est.samples}}

    def _witness(self, r):
        return {"value": _frac(r.value), "mode": r.mode,
                "witness": self.t.call("graphs.to_graph6", self.pkg.to_graph6, r.witness)}

    def _search(self, x):
        cp = self.workdir / x["checkpoint"] if "checkpoint" in x else None
        r = self.t.call("search.ind_local_search", self.pkg.ind_local_search,
                        self.graph(x["h"]), x["n"], x["iters"], x["seed"], checkpoint=cp)
        return self._witness(r)

    def _bad_resume(self, x):
        try:
            self.t.call("search.ind_local_search", self.pkg.ind_local_search,
                        self.graph(x["h"]), x["n"], x["iters"], 0,
                        checkpoint=self.workdir / x["checkpoint"])
        except self.pkg.CheckpointError:
            return {}
        except Exception:  # anything but CheckpointError is the fault this job measures
            return None
        return None

    def _ind_exact(self, x):
        return self._witness(self.t.call("search.ind_exact", self.pkg.ind_exact,
                                         self.graph(x["h"]), x["n"]))

    def _classify(self, x):
        p = self.pkg
        h = self.graph(x["h"])
        self.t.call("graphs.degree_profile", p.degree_profile, h)
        cls = self.t.call("structure.classify_vertices", p.classify_vertices, h)
        number, w = self.t.call("structure.minimal_taming_number", p.minimal_taming_number, h)
        self.t.call("brightness.brightness_lower_bounds", p.brightness_lower_bounds, h)
        if x["m"] <= W.EXACT_BRIGHTNESS_LIMIT:
            br = {"exact": _frac(self.t.call("brightness.brightness_exact",
                                             p.brightness_exact, h))}
        else:
            est = self.t.call("brightness.brightness_mc", p.brightness_mc, h,
                              x["samples"], x["seed"])
            br = {"mc": {"estimate": est.estimate, "samples": est.samples}}
        return {"detectable": sorted(cls.detectable), "obscure": sorted(cls.obscure),
                "minimal_taming_number": number, "taming_set": sorted(w.v0),
                "brightness": br}

    def _coloring(self, x):
        s = self.t.call("coloring.simulate", self.pkg.simulate, self.graph(x["g"]),
                        self.graph(x["h"]), x["trials"], x["seed"])
        return {"trials": s.trials,
                "violations": {"match_outside_signatures": s.match_outside_signatures,
                               "isolated_nonblack": s.isolated_nonblack_violations},
                "counts": {"two_green_no_consecutive": s.count_two_green_no_consecutive,
                           "one_red": s.count_one_red}}


# -- layer probes ------------------------------------------------------------------

PROBE_SOURCE_IMPORT = (
    "import time; t = time.perf_counter(); import inducibility.cli; "
    "print(time.perf_counter() - t)"
)
PROBE_SOURCE_MISSES = (
    "import json, sys, time; from inducibility import canonical_code, parse_graph6; "
    "gs = [parse_graph6(s) for s in sys.stdin.read().split()]; "
    "t = time.perf_counter(); [canonical_code(g) for g in gs]; "
    "print(json.dumps([len(gs), time.perf_counter() - t]))"
)
MISS_SAMPLE = 1500
IMPORT_PROBES = 5


class Layers:
    """One probe per per-layer metric.  Each records the span of the calls
    it times, the seconds and the work count visible from outside."""

    def __init__(self, pkg, tracer: Tracer, rng: random.Random, workdir: Path,
                 env: dict) -> None:
        self.pkg, self.t, self.rng, self.workdir, self.env = pkg, tracer, rng, workdir, env
        self.results: dict[str, dict] = {}

    def record(self, name: str, unit: str, seconds: float, work: int, work_unit: str,
               value: float) -> None:
        self.results[name] = {"value": value, "unit": unit, "seconds": seconds,
                              "work": work, "work_unit": work_unit}

    def timed(self, name, unit, work, work_unit, fn, *args, scale=None):
        """Time fn(*args) inside a span.  The value is work per second, or
        the seconds times `scale` when one is given."""
        with self.t.span(name, work=work):
            start = time.perf_counter()
            out = fn(*args)
            seconds = time.perf_counter() - start
        value = work / seconds if scale is None else seconds * scale
        self.record(name, unit, seconds, work, work_unit, value)
        return out

    def _subprocess(self, source: str, stdin: str = "") -> str:
        proc = subprocess.run([sys.executable, "-c", source], input=stdin, env=self.env,
                              capture_output=True, text=True, timeout=120, check=True)
        return proc.stdout

    # search must run first: "fresh process" means no canonical code is cached yet
    def search(self) -> list[str]:
        p = self.pkg
        classes = self.timed("search.enumerate_graphs.s", "s", W.ENUM_CLASSES, "classes",
                             lambda: list(p.enumerate_graphs(W.ENUM_N)), scale=1)
        W.require(len(classes) == W.ENUM_CLASSES,
                   f"{len(classes)} classes at n = 8, expected {W.ENUM_CLASSES}")
        p4 = p.parse_graph6(C.g6_encode(W.FOUR["P4"]))
        self.timed("search.ind_exact.s", "s", len(classes), "classes",
                   p.ind_exact, p4, W.ENUM_N, scale=1)
        iters = 200
        self.timed("search.ind_local_search.ms_per_iter", "ms", iters, "iterations",
                   p.ind_local_search, p4, 20, iters, self.rng.randrange(1 << 30),
                   scale=1000 / iters)
        cp = self.workdir / "probe-checkpoint.json"
        p.ind_local_search(p4, 28, 20, self.rng.randrange(1 << 30), checkpoint=cp)
        self.timed("search.load_checkpoint.s", "s", 1, "loads",
                   p.load_checkpoint, cp, p4, 28, scale=1)
        return [p.to_graph6(g) for g in self.rng.sample(classes, MISS_SAMPLE)]

    def graphs(self, class_codes: list[str]) -> None:
        p = self.pkg
        # distinct random relabellings, coded in a fresh process: all cache misses
        relabelled = set()
        for code in class_codes:
            adj = C.g6_decode(code)
            perm = list(range(len(adj)))
            self.rng.shuffle(perm)
            image = [0] * len(adj)
            for v, row in enumerate(adj):
                for u in range(len(adj)):
                    if (row >> u) & 1:
                        image[perm[v]] |= 1 << perm[u]
            relabelled.add(C.g6_encode(image))
        with self.t.span("graphs.canonical_code.miss_per_s", work=len(relabelled)):
            count, seconds = json.loads(
                self._subprocess(PROBE_SOURCE_MISSES, "\n".join(sorted(relabelled))))
        self.record("graphs.canonical_code.miss_per_s", "codes/s", seconds, count,
                    "codes", count / seconds)

        host = C.gnp(self.rng, 40, 0.5)
        k = 5
        rows = []
        for verts in islice(combinations(range(40), k), 20_000):
            rows.append(tuple(sum(((host[v] >> u) & 1) << i for i, u in enumerate(verts))
                              for v in verts))
        self.timed("graphs.Graph.per_s", "graphs/s", len(rows), "graphs",
                   lambda: [p.Graph(k, r) for r in rows])
        seen = [p.Graph(k, r) for r in rows[:500]]
        for g in seen:
            p.canonical_code(g)
        self.timed("graphs.canonical_code.hit_per_s", "codes/s", 100 * len(seen), "codes",
                   lambda: [p.canonical_code(g) for _ in range(100) for g in seen])
        hosts = [C.g6_encode(C.gnp(self.rng, n, q)) for _, n, q, _ in W.DENSITY_PAIRS]
        rounds = 100
        self.timed("graphs.graph6.roundtrip_per_s", "roundtrips/s", rounds * len(hosts),
                   "roundtrips",
                   lambda: [p.to_graph6(p.parse_graph6(s)) for _ in range(rounds) for s in hosts])

    def density(self) -> None:
        p = self.pkg
        h = p.parse_graph6(C.g6_encode(W.FIVE["C5"]))
        g = p.parse_graph6(C.g6_encode(C.gnp(self.rng, 30, 0.5)))
        self.timed("density.induced_density.subsets_per_s", "subsets/s", math.comb(30, 5),
                   "subsets", p.induced_density, h, g)
        samples = 20_000
        self.timed("density.induced_density_mc.samples_per_s", "samples/s", samples,
                   "samples", p.induced_density_mc, h, g, samples, self.rng.randrange(1 << 30))
        trials = 2_000_000
        self.timed("mc.run_bernoulli_streams.trials_per_s", "trials/s", trials, "trials",
                   p.run_bernoulli_streams, _constant_trial, trials, self.rng.randrange(1 << 30))

    def structure_and_brightness(self) -> None:
        p = self.pkg
        panel = [p.parse_graph6(C.g6_encode(C.caterpillar(self.rng, m)))
                 for m in (12, 13, 14, 15, 16)]
        rounds = 2000
        self.timed("structure.classify_vertices.per_s", "patterns/s", rounds * len(panel),
                   "patterns",
                   lambda: [p.classify_vertices(h) for _ in range(rounds) for h in panel])
        self.timed("structure.minimal_taming_number.s", "s", len(panel), "patterns",
                   lambda: [p.minimal_taming_number(h) for h in panel], scale=1)
        self.timed("brightness.brightness_exact.s", "s", math.factorial(10), "orderings",
                   p.brightness_exact, p.Graph.cycle(10), scale=1)
        samples = 50_000
        self.timed("brightness.brightness_mc.samples_per_s", "samples/s", samples, "samples",
                   p.brightness_mc, p.Graph.cycle(14), samples, self.rng.randrange(1 << 30))

    def coloring(self) -> None:
        p = self.pkg
        h = p.parse_graph6(C.g6_encode(C.with_isolated(C.path(3), 2)))
        pair = p.parse_graph6(C.g6_encode(C.with_isolated(C.path(3), 7)))
        traces = 20_000
        self.timed("coloring.simulate.traces_per_s", "traces/s", traces, "traces",
                   p.simulate, pair, h, traces, self.rng.randrange(1 << 30))
        host = p.parse_graph6(C.g6_encode(C.gnp(self.rng, 64, 0.05)))
        seeds = [self.rng.randrange(1 << 30) for _ in range(1500)]
        self.timed("coloring.run_trial.per_s", "traces/s", len(seeds), "traces",
                   lambda: [p.run_trial(host, h, s) for s in seeds])

    def cli(self) -> None:
        with self.t.span("cli.import_s", work=IMPORT_PROBES):
            times = [float(self._subprocess(PROBE_SOURCE_IMPORT))
                     for _ in range(IMPORT_PROBES)]
        self.record("cli.import_s", "s", sum(times), IMPORT_PROBES, "imports",
                    statistics.median(times))
        calls = []
        for _ in range(20):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                start = time.perf_counter()
                code = self.t.call("cli.main", self.pkg.cli_main, ["bounds", "phi", "--s", "2"])
                calls.append(time.perf_counter() - start)
            W.require(code == 0 and json.loads(out.getvalue())["outputs"]["value"]
                       == float(format(2 / math.e**2, ".12g")), "cli.main gave a wrong phi(2)")
        self.record("cli.main.s", "s", sum(calls), len(calls), "calls",
                    statistics.median(calls))


def _constant_trial(rng) -> bool:
    return True


def traced_run(pkg, jobs: list[W.Job], seed: int, workdir: Path, env: dict,
               checker: W.Checker) -> dict:
    """Every layer probe, then the workload's jobs in-process."""
    probes = Tracer(True)
    layers = Layers(pkg, probes, random.Random(f"layers:{seed}"), workdir, env)
    class_codes = layers.search()
    layers.graphs(class_codes)
    layers.density()
    layers.structure_and_brightness()
    layers.coloring()
    layers.cli()

    # a first untraced pass warms the package's caches and is the one checked;
    # the overhead compares the next two, untraced then traced
    passes = []
    for enabled in (False, False, True):
        gc.collect()
        tracer = Tracer(enabled)
        runner = InProcess(pkg, tracer, workdir)
        W.prepare_round(jobs, workdir)
        start = time.perf_counter()
        outputs = [runner.run(job) for job in jobs]
        passes.append((time.perf_counter() - start, outputs, tracer))
    (_, first, _), (plain_s, plain, _), (traced_s, traced, tracer) = passes
    errors = []
    if not first == plain == traced:
        errors.append("the in-process passes gave different outputs")
    by_label = {job.label: out for job, out in zip(jobs, first)}
    for job, out in zip(jobs, first):
        if out is None or job.kind == "bad_resume":
            continue
        try:
            checker.check(job, out, by_label)
        except (W.CheckFailed, KeyError, ValueError) as exc:
            errors.append(f"{job.label}: {exc}")
    layers.record("trace.overhead_pct", "%", traced_s - plain_s, len(jobs), "jobs",
                  100 * (traced_s - plain_s) / plain_s)
    return {
        "layers": layers.results,
        "self_s": tracer.self_seconds(),
        "plain_s": plain_s,
        "traced_s": traced_s,
        "attempted": len(passes) * len(jobs),
        "failed": sum(out is None for _, outputs, _ in passes for out in outputs),
        "errors": errors,
        "spans": {"probes": probes.spans, "jobs": tracer.spans},
    }
