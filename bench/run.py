"""Benchmark of the inducibility CLI.

    python3 bench/run.py --workload count --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With --trace 0 it drives the package the
way its users do: one `python -m inducibility ...` process per job, one job
after another (a closed loop with one client), whole rounds of the
workload's fixed job list until --seconds have passed.  Every output is
checked against `checks`, which does not use the package.  Times are scaled
by a fixed reference job run after every job (reference.py), because the
machine's speed drifts during and between runs.  With --trace 1
it instead calls the same jobs in-process and runs one probe per layer
(see tracing.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import checks as C
import workloads as W

SETUP_PROBES_FIRST = 5  # probes before the first round
SETUP_PROBES_EACH = 3  # and after every round, so they sample the whole run
SETUP_ARGV = ["bounds", "phi", "--s", "2"]
# Times are scaled to a machine on which bench/reference.py takes this long.
REFERENCE_S = 0.1
JOB_TIMEOUT_S = 150
DETAIL_UNITS = {"subsets_per_s": "subsets/s", "flips_per_s": "iterations/s",
                "samples_per_s": "samples/s", "patterns_per_s": "patterns/s",
                "traces_per_s": "traces/s"}


def job_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("INDUCIBILITY_THREADS", None)  # measure the default users get
    return env


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}, q3 {q3:.4g}, n={len(values)}"


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def provenance(root: Path) -> str:
    return (f"provenance: python {platform.python_version()}, nproc {os.cpu_count()}, "
            f"src lines {src_lines(root)}")


class Runner:
    """Runs job processes, the setup probe and the reference job."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.cmd = [sys.executable, "-m", "inducibility"]
        self.env = job_env(root)
        self.workdir = workdir
        self.reference_cmd = [sys.executable, str(root / "bench" / "reference.py")]
        self.reference_out: str | None = None

    def run(self, argv: list[str], cmd: list[str] | None = None
            ) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run((cmd or self.cmd) + argv, cwd=self.workdir, env=self.env,
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
        return time.perf_counter() - start, proc

    def reference(self) -> float:
        """Seconds of one run of bench/reference.py, whose output never changes."""
        seconds, proc = self.run([], self.reference_cmd)
        if proc.returncode != 0 or proc.stdout != (self.reference_out or proc.stdout):
            raise W.CheckFailed(f"reference job failed: {proc.stderr[-300:]}")
        self.reference_out = proc.stdout
        return seconds

    def setup(self, count: int) -> list[float]:
        """`count` times from a fresh interpreter to a trivial CLI answer,
        each scaled by a reference job run right after it."""
        want = float(format(2 / math.e**2, ".12g"))
        scaled = []
        for _ in range(count):
            seconds, proc = self.run(SETUP_ARGV)
            if proc.returncode != 0 or json.loads(proc.stdout)["outputs"]["value"] != want:
                raise W.CheckFailed(f"trivial command failed: {proc.stderr[-300:]}")
            scaled.append(seconds * REFERENCE_S / self.reference())
        return scaled


def operation_ok(job: W.Job, proc: subprocess.CompletedProcess) -> bool:
    if proc.returncode != job.expected_exit():
        return False
    if job.kind == "bad_resume":
        # invalid input: exit 2 and a JSON error on stderr
        try:
            return "error" in json.loads(proc.stderr.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return False
    return True


def measure(workload: str, seed: int, seconds: float, root: Path, workdir: Path) -> dict:
    runner = Runner(root, workdir)
    setup = runner.setup(SETUP_PROBES_FIRST)
    jobs = W.make_jobs(workload, seed)
    checker = W.Checker()
    errors: list[str] = []
    first: list[tuple[int, str]] | None = None
    rounds: list[float] = []  # seconds of the round's jobs
    scales: list[float] = []  # REFERENCE_S over the mean reference time of the round
    job_times: dict[str, list[float]] = {job.label: [] for job in jobs}
    failed = 0
    start = time.perf_counter()
    while True:
        W.prepare_round(jobs, workdir)
        results = []
        references = [runner.reference()]
        for job in jobs:
            took, proc = runner.run(job.argv)
            job_times[job.label].append(took)
            results.append((job, proc))
            references.append(runner.reference())
        rounds.append(sum(job_times[job.label][-1] for job in jobs))
        scales.append(REFERENCE_S / statistics.fmean(references))
        setup += runner.setup(SETUP_PROBES_EACH)

        seen = [(proc.returncode, proc.stdout) for _, proc in results]
        ok = [operation_ok(job, proc) for job, proc in results]
        failed += ok.count(False)
        if first is None:
            first = seen
            errors += check_round(checker, results, ok)
        elif seen != first:
            errors.append("a later round printed different stdout from the first")
        if time.perf_counter() - start >= seconds:
            break

    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(r * k for r, k in zip(rounds, scales)), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    digest = hashlib.sha256("".join(out for _, out in first).encode()).hexdigest()
    return {"metrics": metrics, "measured_rounds": rounds, "scales": scales,
            "detail": detail_rates(jobs, job_times),
            "attempted": len(rounds) * len(jobs), "failed": failed, "errors": errors,
            "rounds": len(rounds), "digest": digest}


def check_round(checker: W.Checker, results, ok: list[bool]) -> list[str]:
    """Check every operation that succeeded; the bad resume is judged by its
    exit code and stderr alone."""
    errors = []
    outputs = {}
    checked = [job for (job, _), good in zip(results, ok) if good and job.kind != "bad_resume"]
    for job, proc in results:
        if job in checked:
            try:
                outputs[job.label] = json.loads(proc.stdout)["outputs"]
            except (ValueError, KeyError) as exc:
                errors.append(f"{job.label}: unreadable output: {exc!r}")
    for job in checked:
        try:
            checker.check(job, outputs[job.label], outputs)
        except (W.CheckFailed, KeyError, ValueError, TypeError) as exc:
            errors.append(f"{job.label}: {exc!r}")
    return errors


def detail_rates(jobs: list[W.Job], job_times: dict[str, list[float]]) -> dict:
    """The per-kind rates of each workload (work over the time of its jobs)."""
    work: dict[str, float] = {}
    busy: dict[str, float] = {}
    for job in jobs:
        for name, amount in job.rates.items():
            work[name] = work.get(name, 0) + amount * len(job_times[job.label])
            busy[name] = busy.get(name, 0) + sum(job_times[job.label])
    out = {}
    for name in work:
        if name == "exact_ind_s":
            times = [t for job in jobs if "exact_ind_s" in job.rates
                     for t in job_times[job.label]]
            out[name] = (statistics.median(times), "s")
        else:
            out[name] = (work[name] / busy[name], DETAIL_UNITS[name])
    return out


def load_package(root: Path) -> SimpleNamespace:
    """The public functions the traced run calls, from the checkout's src/."""
    sys.path.insert(0, str(root / "src"))
    import inducibility
    from inducibility import cli, mc, search

    names = {n: getattr(inducibility, n) for n in dir(inducibility) if not n.startswith("_")}
    return SimpleNamespace(**names, cli_main=cli.main,
                           run_bernoulli_streams=mc.run_bernoulli_streams,
                           load_checkpoint=search.load_checkpoint)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "inducibility" / "__init__.py").is_file():
        print("bench: run from a checkout root holding src/inducibility", file=sys.stderr)
        return 2
    broken = C.self_test()
    if broken:
        print("bench: checker self-test failed: " + "; ".join(broken), file=sys.stderr)
        return 2
    work_root = root / "bench" / "work"
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        if args.trace:
            return report_traced(args, root, workdir)
        return report(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(args, root: Path, workdir: Path) -> int:
    try:
        res = measure(args.workload, args.seed, args.seconds, root, workdir)
    except W.CheckFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(f"bench {args.workload} seed {args.seed}: {res['rounds']} rounds, "
          f"{res['attempted']} operations attempted, {res['failed']} failed")
    print(provenance(root))
    notes = {
        "wall_s": f"scaled median; measured rounds {quartiles(res['measured_rounds'])}, "
                  f"median {statistics.median(res['measured_rounds']):.4f} s; "
                  f"scales {quartiles(res['scales'])}",
        "setup_s": "scaled median of the probes",
        "peak_rss_mb": "highest of any job",
    }
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:<16} {value:12.4f} {unit:<10} {notes[name]}")
    for name, (value, unit) in res["detail"].items():
        print(f"  {name:<16} {value:12.4f} {unit:<10} detail, not gated")
    print(f"  job stdout sha256 {res['digest']}")
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }))
    return 0


def report_traced(args, root: Path, workdir: Path) -> int:
    import tracing

    pkg = load_package(root)
    jobs = W.make_jobs(args.workload, args.seed)
    try:
        res = tracing.traced_run(pkg, jobs, args.seed, workdir, job_env(root), W.Checker())
    except W.CheckFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    out_dir = root / "bench" / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_file = out_dir / f"{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "provenance": provenance(root),
        **res}, indent=1) + "\n", encoding="utf-8")
    print(f"bench {args.workload} seed {args.seed} traced: {res['attempted']} operations "
          f"attempted in-process, {res['failed']} failed; spans in {trace_file.relative_to(root)}")
    print(provenance(root))
    for name, m in res["layers"].items():
        print(f"  {name:<44} {m['value']:14.6g} {m['unit']:<13} "
              f"({m['work']} {m['work_unit']} in {m['seconds']:.4g} s)")
    print(f"  jobs untraced {res['plain_s']:.4f} s, traced {res['traced_s']:.4f} s")
    for module, seconds in sorted(res["self_s"].items()):
        print(f"  self time {module:<12} {seconds:10.4f} s")
    for err in res["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in res["layers"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
