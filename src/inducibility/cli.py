"""Command-line surface.

Every command prints exactly one strict JSON document (never a bare NaN or
Infinity) with the fields `command`, `inputs`, `outputs`, and `version`.
Exact rationals are rendered as "p/q" strings, approximate values as
decimals with 12 significant digits, and graphs as graph6, so commands pipe
into each other losslessly.  A report dataclass is rendered as an object
keyed by its field names, so each output schema is defined once, by the
dataclass, `MCEstimate` included.  Output is byte-identical across runs
for fixed flags and seeds; wall-clock timing is therefore only included
when --timing is passed, before or after the subcommand.  Each handler
imports the modules it runs, so a command loads only those, and its
elapsed_ms includes that import.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3
precondition or size-limit violation, 4 internal error.  Errors are one JSON
line `{"error", "exit"}` on stderr; that includes argparse's own errors (a
missing subcommand, a malformed or non-finite flag value), which exit 2
instead of printing usage text.  Exit 4 is any other exception, which is
a bug, a NaN or infinite output value included; its error names the
exception type, message and innermost source line, and no traceback is
printed.  A reader that closes stdout before the document is written
(`... | head -c 1`) gets no traceback: the command still exits with its
own code, 0 on success and 1 on a failed verification.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from typing import Any, NoReturn

from . import __version__
from .errors import (
    CheckpointError,
    InputError,
    PreconditionError,
    UnsupportedSizeError,
)
from .graphs import Graph, degree_profile, parse_graph6, to_graph6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4

DIGIT_LIMIT = 4300  # CPython's default cap on the digits str(int) converts


def _fmt(value: Any) -> Any:
    """JSON-ready rendering: Fractions as p/q, floats at 12 significant digits,
    graphs as graph6, and any other report dataclass as an object keyed by its
    field names."""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, Graph):
        return to_graph6(value)
    if is_dataclass(value):
        return {f.name: _fmt(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return [_fmt(v) for v in sorted(value)]
    return value


def _document(command: str, inputs: dict, outputs: Any, timing_ms: int | None) -> str:
    """The output document as strict JSON: a NaN or infinite value raises
    ValueError, so it is reported as an internal error, never printed."""
    doc = {
        "command": command,
        "inputs": _fmt(inputs),
        "outputs": _fmt(outputs),
        "version": __version__,
    }
    if timing_ms is not None:
        doc["elapsed_ms"] = timing_ms
    return json.dumps(doc, sort_keys=True, separators=(", ", ": "), allow_nan=False)


def _emit(text: str) -> None:
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the interpreter's
        # final flush of what is still buffered cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _read_graph(arg: str) -> Graph:
    text = sys.stdin.readline() if arg == "-" else arg
    return parse_graph6(text)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"cannot parse rational {text!r}: {exc}") from None


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: NaN and infinities are rejected."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for integer flags that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    """argparse type for comma-separated integers; the empty string is []."""
    try:
        return [int(x) for x in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _suite(text: str) -> str:
    """argparse type for the verify suite; `verify` is imported only when
    that subcommand is parsed."""
    from .verify import SUITES

    names = [*SUITES, "all"]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, names))})"
        )
    return text


# -- command handlers -------------------------------------------------------


def _cmd_classify(args) -> tuple[dict, Any]:
    from .brightness import brightness_report
    from .structure import classify_vertices, minimal_taming_number

    h = _read_graph(args.graph)
    if args.mc < 0:  # brightness_report rejects it too, but runs only on 2 or more edges
        raise InputError(f"mc samples must be >= 0, got {args.mc}")
    prof = degree_profile(h)
    number, witness = minimal_taming_number(h)
    outputs = {
        "n": h.n,
        "degrees": prof.degrees,
        "max_degree": prof.max_degree,
        "edges": prof.edge_count,
        "m": prof.m,
        "m1": prof.m1,
        "m_ge2": prof.m_ge2,
        **_fmt(classify_vertices(h)),
        "minimal_taming_number": number,
        "taming_set": witness.v0,
        "brightness": brightness_report(h, mc_samples=args.mc, seed=args.seed)
        if prof.edge_count >= 2 else None,
    }
    return {"graph": to_graph6(h), "mc": args.mc, "seed": args.seed}, outputs


def _cmd_tame(args) -> tuple[dict, Any]:
    from .structure import minimal_taming_number, tame_witness_from

    h = _read_graph(args.graph)
    inputs: dict[str, Any] = {"graph": to_graph6(h)}
    if args.set is not None:
        inputs["set"] = args.set
        return inputs, tame_witness_from(h, args.set)
    number, witness = minimal_taming_number(h)
    return inputs, {"minimal_taming_number": number, **_fmt(witness)}


def _cmd_brightness(args) -> tuple[dict, Any]:
    from .brightness import brightness_report

    h = _read_graph(args.graph)
    rep = brightness_report(h, mc_samples=args.mc, seed=args.seed)
    return {"graph": to_graph6(h), "mc": args.mc, "seed": args.seed}, rep


def _cmd_density(args) -> tuple[dict, Any]:
    from .density import induced_density, induced_density_mc

    h = _read_graph(args.pattern)
    g = _read_graph(args.host)
    inputs = {"pattern": to_graph6(h), "host": to_graph6(g)}
    if args.mc:
        inputs.update({"mc": args.mc, "seed": args.seed})
        return inputs, {"mc": induced_density_mc(h, g, args.mc, args.seed)}
    return inputs, induced_density(h, g)


def _cmd_ind(args) -> tuple[dict, Any]:
    from .search import ind_exact, ind_local_search

    h = _read_graph(args.pattern)
    inputs: dict[str, Any] = {"pattern": to_graph6(h), "n": args.n}
    if args.exact:
        return inputs, ind_exact(h, args.n)
    inputs.update({"iters": args.iters, "seed": args.seed, "checkpoint": args.checkpoint})
    return inputs, ind_local_search(h, args.n, args.iters, args.seed, checkpoint=args.checkpoint)


def _cmd_construct(args) -> tuple[dict, Any]:
    from .constructions import dtame_blowup, gnp_construction, split_construction, split_plus_edge

    if args.family == "split":
        rep = split_construction(args.k, args.r, args.n, args.sigma)
        inputs = {"family": "split", "k": args.k, "r": args.r, "n": args.n,
                  "sigma": args.sigma}
    elif args.family == "gnp":
        rep = gnp_construction(args.k, args.n, args.seed)
        inputs = {"family": "gnp", "k": args.k, "n": args.n, "seed": args.seed}
    elif args.family == "split-plus-edge":
        rep = split_plus_edge(args.k, args.n)
        inputs = {"family": "split-plus-edge", "k": args.k, "n": args.n}
    else:
        h = _read_graph(args.graph)
        rep = dtame_blowup(h, args.v0, args.n)
        inputs = {"family": "blowup", "graph": to_graph6(h), "v0": args.v0, "n": args.n}
    return inputs, rep


def _cmd_bounds(args) -> tuple[dict, Any]:
    from .bounds import (
        SelectorParams,
        find_degree_gap,
        find_sparse_alpha,
        high_degree_bound,
        high_degree_pair_bound,
        phi,
        regime_selector,
        solve_epsilon,
        sparse_regime_bound,
        uniform_degree_bound,
    )

    formula = args.formula
    if formula == "phi":
        return {"formula": "phi", "s": args.s}, {"value": phi(args.s)}
    if formula == "high-degree":
        if args.t is not None:
            value = high_degree_pair_bound(args.s, args.t)
            return (
                {"formula": "high-degree", "s": args.s, "t": args.t},
                {"value": value},
            )
        value = high_degree_bound(args.s, args.ind_reduced)
        return (
            {"formula": "high-degree", "s": args.s, "ind_reduced": args.ind_reduced},
            {"value": value},
        )
    if formula == "uniform":
        f, value = uniform_degree_bound(args.tau, args.beta, args.eps)
        return (
            {"formula": "uniform", "tau": args.tau, "beta": args.beta,
             "eps": args.eps},
            {"f": f, "value": value},
        )
    if formula == "sparse":
        value = sparse_regime_bound(args.alpha, args.nu)
        return (
            {"formula": "sparse", "alpha": args.alpha, "nu": args.nu},
            {"value": value},
        )
    if formula == "gap":
        h = _read_graph(args.graph)
        return (
            {"formula": "gap", "graph": to_graph6(h), "eps": args.eps, "C": args.c},
            find_degree_gap(h, args.eps, args.c),
        )
    if formula == "select":
        h = _read_graph(args.graph)
        params = SelectorParams(
            C=args.c, eps=args.eps_opt, alpha=args.alpha_opt, beta=args.beta_opt,
        )
        return {"formula": "select", "graph": to_graph6(h)}, regime_selector(h, params)
    if formula == "alpha":
        alpha, c = find_sparse_alpha()
        return {"formula": "alpha"}, {"alpha": alpha, "c": c}
    # formula == "solve-eps"
    return {"formula": "solve-eps", "C": args.c}, {"eps": solve_epsilon(args.c)}


def _log10_comb(n: int, k: int) -> float:
    """log10 C(n, k) as the sum of log10((n - i) / (i + 1)) over i < min(k, n - k),
    0 outside 0 < k < n.  Each term is positive, and the first 14,300 sum to at
    least log10 C(28,600, 14,300) > 8,600, so longer sums stop there."""
    return sum(math.log10(n - i) - math.log10(i + 1) for i in range(min(k, n - k, 14_300)))


def _refuse_long_denominator(log10_denominator: float) -> None:
    """An exact value whose denominator could pass DIGIT_LIMIT digits cannot be
    printed, and computing it can take unbounded time."""
    if log10_denominator >= DIGIT_LIMIT:
        raise UnsupportedSizeError(f"the exact value's denominator could pass {DIGIT_LIMIT} digits")


def _cmd_proba(args) -> tuple[dict, dict]:
    from .proba import HypergeomParams, binom_point, hypergeom_point, lambda_split, multi_hypergeom_joint

    kind = args.kind
    if kind == "binom":
        p = _parse_rational(args.p)
        # the denominator divides q^k for p = a/q in lowest terms; with
        # q >= 2 every k above 10^6 passes the limit
        _refuse_long_denominator(min(max(args.k, 0), 10**6) * math.log10(p.denominator))
        value = binom_point(args.k, p, args.s)
        return {"kind": "binom", "k": args.k, "p": p, "s": args.s}, {"value": value}
    if kind == "hypergeom":
        params = HypergeomParams(args.population, args.successes, args.sample, args.hits)
        _refuse_long_denominator(_log10_comb(args.population, args.sample))
        return (
            {
                "kind": "hypergeom",
                "population": args.population,
                "successes": args.successes,
                "sample": args.sample,
                "hits": args.hits,
            },
            {"value": hypergeom_point(params)},
        )
    if kind == "multi":
        _refuse_long_denominator(_log10_comb(args.population, args.sample))
        value = multi_hypergeom_joint(args.population, args.sample, args.parts, args.s)
        return (
            {
                "kind": "multi",
                "population": args.population,
                "sample": args.sample,
                "parts": args.parts,
                "s": args.s,
            },
            {"value": value},
        )
    # kind == "lambda"
    ls = lambda_split(args.y, args.z)
    return (
        {"kind": "lambda", "y": args.y, "z": args.z},
        {"lo": ls.lo, "hi": ls.hi, "lambda": ls.lam},
    )


def _cmd_simulate(args) -> tuple[dict, dict]:
    from .coloring import simulate

    g = _read_graph(args.host)
    h = _read_graph(args.pattern)
    s = simulate(g, h, args.trials, args.seed, max_steps=args.max_steps)
    counts = {
        f.name.removeprefix("count_"): getattr(s, f.name)
        for f in fields(s)
        if f.name.startswith("count_")
    }
    ne = s.count_full_match
    outputs = {
        "trials": s.trials,
        "truncated": s.truncated,
        "counts": counts,
        "violations": {
            "match_outside_signatures": s.match_outside_signatures,
            "isolated_nonblack": s.isolated_nonblack_violations,
        },
        "frequencies": {
            key: s.freq(counts[key]) for key in ("full_match", "two_green", "one_red")
        },
        "conditional": {
            f"{key}_given_match": s.conditional(counts[f"{key}_and_match"], ne)
            for key in ("two_green", "one_red", "consecutive")
        },
    }
    return (
        {
            "host": to_graph6(g),
            "pattern": to_graph6(h),
            "trials": args.trials,
            "seed": args.seed,
        },
        outputs,
    )


def _cmd_verify(args) -> tuple[dict, dict, int]:
    from .verify import run_suite

    timing = getattr(args, "timing", False)
    checks = []
    for r, seconds in run_suite(args.suite):
        checks.append({"name": r.name, "ok": r.ok, "detail": r.detail})
        if timing:
            checks[-1]["elapsed_ms"] = int(seconds * 1000)
    failed = sum(not c["ok"] for c in checks)
    outputs = {
        "suite": args.suite,
        "checks": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    }
    code = EXIT_OK if not failed else EXIT_VERIFY_FAILED
    return {"suite": args.suite}, outputs, code


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every (sub)command parser takes --timing, so the flag may follow the
    subcommand; it stays unset unless given, so a subparser never resets it."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                          help="include elapsed_ms in the output JSON")

    def error(self, message: str) -> NoReturn:
        """Report a malformed command line as the one-line JSON error, exit 2."""
        error = f"{self.prog}: {message}"
        print(json.dumps({"error": error, "exit": EXIT_BAD_INPUT}), file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="inducibility",
        description="Exact induced-density toolkit for small graphs"
        " (graphs in and out as graph6; '-' reads one line from stdin).",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("classify", help="degree stats, vertex classes, taming, brightness")
    p.add_argument("graph")
    p.add_argument("--mc", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tame", help="taming witnesses")
    p.add_argument("graph")
    p.add_argument("--set", type=_int_list, default=None,
                   help="comma-separated seed set for the closure")

    p = sub.add_parser("brightness", help="bright-labeling probability and bounds")
    p.add_argument("graph")
    p.add_argument("--mc", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("density", help="induced density of pattern in host")
    p.add_argument("pattern")
    p.add_argument("host")
    p.add_argument("--mc", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ind", help="max induced density over n-vertex hosts")
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exact", action="store_true")
    mode.add_argument("--search", action="store_true")
    p.add_argument("--iters", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", default=None)

    p = sub.add_parser("construct", help="lower-bound host constructions")
    fam = p.add_subparsers(dest="family", required=True)
    q = fam.add_parser("split")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--sigma", type=_finite_float, required=True)
    q = fam.add_parser("gnp")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q = fam.add_parser("split-plus-edge")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = fam.add_parser("blowup")
    q.add_argument("graph")
    q.add_argument("--v0", type=_int_list, default="", help="comma-separated taming set")
    q.add_argument("--n", type=int, required=True)

    p = sub.add_parser("bounds", help="closed-form bound formulas")
    form = p.add_subparsers(dest="formula", required=True)
    q = form.add_parser("phi")
    q.add_argument("--s", type=_positive_int, required=True)
    q = form.add_parser("high-degree")
    q.add_argument("--s", type=_positive_int, required=True)
    q.add_argument("--t", type=_positive_int, default=None)
    q.add_argument("--ind-reduced", type=_finite_float, default=1.0, dest="ind_reduced")
    q = form.add_parser("uniform")
    q.add_argument("--tau", type=_positive_int, required=True)
    q.add_argument("--beta", type=_finite_float, required=True)
    q.add_argument("--eps", type=_finite_float, required=True)
    q = form.add_parser("sparse")
    q.add_argument("--alpha", type=_finite_float, required=True)
    q.add_argument("--nu", type=_finite_float, required=True)
    q = form.add_parser("gap")
    q.add_argument("graph")
    q.add_argument("--eps", type=_finite_float, required=True)
    q.add_argument("--c", type=_finite_float, required=True)
    q = form.add_parser("select")
    q.add_argument("graph")
    q.add_argument("--c", type=_finite_float, default=1.0)
    q.add_argument("--eps", type=_finite_float, default=None, dest="eps_opt")
    q.add_argument("--alpha", type=_finite_float, default=None, dest="alpha_opt")
    q.add_argument("--beta", type=_finite_float, default=None, dest="beta_opt")
    q = form.add_parser("alpha")
    q = form.add_parser("solve-eps")
    q.add_argument("--c", type=_finite_float, default=1.0)

    p = sub.add_parser("proba", help="exact probability kernels")
    kind = p.add_subparsers(dest="kind", required=True)
    q = kind.add_parser("binom")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--p", required=True, help="rational like 1/3")
    q.add_argument("--s", type=int, required=True)
    q = kind.add_parser("hypergeom")
    q.add_argument("--population", type=int, required=True)
    q.add_argument("--successes", type=int, required=True)
    q.add_argument("--sample", type=int, required=True)
    q.add_argument("--hits", type=int, required=True)
    q = kind.add_parser("multi")
    q.add_argument("--population", type=int, required=True)
    q.add_argument("--sample", type=int, required=True)
    q.add_argument("--parts", type=_int_list, default="", help="comma-separated part sizes")
    q.add_argument("--s", type=int, required=True)
    q = kind.add_parser("lambda")
    q.add_argument("--y", type=_finite_float, required=True)
    q.add_argument("--z", type=_finite_float, required=True)

    p = sub.add_parser("simulate-coloring", help="black/green/red stream simulation")
    p.add_argument("host")
    p.add_argument("pattern")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=int, default=None, dest="max_steps")

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", type=_suite, help="a suite of inducibility.verify, or all")
    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "tame": _cmd_tame,
    "brightness": _cmd_brightness,
    "density": _cmd_density,
    "ind": _cmd_ind,
    "construct": _cmd_construct,
    "bounds": _cmd_bounds,
    "proba": _cmd_proba,
    "simulate-coloring": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        if args.cmd == "verify":
            inputs, outputs, code = _cmd_verify(args)
        else:
            inputs, outputs = _HANDLERS[args.cmd](args)
            code = EXIT_OK
        timing = getattr(args, "timing", False)
        elapsed = int((time.monotonic() - start) * 1000) if timing else None
        text = _document(args.cmd, inputs, outputs, elapsed)
    except (InputError, CheckpointError) as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_BAD_INPUT}), file=sys.stderr)
        return EXIT_BAD_INPUT
    except (PreconditionError, UnsupportedSizeError) as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_LIMIT}), file=sys.stderr)
        return EXIT_LIMIT
    except Exception as exc:
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        error = (
            f"internal error: {type(exc).__name__}: {exc}"
            f" ({os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno})"
        )
        print(json.dumps({"error": error, "exit": EXIT_INTERNAL}), file=sys.stderr)
        return EXIT_INTERNAL
    _emit(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
