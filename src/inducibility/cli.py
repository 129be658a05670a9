"""Command-line surface.

Every command prints exactly one strict JSON document (never a bare NaN or
Infinity) with the fields `command`, `inputs`, `outputs`, and `version`.
Exact rationals are rendered as "p/q" strings, approximate values as
decimals with 12 significant digits, and graphs as graph6, so commands pipe
into each other losslessly.  A report record (a named tuple) is rendered
as an object keyed by its `_fields`, so each output schema is defined once,
by the record, `MCEstimate` included.  Output is byte-identical across runs
for fixed flags and seeds; wall-clock timing is therefore only included
when --timing is passed, before or after the subcommand.

Each leaf command is one row of `COMMANDS`: its arguments and the function
that runs it.  The parser, the `inputs` echo and dispatch all read the
rows.  `inputs` holds the subcommand choice and every argument under its
dest, after conversion (a graph as graph6, `--p` as a reduced p/q); an
argument's row may echo it under another key or not at all, and may make
it depend on another flag (`when`).  A flag the chosen mode does not read
is left out, and set to anything but its default it exits 2.  A row's
function imports the modules it runs on first use, so a command loads only
those, and its elapsed_ms includes that import.

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
from collections import namedtuple
from fractions import Fraction
from importlib import import_module
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
_TOO_LONG = 10**DIGIT_LIMIT  # the least integer of more than DIGIT_LIMIT digits


def _fmt(value: Any) -> Any:
    """JSON-ready rendering: Fractions as p/q, floats at 12 significant digits,
    graphs as graph6, and a report record (a named tuple) as an object keyed
    by its `_fields`, checked before the other tuples.  An integer or a
    rational term of more than DIGIT_LIMIT digits is refused."""
    if isinstance(value, (int, Fraction)):
        if max(abs(value.numerator), value.denominator) >= _TOO_LONG:
            raise UnsupportedSizeError(f"an output value passes {DIGIT_LIMIT} digits")
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(format(value, ".12g"))
    if isinstance(value, Graph):
        return to_graph6(value)
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return {name: _fmt(v) for name, v in zip(value._fields, value)}
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


def _mc_samples(samples: int) -> int:
    """`convert` of the `--mc` flag of `classify` and `brightness`; it runs
    on every graph, while brightness_report runs only on 2 or more edges."""
    if samples < 0:
        raise InputError(f"mc samples must be >= 0, got {samples}")
    return samples


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


def _lib(module: str, name: str) -> Any:
    """`name` from the package's `module`, imported on first use."""
    return getattr(import_module(f"{__package__}.{module}"), name)


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


# -- what each command runs --------------------------------------------------


def _classify(a: argparse.Namespace) -> dict:
    h = a.graph
    prof = degree_profile(h)
    # first, so that an --mc it refuses costs none of the work below
    brightness = (_lib("brightness", "brightness_report")(h, mc_samples=a.mc, seed=a.seed)
                  if prof.edge_count >= 2 else None)
    number, witness = _lib("structure", "minimal_taming_number")(h)
    return {
        "n": h.n,
        "degrees": prof.degrees,
        "max_degree": prof.max_degree,
        "edges": prof.edge_count,
        "m": prof.m,
        "m1": prof.m1,
        "m_ge2": prof.m_ge2,
        **_fmt(_lib("structure", "classify_vertices")(h)),
        "minimal_taming_number": number,
        "taming_set": witness.v0,
        "brightness": brightness,
    }


def _tame(a: argparse.Namespace) -> Any:
    if a.set is not None:
        return _lib("structure", "tame_witness_from")(a.graph, a.set)
    number, witness = _lib("structure", "minimal_taming_number")(a.graph)
    return {"minimal_taming_number": number, **_fmt(witness)}


def _binom(a: argparse.Namespace) -> dict:
    # the denominator divides q^k for p = a/q in lowest terms; with
    # q >= 2 every k above 10^6 passes the limit
    _refuse_long_denominator(min(max(a.k, 0), 10**6) * math.log10(a.p.denominator))
    return {"value": _lib("proba", "binom_point")(a.k, a.p, a.s)}


def _hypergeom(a: argparse.Namespace) -> dict:
    params = _lib("proba", "HypergeomParams")(a.population, a.successes, a.sample, a.hits)
    _refuse_long_denominator(_log10_comb(a.population, a.sample))
    return {"value": _lib("proba", "hypergeom_point")(params)}


def _multi(a: argparse.Namespace) -> dict:
    _refuse_long_denominator(_log10_comb(a.population, a.sample))
    return {"value": _lib("proba", "multi_hypergeom_joint")(a.population, a.sample, a.parts, a.s)}


def _lambda(a: argparse.Namespace) -> dict:
    ls = _lib("proba", "lambda_split")(a.y, a.z)
    return {"lo": ls.lo, "hi": ls.hi, "lambda": ls.lam}


def _simulate(a: argparse.Namespace) -> dict:
    s = _lib("coloring", "simulate")(a.host, a.pattern, a.trials, a.seed, max_steps=a.max_steps)
    counts = {
        name.removeprefix("count_"): v
        for name, v in zip(s._fields, s)
        if name.startswith("count_")
    }
    ne = s.count_full_match
    return {
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


def _verify(a: argparse.Namespace) -> dict:
    timing = getattr(a, "timing", False)
    checks = []
    for r, seconds in _lib("verify", "run_suite")(a.suite):
        checks.append({"name": r.name, "ok": r.ok, "detail": r.detail})
        if timing:
            checks[-1]["elapsed_ms"] = int(seconds * 1000)
    failed = sum(not c["ok"] for c in checks)
    return {"suite": a.suite, "checks": checks, "passed": len(checks) - failed, "failed": failed}


# -- the command table -------------------------------------------------------

_REQUIRED = object()  # the default of an argument that must be given


class Arg(namedtuple("Arg", "flag type default key convert when help",
                     defaults=(int, _REQUIRED, "", None, "", None))):
    """One argument: a positional when `flag` has no leading dash, else a flag
    whose dest is its name with dashes as underscores.  `type` is its argparse
    type; without a `default` a flag is required.  `key` is the `inputs` key
    it is echoed under: "" for its dest, None for never.  `convert` runs after
    parsing, so its errors exit 2 through main.  A nonempty `when` names the
    dest that must be set (differ from its default) for the command to read
    this argument, or with a leading "!" be unset; otherwise it is not
    echoed, and is refused unless left at its own default."""

    __slots__ = ()

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


class Row(namedtuple("Row", "path help args run modes", defaults=((),))):
    """One leaf command: its subcommand path, help, `Arg`s, the function that
    runs it on the converted arguments and returns its outputs, and the
    store-true flags it requires exactly one of (`modes`, not echoed)."""

    __slots__ = ()


def _graph(name: str) -> Arg:
    return Arg(name, str, convert=_read_graph)


# each command with subcommands: the dest its choice is echoed under, and its help
GROUPS = {
    "construct": ("family", "lower-bound host constructions"),
    "bounds": ("formula", "closed-form bound formulas"),
    "proba": ("kind", "exact probability kernels"),
}
_MC = (Arg("--mc", default=100_000, convert=_mc_samples,
           help="Monte-Carlo samples for a core over the exact size limit"),
       Arg("--seed", default=0, help="seed of the Monte-Carlo samples"))

COMMANDS = {row.path: row for row in (
    Row(("classify",), "degree stats, vertex classes, taming, brightness",
        (_graph("graph"), *_MC), _classify),
    Row(("tame",), "taming witnesses",
        (_graph("graph"), Arg("--set", _int_list, None, when="set",
                              help="comma-separated seed set for the closure")), _tame),
    Row(("brightness",), "bright-labeling probability and bounds", (_graph("graph"), *_MC),
        lambda a: _lib("brightness", "brightness_report")(a.graph, mc_samples=a.mc, seed=a.seed)),
    Row(("density",), "induced density of pattern in host",
        (_graph("pattern"), _graph("host"), Arg("--mc", default=0, when="mc"),
         Arg("--seed", default=0, when="mc")),
        lambda a: {"mc": _lib("density", "induced_density_mc")(a.pattern, a.host, a.mc, a.seed)}
        if a.mc else _lib("density", "induced_density")(a.pattern, a.host)),
    Row(("ind",), "max induced density over n-vertex hosts",
        (_graph("pattern"), Arg("--n"), Arg("--iters", default=10_000, when="search"),
         Arg("--seed", default=0, when="search"),
         Arg("--checkpoint", str, None, when="search")),
        lambda a: _lib("search", "ind_exact")(a.pattern, a.n) if a.exact
        else _lib("search", "ind_local_search")(a.pattern, a.n, a.iters, a.seed,
                                                checkpoint=a.checkpoint),
        modes=("--exact", "--search")),
    Row(("construct", "split"), "complete bipartite host, r picks on the sigma side",
        (Arg("--k"), Arg("--r"), Arg("--n"), Arg("--sigma", _finite_float)),
        lambda a: _lib("constructions", "split_construction")(a.k, a.r, a.n, a.sigma)),
    Row(("construct", "gnp"), "G(n, 1/C(k,2)) host, an edge plus k - 2 isolated vertices",
        (Arg("--k"), Arg("--n"), Arg("--seed", default=0)),
        lambda a: _lib("constructions", "gnp_construction")(a.k, a.n, a.seed)),
    Row(("construct", "split-plus-edge"), "small side cliqued and joined to the rest",
        (Arg("--k"), Arg("--n")),
        lambda a: _lib("constructions", "split_plus_edge")(a.k, a.n)),
    Row(("construct", "blowup"), "blow-up of a pattern tamed by --v0",
        (_graph("graph"), Arg("--v0", _int_list, "", help="comma-separated taming set"),
         Arg("--n")),
        lambda a: _lib("constructions", "dtame_blowup")(a.graph, a.v0, a.n)),
    Row(("bounds", "phi"), "s^s / (s! e^s)", (Arg("--s", _positive_int),),
        lambda a: {"value": _lib("bounds", "phi")(a.s)}),
    Row(("bounds", "high-degree"), "phi(s) times --ind-reduced, or phi(s) phi(t)",
        (Arg("--s", _positive_int), Arg("--t", _positive_int, None, when="t"),
         Arg("--ind-reduced", _finite_float, 1.0, when="!t")),
        lambda a: {"value": _lib("bounds", "high_degree_bound")(a.s, a.ind_reduced)
                   if a.t is None else _lib("bounds", "high_degree_pair_bound")(a.s, a.t)}),
    Row(("bounds", "uniform"), "f and 2 (phi(tau)/beta)^f",
        (Arg("--tau", _positive_int), Arg("--beta", _finite_float), Arg("--eps", _finite_float)),
        lambda a: dict(zip(("f", "value"),
                           _lib("bounds", "uniform_degree_bound")(a.tau, a.beta, a.eps)))),
    Row(("bounds", "sparse"), "the sparse-regime bound",
        (Arg("--alpha", _finite_float), Arg("--nu", _finite_float)),
        lambda a: {"value": _lib("bounds", "sparse_regime_bound")(a.alpha, a.nu)}),
    Row(("bounds", "gap"), "first degree-free interval below eps k",
        (_graph("graph"), Arg("--eps", _finite_float), Arg("--c", _finite_float, key="C")),
        lambda a: _lib("bounds", "find_degree_gap")(a.graph, a.eps, a.c)),
    # the selector's flags are echoed in its outputs.inputs
    Row(("bounds", "select"), "pick the applicable bound regime",
        (_graph("graph"), Arg("--c", _finite_float, 1.0, key=None),
         *(Arg(f"--{name}", _finite_float, None, key=None) for name in ("eps", "alpha", "beta"))),
        lambda a: _lib("bounds", "regime_selector")(a.graph, _lib("bounds", "SelectorParams")(
            C=a.c, eps=a.eps, alpha=a.alpha, beta=a.beta))),
    Row(("bounds", "alpha"), "largest alpha keeping the sparse bound below 1/e", (),
        lambda a: dict(zip(("alpha", "c"), _lib("bounds", "find_sparse_alpha")()))),
    Row(("bounds", "solve-eps"), "largest eps with 2 (2/e)^(sqrt(1/(8 C eps)) - 1) <= 2/e^2",
        (Arg("--c", _finite_float, 1.0, key="C"),),
        lambda a: {"eps": _lib("bounds", "solve_epsilon")(a.c)}),
    Row(("proba", "binom"), "C(k,s) p^s (1-p)^(k-s)",
        (Arg("--k"), Arg("--p", str, convert=_parse_rational, help="rational like 1/3"),
         Arg("--s")), _binom),
    Row(("proba", "hypergeom"), "C(r,s) C(n-r,k-s) / C(n,k)",
        (Arg("--population"), Arg("--successes"), Arg("--sample"), Arg("--hits")), _hypergeom),
    Row(("proba", "multi"), "a uniform sample meets every part in s elements",
        (Arg("--population"), Arg("--sample"),
         Arg("--parts", _int_list, "", help="comma-separated part sizes"), Arg("--s")), _multi),
    Row(("proba", "lambda"), "a weight between y^2 e^(2-y-z)/4 and 1 - z e^(1-y-z)",
        (Arg("--y", _finite_float), Arg("--z", _finite_float)), _lambda),
    Row(("simulate-coloring",), "black/green/red stream simulation",
        (_graph("host"), _graph("pattern"), Arg("--trials"), Arg("--seed", default=0),
         Arg("--max-steps", default=None, when="max_steps")), _simulate),
    Row(("verify",), "run a named invariant suite",
        (Arg("suite", _suite, help="a suite of inducibility.verify, or all"),), _verify),
)}


# -- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> NoReturn:
        """Report a malformed command line as the one-line JSON error, exit 2."""
        error = f"{self.prog}: {message}"
        print(json.dumps({"error": error, "exit": EXIT_BAD_INPUT}), file=sys.stderr)
        sys.exit(EXIT_BAD_INPUT)


def _timed(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """`parser` with --timing, so the flag may follow the subcommand; it stays
    unset unless given, so a subparser never resets it."""
    parser.add_argument("--timing", action="store_true", default=argparse.SUPPRESS,
                        help="include elapsed_ms in the output JSON")
    return parser


def _row_named(argv: list[str]) -> Row | None:
    """The row whose path is the first words of `argv`, --timing aside."""
    words = [w for w in argv if w != "--timing"]
    return COMMANDS.get(tuple(words[:1])) or COMMANDS.get(tuple(words[:2]))


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser of COMMANDS.  When `argv` opens with a row's path, only the
    parsers on that path are built.  Otherwise every group and leaf is a
    choice with its help, so help text and "invalid choice" errors list them
    all, and the parsers on the path the words of `argv` name (all of them
    when `argv` is None) also get -h, --timing and their arguments.  No other
    parser reads `argv`, since the ones above a leaf take no flag values.  A
    parsed leaf's `row` is its row."""
    row = None if argv is None else _row_named(argv)
    words = None if argv is None else [w for w in argv if not w.startswith("-")]

    def named(path: tuple[str, ...]) -> bool:
        return words is None or tuple(words[: len(path)]) == path

    parser = _timed(_Parser(
        prog="inducibility",
        description="Exact induced-density toolkit for small graphs"
        " (graphs in and out as graph6; '-' reads one line from stdin).",
    ))
    levels = {(): parser.add_subparsers(dest="cmd", required=True)}
    for row in COMMANDS.values() if row is None else (row,):
        *group, name = row.path
        group = tuple(group)
        if group not in levels:
            dest, text = GROUPS[group[0]]
            p = levels[()].add_parser(group[0], help=text, add_help=named(group))
            if named(group):
                _timed(p)
            levels[group] = p.add_subparsers(dest=dest, required=True)
        if not named(row.path):
            levels[group].add_parser(name, help=row.help, add_help=False)
            continue
        p = _timed(levels[group].add_parser(name, help=row.help, description=row.help))
        p.set_defaults(row=row)
        if row.modes:
            mode = p.add_mutually_exclusive_group(required=True)
            for flag in row.modes:
                mode.add_argument(flag, action="store_true")
        for arg in row.args:
            if not arg.flag.startswith("-"):
                p.add_argument(arg.flag, type=arg.type, help=arg.help)
            elif arg.default is _REQUIRED:
                p.add_argument(arg.flag, type=arg.type, required=True, help=arg.help)
            else:
                p.add_argument(arg.flag, type=arg.type, default=arg.default, help=arg.help)
    return parser


def _inputs(args: argparse.Namespace) -> dict:
    """Refuse a flag the chosen mode does not read, convert the arguments in
    place, and return the `inputs` echo of the parsed command."""
    row = args.row
    given = {a.dest for a in row.args if getattr(args, a.dest) != a.default}
    given.update(flag[2:] for flag in row.modes if getattr(args, flag[2:]))
    inputs = {GROUPS[args.cmd][0]: row.path[1]} if args.cmd in GROUPS else {}
    for arg in row.args:
        other, unset = arg.when.lstrip("!"), arg.when.startswith("!")
        if arg.when and (other in given) == unset:
            if arg.dest in given:
                raise InputError(f"{' '.join(row.path)}: {arg.flag} is not read"
                                 f" {'with' if unset else 'without'} --{other.replace('_', '-')}")
            continue
        if arg.convert:
            setattr(args, arg.dest, arg.convert(getattr(args, arg.dest)))
        if arg.key is not None:
            inputs[arg.key or arg.dest] = getattr(args, arg.dest)
    return inputs


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    start = time.monotonic()
    try:
        inputs = _inputs(args)
        outputs = args.row.run(args)
        # only verify's outputs count failed checks
        failed = isinstance(outputs, dict) and outputs.get("failed")
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
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
