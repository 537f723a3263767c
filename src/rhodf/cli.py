"""Command line front end.

Subcommands: ``close`` materializes a closure, ``entail`` decides a
judgment, ``model`` prints the canonical interpretation, ``gen`` emits
a benchmark family, ``stats`` summarizes a closure run.

A command loads only the modules it runs.  This module imports
:mod:`~rhodf.core`, :mod:`~rhodf.parser` and :mod:`~rhodf.reasoner`,
which ``close`` and ``stats`` need.  ``entail`` loads
:mod:`~rhodf.entailment`, ``model`` loads :mod:`~rhodf.semantics`, and
``gen`` loads :mod:`~rhodf.generators`, each when it runs.  The
functions they use are attributes of this module all the same,
resolved on first use, and the subcommands call them through this
module's namespace, so a caller that replaces one here, as a tracer
does, replaces what runs.

Exit codes: 0 success (and "holds" for entail), 1 judgment does not
hold, 2 parse or usage error or an unreadable input file, 3 closure cap
exceeded, 4 search budget exceeded, 5 internal error, with the
traceback on stderr; any exception not listed here, a ``ValueError``
included, is an internal error.  Graph
arguments name files, with ``-`` for stdin; ``--out`` redirects output,
with ``-`` for stdout.  Setting RHODF_COLOR=1 turns on ANSI colors for
the verdict lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import Graph
from .parser import GraphParseError, parse_graph, serialize_graph, serialize_term, serialize_triple
from .reasoner import ClosureCapError, RuleId, closure

# The names the other subcommands use, each loaded with its module on first use.
_LAZY = ("SearchBudgetExceeded", "entails", "canonical_model", "check_model", "serialize_interpretation", "cubic", "spchain")


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(sys.modules[__package__], name)  # the package loads the module that has it


def _lazy(name: str):
    """A name of ``_LAZY`` as this module's namespace has it, replacements included."""
    return globals()[name] if name in globals() else __getattr__(name)


EXIT_OK = 0
EXIT_DOES_NOT_HOLD = 1
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_BUDGET = 4
EXIT_INTERNAL = 5


def _color_enabled() -> bool:
    return os.environ.get("RHODF_COLOR", "0") == "1"


def _verdict(text: str, good: bool) -> str:
    if _color_enabled():
        code = "32" if good else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(path: str) -> Graph:
    try:
        return parse_graph(_read_source(path))
    except GraphParseError as exc:
        exc.path = path
        raise


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)


def _report_parse_errors(path: str, err: GraphParseError) -> None:
    for e in err.errors:
        print(f"{path}:{e.span}: {e.kind} error: {e.message}", file=sys.stderr)


def _trace_text(graph) -> str:
    """The closure graph's lines, each derived triple's with its rule and
    premises, from one string per term id and per triple, as
    :func:`serialize_graph` writes them; whole lines sort as their
    triples do."""
    terms = list(map(serialize_term, graph._index.table.terms))
    triple = {key: f"{terms[key[0]]} {terms[key[1]]} {terms[key[2]]}" for key in graph._keys}
    lines: List[str] = []
    for key, step in graph._keys.items():
        if step is None:
            lines.append(f"{triple[key]} .\n")
        else:
            lines.append(f"{triple[key]} . # {step[0]}: {' ; '.join([triple[k] for k in step[1]])}\n")
    return "".join(sorted(lines))


def cmd_close(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = closure(g, args.mode, cap=args.cap)
    _write(args.out, (_trace_text if args.trace else serialize_graph)(result.closure))
    return EXIT_OK


def _format_proof(proof) -> str:
    index = {}
    lines = []
    for n, step in enumerate(proof, start=1):
        if step.conclusion is not None:
            index[step.conclusion] = n
        refs = ",".join(f"({index[p]})" for p in step.premises if p in index)
        if step.rule is RuleId.R1A:
            mapping = " ".join(
                f"{serialize_term(k)} -> {serialize_term(v)}" for k, v in sorted(step.map.items(), key=lambda kv: kv[0].name)
            )
            goal = " ; ".join(serialize_triple(t)[:-2] for t in step.targets)
            suffix = f" [{mapping}]" if mapping else ""
            lines.append(f"({n}) {goal} by rule 1a from {refs}{suffix}\n")
        elif step.rule is RuleId.R1B:
            lines.append(f"({n}) {serialize_triple(step.conclusion)[:-2]} from the input graph\n")
        else:
            lines.append(f"({n}) {serialize_triple(step.conclusion)[:-2]} by rule {step.rule} from {refs}\n")
    return "".join(lines)


def cmd_entail(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    h = _load_graph(args.query)
    try:
        report = _lazy("entails")(g, h, args.mode, cap=args.cap, budget=args.budget, with_proof=args.proof)
    except _lazy("SearchBudgetExceeded") as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    chunks: List[str] = []
    if report.holds:
        chunks.append(_verdict("entailed", True) + "\n")
        if report.map is not None and len(report.map):
            for k, v in sorted(report.map.items(), key=lambda kv: kv[0].name):
                chunks.append(f"map {serialize_term(k)} -> {serialize_term(v)}\n")
        if args.proof and report.proof is not None:
            chunks.append(_format_proof(report.proof))
        _write(args.out, "".join(chunks))
        return EXIT_OK
    chunks.append(_verdict("not entailed", False) + "\n")
    for t in report.missing:
        chunks.append(f"unmatched {serialize_triple(t)}\n")
    _write(args.out, "".join(chunks))
    return EXIT_DOES_NOT_HOLD


def cmd_model(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    model = _lazy("canonical_model")(g, cap=args.cap)
    report = _lazy("check_model")(model, g)
    chunks = [_lazy("serialize_interpretation")(model)]
    if report.satisfied:
        chunks.append(_verdict("satisfiable", True) + "\n")
    else:
        chunks.append(_verdict("not satisfied", False) + "\n")
        for v in report.violations:
            chunks.append(f"violation {v}\n")
    _write(args.out, "".join(chunks))
    return EXIT_OK if report.satisfied else EXIT_DOES_NOT_HOLD


def cmd_gen(args: argparse.Namespace) -> int:
    g = _lazy(args.family)(args.n)  # each family is named after its generator
    _write(args.out, serialize_graph(g))
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph)
    result = closure(g, args.mode, cap=args.cap)
    lines = [
        f"input triples: {len(g)}",
        f"closure triples: {result.stats.output_size}",
        f"iterations: {result.stats.iterations}",
    ]
    for rule_id, count in sorted(result.stats.rule_fire_counts.items()):
        if count:
            lines.append(f"rule {rule_id} fired: {count}")
    lines.append("round deltas: " + " ".join(map(str, result.stats.round_deltas)))
    listed = sorted(result.stats.rule_candidates.items())
    lines.append("rule candidates: " + " ".join(f"{rule_id}={count}" for rule_id, count in listed if count))
    lines.append(f"wall time: {result.stats.elapsed_s:.4f}s")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rhodf",
        description="Closure, entailment and model tools for RDFS graphs with negation, star terms and disjointness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = False) -> None:
        p.add_argument("--mode", choices=("rdf", "full"), default="full", help="rule set to apply")
        p.add_argument("--cap", type=_positive_int, default=None, help="closure triple cap")
        p.add_argument("--out", default=None, help="output file, - for stdout")
        if budget:
            p.add_argument("--budget", type=_positive_int, default=None, help="candidate budget for the blank-node search")

    p_close = sub.add_parser("close", help="materialize the closure of a graph")
    p_close.add_argument("graph", help="graph file, - for stdin")
    p_close.add_argument("--trace", action="store_true", help="annotate derived triples with rule and premises")
    common(p_close)
    p_close.set_defaults(func=cmd_close)

    p_entail = sub.add_parser("entail", help="decide whether a graph entails a query graph")
    p_entail.add_argument("graph", help="graph file, - for stdin")
    p_entail.add_argument("query", help="query graph file")
    p_entail.add_argument("--proof", action="store_true", help="print a derivation when the judgment holds")
    common(p_entail, budget=True)
    p_entail.set_defaults(func=cmd_entail)

    p_model = sub.add_parser("model", help="print the canonical interpretation of a graph")
    p_model.add_argument("graph", help="graph file, - for stdin")
    common(p_model)
    p_model.set_defaults(func=cmd_model)

    p_gen = sub.add_parser("gen", help="emit a benchmark graph family")
    p_gen.add_argument("family", choices=("spchain", "cubic"))
    p_gen.add_argument("n", type=_positive_int)
    p_gen.add_argument("--out", default=None, help="output file, - for stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_stats = sub.add_parser("stats", help="closure size and rule fire counts")
    p_stats.add_argument("graph", help="graph file, - for stdin")
    common(p_stats)
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GraphParseError as exc:
        _report_parse_errors(getattr(exc, "path", "<input>"), exc)
        return EXIT_PARSE
    except (OSError, UnicodeDecodeError) as exc:
        # An unreadable or non-UTF-8 input file is the user's error.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ClosureCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception:
        # Anything else is a fault of the program, never a verdict.
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
