"""Command-line front end.

Commands operate on grammar directories: a folder of ``.gpr`` rules,
``.gty`` type graphs, ``.gst`` graphs and an optional ``grammar.cfg``.

Exit codes: 0 success, 1 semantic violations (or failing suite fixtures),
2 usage/parse/IO errors, 3 rule not applicable, 4 exploration truncated.
Diagnostics go to stderr as ``FILE:LINE:COL: error: message``; set
GTX_COLOR to ``always`` or ``never`` to override color autodetection.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .dsl import Grammar, build_grammar, parse_graph, serialize_graph
from .explorer import explore, export_lts
from .graph import HostGraph
from .matcher import find_root_matches
from .rewriter import apply_repeatedly, apply_rule
from .source import ParseError, SourceSpan
from .suite import run_suite
from .typegraph import conforms, validate_type_graph
from .rules import validate_rule

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_IO = 2
EXIT_INAPPLICABLE = 3
EXIT_TRUNCATED = 4

SEPARATOR = "---"


def _color_enabled() -> bool:
    mode = os.environ.get("GTX_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stderr.isatty()


def _diag(message: str, span: SourceSpan | None = None) -> None:
    where = f"{span.caret()}: " if span is not None else ""
    label = "\x1b[31merror:\x1b[0m" if _color_enabled() else "error:"
    print(f"{where}{label} {message}", file=sys.stderr)


def load_grammar_dir(path: str) -> Grammar:
    directory = Path(path)
    if not directory.is_dir():
        raise OSError(f"{path}: not a directory")
    files = {
        entry.name: entry.read_text(encoding="utf-8")
        for entry in sorted(directory.iterdir())
        if entry.is_file()
    }
    return build_grammar(files, name=directory.name)


def _load_start(args: argparse.Namespace, grammar: Grammar) -> HostGraph | None:
    if getattr(args, "graph", None):
        return parse_graph(Path(args.graph).read_text(encoding="utf-8"),
                           args.graph)
    return grammar.start


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")


def cmd_validate(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    violations = []
    for tg in grammar.type_graphs:
        violations += validate_type_graph(tg)
    for rule in sorted(grammar.rules):
        violations += validate_rule(grammar.rules[rule], grammar.type_graphs)
    start = _load_start(args, grammar)
    if start is not None:
        violations += conforms(grammar.type_graphs, start)
    for v in violations:
        _diag(v.message, v.span)
    if violations:
        return EXIT_VIOLATIONS
    print(f"{grammar.name}: {len(grammar.rules)} rules, "
          f"{len(grammar.type_graphs)} type graphs: ok")
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    rule = grammar.rules.get(args.rule)
    if rule is None:
        _diag(f"no rule named {args.rule!r} in {args.grammar_dir}")
        return EXIT_IO
    g = _load_start(args, grammar)
    if g is None:
        _diag("no start graph; add one or pass --graph")
        return EXIT_IO

    rounds = 1
    if args.all_matches:
        rounds = len(find_root_matches(rule, g, grammar.type_graphs))
    g, outputs, applied = apply_repeatedly(rule, g, grammar.type_graphs,
                                           rounds)
    if applied == 0:
        _diag(f"rule {rule.name!r} is not applicable")
        return EXIT_INAPPLICABLE

    rendered = "".join(outputs)
    if args.out is not None:
        Path(args.out).write_text(rendered, encoding="utf-8")
        sys.stdout.write(serialize_graph(g))
    elif rendered:
        _emit(rendered)
        print(SEPARATOR)
        sys.stdout.write(serialize_graph(g))
    else:
        sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    rule = grammar.rules.get(args.rule)
    if rule is None:
        _diag(f"no rule named {args.rule!r} in {args.grammar_dir}")
        return EXIT_IO
    if not rule.is_readonly() or rule.print_format is None:
        _diag(f"rule {rule.name!r} is not a read-only counting rule")
        return EXIT_IO
    g = _load_start(args, grammar)
    if g is None:
        _diag("no start graph; add one or pass --graph")
        return EXIT_IO
    result = apply_rule(rule, g, grammar.type_graphs)
    if result is None:
        _diag(f"rule {rule.name!r} is not applicable")
        return EXIT_INAPPLICABLE
    _emit(result.output or "")
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    g = _load_start(args, grammar)
    if g is None:
        _diag("no start graph; add one or pass --graph")
        return EXIT_IO
    try:
        lts = explore(list(grammar.rules.values()), g,
                      max_states=args.max_states, max_depth=args.max_depth,
                      tgs=grammar.type_graphs)
    except ValueError as exc:
        _diag(str(exc))
        return EXIT_IO
    sys.stdout.write(export_lts(lts))
    return EXIT_TRUNCATED if lts.truncated else EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    report = run_suite(args.filter)
    for r in report.results:
        if r.ok:
            noun = "application" if r.applications == 1 else "applications"
            print(f"PASS {r.fixture.id} ({r.applications} {noun})")
        else:
            print(f"FAIL {r.fixture.id}: {'; '.join(r.problems)}")
    print(f"{report.passed} passed, {report.failed} failed "
          f"of {len(report.results)} fixtures")
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtx", description="graph transformation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grammar directory")
    p.add_argument("grammar_dir")
    p.add_argument("--graph", help="validate this graph instead of the start")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("apply", help="apply one rule and print the result")
    p.add_argument("grammar_dir")
    p.add_argument("rule")
    p.add_argument("--graph", help="host graph file (defaults to the start)")
    p.add_argument("--all-matches", action="store_true",
                   help="apply once per initial match, re-matching in between")
    p.add_argument("--out", help="write rule output to this file")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("count", help="run a read-only counting rule")
    p.add_argument("grammar_dir")
    p.add_argument("rule")
    p.add_argument("--graph", help="host graph file (defaults to the start)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("explore", help="breadth-first state space")
    p.add_argument("grammar_dir")
    p.add_argument("--graph", help="host graph file (defaults to the start)")
    p.add_argument("--max-states", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("suite", help="run the built-in fixture suite")
    p.add_argument("--filter", help="only fixtures whose id contains this")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        _diag(exc.message, exc.span)
        return EXIT_IO
    except OSError as exc:
        _diag(str(exc))
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
