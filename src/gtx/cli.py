"""Command-line front end.

Commands operate on grammar directories: a folder of ``.gpr`` rules,
``.gty`` type graphs, ``.gst`` graphs and an optional ``grammar.cfg``.

Exit codes: 0 success, 1 semantic violations (also those of a rule that a
command matches) or failing suite fixtures, 2 usage/parse/IO errors, 3 rule
not applicable, 4 exploration truncated.
Diagnostics go to stderr as ``FILE:LINE:COL: error: message``; set
GTX_COLOR to ``always`` or ``never`` to override color autodetection.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from .dsl import (Grammar, load_grammar_dir, parse_graph, read_utf8,
                  serialize_graph)
from .explorer import explore, export_lts
from .graph import HostGraph
from .matcher import find_root_matches
from .rewriter import apply_repeatedly, apply_rule
from .rules import InvalidRuleError, Rule
from .source import ParseError, SourceSpan, UsageError
from .suite import run_suite

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


def _rule(args: argparse.Namespace, grammar: Grammar) -> Rule:
    if args.rule not in grammar.rules:
        raise UsageError(f"no rule named {args.rule!r} in {args.grammar_dir}")
    return grammar.rules[args.rule]


def _host(args: argparse.Namespace, grammar: Grammar,
          required: bool) -> HostGraph | None:
    if args.graph:
        return parse_graph(read_utf8(Path(args.graph)), args.graph)
    if required and grammar.start is None:
        raise UsageError("no start graph; add one or pass --graph")
    return grammar.start


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if text and not text.endswith("\n"):
        sys.stdout.write("\n")


def cmd_validate(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    host = _host(args, grammar, required=False)
    violations = [v for _, v in grammar.violations(host)]
    for v in violations:
        _diag(v.message, v.span)
    if violations:
        return EXIT_VIOLATIONS
    print(f"{grammar.name}: {len(grammar.rules)} rules, "
          f"{len(grammar.type_graphs)} type graphs: ok")
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    rule = _rule(args, grammar)
    g = _host(args, grammar, required=True)
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
    elif rendered:
        _emit(rendered)
        print(SEPARATOR)
    sys.stdout.write(serialize_graph(g))
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    rule = _rule(args, grammar)
    if not rule.is_readonly() or rule.print_format is None:
        raise UsageError(f"rule {rule.name!r} is not a read-only counting rule")
    result = apply_rule(rule, _host(args, grammar, required=True),
                        grammar.type_graphs)
    if result is None:
        _diag(f"rule {rule.name!r} is not applicable")
        return EXIT_INAPPLICABLE
    _emit(result.output or "")
    return EXIT_OK


def cmd_explore(args: argparse.Namespace) -> int:
    grammar = load_grammar_dir(args.grammar_dir)
    lts = explore(list(grammar.rules.values()),
                  _host(args, grammar, required=True),
                  max_states=args.max_states, max_depth=args.max_depth,
                  tgs=grammar.type_graphs)
    sys.stdout.write(export_lts(lts))
    return EXIT_TRUNCATED if lts.truncated else EXIT_OK


def cmd_suite(args: argparse.Namespace) -> int:
    report = run_suite(args.filter)
    for r in report.results:
        if r.ok:
            print(f"PASS {r.fixture.id} (1 application)")
        else:
            print(f"FAIL {r.fixture.id}: {'; '.join(r.problems)}")
    print(f"{report.passed} passed, {report.failed} failed "
          f"of {len(report.results)} fixtures")
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


@functools.cache  # built on first use, once: each parse gets a new Namespace
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
    # No command builds a reference cycle, so the cyclic collector would
    # only walk the parsed graphs for nothing; the parser's one-time build
    # above does leave cycles, and they stay collectable.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ParseError as exc:
        _diag(exc.message, exc.span)
        return EXIT_IO
    except InvalidRuleError as exc:
        for v in exc.violations:
            _diag(v.message, v.span)
        return EXIT_VIOLATIONS
    except (OSError, UsageError) as exc:
        _diag(str(exc))
        return EXIT_IO
    finally:
        if collecting:
            gc.enable()


def entrypoint() -> None:
    sys.exit(main())
