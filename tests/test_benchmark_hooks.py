"""The names the benchmark (perfbench/) uses still exist.

The tracer times gtx from outside by replacing functions and HostGraph
methods it names, and it reads ``LevelMatchSet.extensions``; the
workloads call gtx functions by their module paths.  This suite does not
run the benchmark's own self-tests, so a rename or a move here would
otherwise break the benchmark silently.  The benchmark files are only
loaded or read, never changed.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from gtx.dsl import parse_graph, parse_rule, parse_type_graph
from gtx.graph import HostGraph
from gtx.matcher import collect_level_matches, find_root_matches

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracer):
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"gtx.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"gtx.{layer}.{name}"


def test_every_traced_graph_method_exists(tracer):
    for name in tracer.GRAPH_METHODS:
        assert callable(getattr(HostGraph, name, None)), f"HostGraph.{name}"


def test_level_match_sets_expose_their_extensions():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n")
    (match,) = find_root_matches(rule, g)
    levels = collect_level_matches(rule, g, match)
    assert [len(s.extensions) for s in levels.values()] == [1, 2]


def _gtx_bindings() -> dict[tuple[str, str], object]:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "gtx" or name.startswith("gtx.")
            for attr, value in vars(module).items()}


def test_tracer_sees_the_matcher_layers_and_restores_them(tracer):
    for layer in tracer.FUNCTIONS:
        importlib.import_module(f"gtx.{layer}")
    matcher = importlib.import_module("gtx.matcher")
    rewriter = importlib.import_module("gtx.rewriter")
    explorer = importlib.import_module("gtx.explorer")
    g = parse_graph("graph g\nnode a\nnode b\nnode c\nedge a -e-> b\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n"
                      "node x role=embargo in q\n"
                      "edge n -e-> x role=embargo in q\n")
    # only the declared supertype satisfies the constraint
    tg = parse_type_graph("typegraph t\ntype Part abstract\n"
                          "type Wheel extends Part\n")
    typed = parse_rule("rule typed\nnode p role=reader : Part\n")
    wheel = parse_graph("graph w\nnode w : Wheel\n")
    # a two-level rule with one root match, and a rule to explore with
    wire = parse_rule("rule wire\nnode h role=reader\nflag h reader hub\n"
                      "quant q forall\nnode n role=reader in q\n"
                      "edge h -sees-> n role=creator in q\n")
    hub = parse_graph("graph h\nnode a flag hub\nnode b\n")
    unmark = parse_rule("rule unmark\nnode n role=reader\n"
                        "flag n eraser todo\n")
    marked = parse_graph("graph m\nnode a flag todo\nnode b flag todo\n"
                         "node c\n")
    before = _gtx_bindings()
    spans = tracer.Tracer()
    spans.install()
    try:
        (root,) = matcher.find_root_matches(rule, g)
        levels = matcher.collect_level_matches(rule, g, root)
        typed_matches = matcher.find_root_matches(typed, wheel, [tg])
    finally:
        restored = spans.uninstall()
    assert len(levels["q"].extensions) == 2  # a has an e-successor
    assert len(typed_matches) == 1
    calls = {name: rec[tracer.CALLS] for name, rec in spans.totals().items()}
    assert calls.get("matcher.find_root_matches") == 2
    assert calls.get("matcher.collect_level_matches") == 1
    # one NAC check per root match and per candidate of the level
    assert calls.get("matcher.nacs_satisfied") == 4 + len(typed_matches)
    assert calls.get("typegraph.is_subtype", 0) >= 1
    assert restored

    # the rewriter spans and parents that the rewriter and explorer
    # metrics read
    spans = tracer.Tracer()
    spans.install()
    try:
        wired = rewriter.apply_rule(wire, hub)
        lts = explorer.explore([unmark], marked)
    finally:
        restored = spans.uninstall()
    assert wired is not None
    assert len(lts.states) == 3  # the two one-mark graphs are isomorphic
    parents = {(name, parent) for name, parent in spans.records}
    assert {("rewriter.plan_application", "rewriter.apply_rule"),
            ("matcher.collect_level_matches", "rewriter.plan_application"),
            ("rewriter.plan_application", "explorer.explore"),
            ("rewriter.apply_effect", "explorer.explore")} <= parents
    rewriter_roots = sum(rec[tracer.ITEMS]
                         for (name, parent), rec in spans.records.items()
                         if name == "matcher.find_root_matches"
                         and parent != tracer.ROOT)
    assert rewriter_roots == 1 + 2 + 1  # wire on hub; unmark per state
    calls = {name: rec[tracer.CALLS] for name, rec in spans.totals().items()}
    assert calls.get("rewriter.is_effective") == rewriter_roots
    assert calls.get("rewriter.plan_application") == rewriter_roots
    assert restored
    after = _gtx_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _workload_calls() -> set[str]:
    """``module.name`` of every ``gtx.<module>.<name>`` in the workloads,
    reached through a ``gtx`` name or a ``.gtx`` attribute."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    calls = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)):
            root = node.value.value
            if ((isinstance(root, ast.Name) and root.id == "gtx")
                    or (isinstance(root, ast.Attribute) and root.attr == "gtx")):
                calls.add(f"{node.value.attr}.{node.attr}")
    return calls


def test_every_workload_entry_point_exists():
    calls = _workload_calls()
    assert {"cli.load_grammar_dir", "cli.main", "dsl.parse_graph",
            "rewriter.apply_rule"} <= calls
    for call in sorted(calls):
        module, name = call.split(".")
        assert callable(getattr(importlib.import_module(f"gtx.{module}"),
                                name, None)), f"gtx.{call}"
