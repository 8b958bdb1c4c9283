"""The names the benchmark tracer (perfbench/tracer.py) wraps still exist.

The tracer times gtx from outside by replacing functions and HostGraph
methods it names, and it reads ``LevelMatchSet.extensions``.  This suite
does not run the benchmark's own self-tests, so a rename here would
otherwise break the benchmark silently.  The tracer file is only loaded,
never changed.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from gtx.dsl import parse_graph, parse_rule
from gtx.graph import HostGraph
from gtx.matcher import collect_level_matches, find_root_matches

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
