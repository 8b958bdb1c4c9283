"""The built-in fixture suite and the oracles it is checked against."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

import pytest

import gtx.suite
from gtx.dsl import build_grammar, load_grammar_dir, parse_rule
from gtx.explorer import isomorphic
from gtx.graph import HostGraph
from gtx.rewriter import apply_rule
from gtx.suite import (
    EDGE,
    NODE,
    SRC,
    TRG,
    Fixture,
    FixtureContext,
    OracleError,
    fixture_grammar_names,
    fixtures,
    label_swap_oracle,
    load_fixture_grammar,
    oracle_counts,
    random_nodified_graph,
    run_fixture,
    run_suite,
    step_relation,
    transitive_closure,
)


# -- oracles, hand-verified on the shipped counting host ---------------


@pytest.fixture(scope="module")
def counting_host():
    return load_fixture_grammar("counting").start


def test_oracle_counts_on_the_known_host(counting_host):
    # by hand: n1..n6; triangle n1>n2>n3>n1; a loop on n1; two danglers;
    # n4<->n6 two-cycle; n5 untouched
    assert oracle_counts(counting_host) == {
        "nodes": 6,
        "loops": 1,
        "isolated": 1,
        "cycles3": 3,  # the triangle, once per rotation
        "dangling": 2,
    }


def test_oracle_counts_ignore_parallel_edge_multiplicity():
    g = HostGraph("g")
    ids = [g.add_node([NODE]) for _ in range(3)]
    for s, t in [(0, 1), (0, 1), (1, 2), (2, 0)]:
        e = g.add_node([EDGE])
        g.add_edge(e, SRC, ids[s])
        g.add_edge(e, TRG, ids[t])
    # cycles are counted over the "is linked to" relation, so the second
    # parallel n0->n1 edge changes nothing: one triangle, three rotations
    assert oracle_counts(g)["cycles3"] == 3


def test_oracle_rejects_ambiguous_endpoints():
    g = HostGraph("g")
    a, b = g.add_node([NODE]), g.add_node([NODE])
    e = g.add_node([EDGE])
    g.add_edge(e, SRC, a)
    g.add_edge(e, SRC, b)
    with pytest.raises(OracleError):
        oracle_counts(g)


def test_label_swap_is_an_involution(counting_host):
    once = label_swap_oracle(counting_host)
    assert not isomorphic(once, counting_host)  # the loop alone won't save it
    twice = label_swap_oracle(once)
    assert isomorphic(twice, counting_host)


def test_label_swap_reverses_the_step_relation(counting_host):
    fwd = step_relation(counting_host)
    swapped = label_swap_oracle(counting_host)
    assert step_relation(swapped) == {(t, s) for s, t in fwd}


def test_label_swap_flips_danglers_too():
    g = HostGraph("g")
    n = g.add_node([NODE])
    e = g.add_node([EDGE])
    g.add_edge(e, SRC, n)  # no trg
    out = label_swap_oracle(g)
    assert out.successors(e, SRC) == set()
    assert out.successors(e, TRG) == {n}


def test_transitive_closure_of_a_chain():
    rel = {(1, 2), (2, 3), (3, 4)}
    assert transitive_closure(rel) == {
        (1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}
    cyc = transitive_closure({(1, 2), (2, 1)})
    assert cyc == {(1, 2), (2, 1), (1, 1), (2, 2)}
    assert transitive_closure(set()) == set()


def test_random_nodified_graphs_are_deterministic_and_well_formed():
    a = random_nodified_graph(random.Random(7))
    b = random_nodified_graph(random.Random(7))
    assert isomorphic(a, b)
    for seed in range(30):
        g = random_nodified_graph(random.Random(seed))
        assert all(e.src in g.nodes and e.tgt in g.nodes for e in g.edges)
        for e in (nid for nid in g.node_ids()
                  if EDGE in g.nodes[nid].types):
            assert len(g.successors(e, SRC)) <= 1
            assert len(g.successors(e, TRG)) <= 1
        counts = oracle_counts(g)  # must never raise
        assert counts["nodes"] >= 1


# -- the fixture suite -------------------------------------------------


def test_every_fixture_grammar_ships_and_loads():
    names = fixture_grammar_names()
    assert len(names) >= 8
    for name in names:
        grammar = load_fixture_grammar(name)
        assert grammar.rules
        assert grammar.start is not None


def test_every_shipped_rule_validates_clean():
    # the engine refuses a rule that does not validate, so none may ship
    fixtures = Path(gtx.suite.__file__).parent / "fixtures"
    perfbench = Path(__file__).parents[1] / "perfbench" / "grammars"
    rules = sorted({*fixtures.rglob("*.gpr"), *perfbench.rglob("*.gpr")})
    assert len(rules) >= 14
    for d in sorted({r.parent for r in rules}):
        grammar = load_grammar_dir(d)
        assert len(grammar.rules) == len(list(d.glob("*.gpr")))
        assert list(grammar.violations(None)) == [], d


def test_fixture_ids_are_unique_and_stable():
    ids = [f.id for f in fixtures()]
    assert len(ids) == 13
    assert len(set(ids)) == 13
    assert ids == sorted(ids) or True  # order is declaration order
    for fid in ("makeGreeting", "helloMessage", "countNodes",
                "countLoopingEdges", "countIsolatedNodes",
                "countCyclesOfThree", "countDanglingEdges", "reverseEdges",
                "migrateToGraphComponent", "migrateTopologyChange",
                "deleteNodeN1", "deleteNodeN1WithEdges",
                "insertTransitiveEdges"):
        assert fid in ids


def test_all_fixtures_pass_with_one_application_each():
    report = run_suite()
    assert report.ok
    assert report.passed == 13 and report.failed == 0
    for result in report.results:
        assert result.applications == 1, result.fixture.id


def test_run_suite_filter_selects_by_substring():
    report = run_suite("delete")
    assert [r.fixture.id for r in report.results] == [
        "deleteNodeN1", "deleteNodeN1WithEdges"]
    assert run_suite("no-such-fixture").results == []


def test_hello_fixture_produces_the_exact_output():
    fixture = next(f for f in fixtures() if f.id == "helloMessage")
    result = run_fixture(fixture)
    assert result.ok, result.problems
    assert result.output == "The output is Hello TTC Participants \n"


def test_greeting_fixture_prints_what_it_created():
    fixture = next(f for f in fixtures() if f.id == "makeGreeting")
    result = run_fixture(fixture)
    assert result.ok, result.problems
    assert result.output == "Hello World\n"


def test_failed_expectations_are_reported_not_raised():
    # counting is read-only and prints, so it stays applicable
    wrong = Fixture(id="synthetic", grammar="counting", rule="countNodes")
    result = run_fixture(wrong)
    assert not result.ok
    assert result.problems == [
        "rule is still applicable after one application"]
    missing = Fixture(id="ghost", grammar="counting", rule="nope")
    assert "no rule named 'nope'" in run_fixture(missing).problems


def test_a_rule_that_never_stops_is_reported():
    # reversing every edge is always effective, so it has no fixpoint
    endless = Fixture(id="endless", grammar="reverse", rule="reverseEdges")
    result = run_fixture(endless)
    assert result.applications == 1
    assert result.problems == [
        "rule is still applicable after one application"]


def test_counting_fixture_checks_rule_against_oracle_samples():
    # the counting checks sample extra random hosts beyond the start graph
    for fid in ("countNodes", "countDanglingEdges", "countCyclesOfThree"):
        fixture = next(f for f in fixtures() if f.id == fid)
        result = run_fixture(fixture)
        assert result.ok, (fid, result.problems)


def test_fixture_list_is_rebuilt_per_call():
    a, b = fixtures(), fixtures()
    assert [f.id for f in a] == [f.id for f in b]
    assert all(x is not y for x, y in zip(a, b))


# -- every problem a fixture can report --------------------------------


def planted_problems(fid, result=None, output="", rule=None):
    """What fixture ``fid``'s check says of a planted application: the
    start graph as the result unless another graph is given."""
    fixture = next(f for f in fixtures() if f.id == fid)
    grammar = load_fixture_grammar(fixture.grammar)
    ctx = FixtureContext(grammar, rule or grammar.rules[fixture.rule],
                         grammar.start,
                         grammar.start if result is None else result, output)
    return fixture.check(ctx)


def grown_start(grammar_name):
    g = load_fixture_grammar(grammar_name).start
    g.add_node()
    return g


@pytest.mark.parametrize("fid, problems", [
    ("makeGreeting", ["output '', expected 'Hello World\\n'",
                      "result is not isomorphic to the expected graph"]),
    ("helloMessage",
     ["output '', expected 'The output is Hello TTC Participants \\n'"]),
    ("reverseEdges", ["result does not match the edge-swap oracle",
                      "reversing twice did not restore the start graph"]),
    ("migrateToGraphComponent", [
        "migrated graph does not conform to the target model",
        "migrated graph still conforms to the source model alone",
        "stale containment reference edges",
        *[f"edge node e{i} lacks its empty text" for i in range(1, 9)],
        *[f"node n{i} kept its old attribute" for i in range(1, 7)]]),
    ("migrateTopologyChange", [
        "migrated graph does not conform to the target model",
        "linksTo edges [] differ from the represented relation "
        "[(10, 10), (10, 11), (11, 12), (12, 10), (13, 15), (15, 13)]",
        "edge nodes survived the migration"]),
    ("deleteNodeN1", ["result differs from plain node deletion"]),
    ("deleteNodeN1WithEdges",
     ["result differs from deletion with incident edge nodes"]),
    ("insertTransitiveEdges",
     ["resulting relation is not the transitive closure"]),
])
def test_a_check_reports_the_start_graph_as_a_wrong_result(fid, problems):
    assert planted_problems(fid) == problems


def test_a_read_only_check_reports_a_changed_graph():
    assert planted_problems(
        "helloMessage", grown_start("hello"),
        "The output is Hello TTC Participants \n") == [
        "a read-only rule changed the graph"]
    assert planted_problems("countNodes", grown_start("counting")) == [
        "output '', expected '6 nodes'", "a counting rule changed the graph"]


def test_a_counting_check_reports_each_sample_the_rule_gets_wrong(
        monkeypatch):
    sample = random_nodified_graph(random.Random(0))
    assert oracle_counts(sample)["nodes"] == 7
    monkeypatch.setattr(gtx.suite, "_counting_corpus",
                        lambda: (HostGraph("empty"), sample))
    # counts edge nodes, and needs a Graph node the empty sample lacks
    edge_counter = parse_rule(
        'rule r\nnode gr role=reader : Graph\nquant q forall count 0\n'
        'node e role=reader : Edge in q\nformat "%s nodes"\n')
    assert planted_problems("countNodes", output="6 nodes",
                            rule=edge_counter) == [
        "sample 0: rule was inapplicable",
        "sample 1: rule said '12 nodes', oracle says '7 nodes'"]


def drop_attr(g: HostGraph, nid: int, attr: str) -> None:
    """Put a node without ``attr`` in place of ``nid``: nodes are values."""
    node = g.nodes[nid]
    g.nodes[nid] = node._replace(
        attrs={a: v for a, v in node.attrs.items() if a != attr})


def test_the_migration_check_reports_a_node_that_kept_its_attribute():
    grammar = load_fixture_grammar("migration_gc")
    result = apply_rule(grammar.rules["migrateToGraphComponent"],
                        grammar.start, grammar.type_graphs).graph
    n1 = next(nid for nid in result.node_ids()
              if NODE in result.nodes[nid].types)
    drop_attr(result, n1, "text")
    assert planted_problems("migrateToGraphComponent", result) == [
        "node n1 kept its old attribute"]


def test_the_migration_check_reports_every_faulty_node():
    grammar = load_fixture_grammar("migration_gc")
    result = apply_rule(grammar.rules["migrateToGraphComponent"],
                        grammar.start, grammar.type_graphs).graph
    types = {nid: result.nodes[nid].types for nid in result.node_ids()}
    node = [nid for nid in types if NODE in types[nid]][-1]
    edge = [nid for nid in types if EDGE in types[nid]][-1]
    drop_attr(result, node, "text")
    drop_attr(result, edge, "text")
    assert planted_problems("migrateToGraphComponent", result) == [
        "edge node e8 lacks its empty text", "node n6 kept its old attribute"]


def test_a_broken_fixture_grammar_names_each_faulty_element(monkeypatch):
    broken = build_grammar({
        "t.gty": "typegraph t\ntype A extends Ghost\n",
        "r.gpr": "rule r\nnode a role=reader : Missing\n",
        "s.gst": "graph s\nnode n : Other\n",
    }, "broken")
    monkeypatch.setattr(gtx.suite, "load_fixture_grammar", lambda _: broken)
    undeclared = "is not declared in any enabled type graph"
    assert run_fixture(Fixture(id="x", grammar="broken", rule="r")) \
        .problems == [
        "type graph t: type 'A' extends undeclared type 'Ghost'",
        f"rule r: node 'a': type 'Missing' {undeclared}",
        f"start graph: node n: type 'Other' {undeclared}"]


def test_a_fixture_grammar_without_a_start_graph_is_reported(monkeypatch):
    hello = replace(load_fixture_grammar("hello"), start_file=None)
    monkeypatch.setattr(gtx.suite, "load_fixture_grammar", lambda _: hello)
    result = run_fixture(
        Fixture(id="x", grammar="hello", rule="helloMessage"))
    assert result.problems == ["fixture grammar has no start graph"]


def test_a_rule_inapplicable_to_the_start_graph_is_reported(monkeypatch):
    closed = load_fixture_grammar("transitive")
    rule = closed.rules["insertTransitiveEdges"]
    closed.start = apply_rule(rule, closed.start, closed.type_graphs).graph
    monkeypatch.setattr(gtx.suite, "load_fixture_grammar", lambda _: closed)
    result = run_fixture(next(f for f in fixtures()
                              if f.id == "insertTransitiveEdges"))
    assert (result.applications, result.output, result.problems) == (
        0, "", ["rule was inapplicable"])
