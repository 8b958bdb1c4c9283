"""The built-in fixture suite and the oracles it is checked against."""

from __future__ import annotations

import random

import pytest

import gtx.suite
from gtx.explorer import isomorphic
from gtx.graph import HostGraph
from gtx.suite import (
    EDGE,
    NODE,
    SRC,
    TRG,
    Fixture,
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
        assert g.integrity_errors() == []
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
    wrong = Fixture(id="synthetic", grammar="counting", rule="countNodes",
                    mode="once", expected_applications=5)
    result = run_fixture(wrong)
    assert not result.ok
    assert any("expected 5 application" in p for p in result.problems)
    missing = Fixture(id="ghost", grammar="counting", rule="nope")
    assert "no rule named 'nope'" in run_fixture(missing).problems


def test_a_rule_that_never_stops_is_reported(monkeypatch):
    # reversing every edge is always effective, so it has no fixpoint
    monkeypatch.setattr(gtx.suite, "_MAX_ITERATIONS", 3)
    endless = Fixture(id="endless", grammar="reverse", rule="reverseEdges",
                      mode="fixpoint")
    result = run_fixture(endless)
    assert result.applications == 3
    assert "rule did not reach a fixpoint" in result.problems


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
