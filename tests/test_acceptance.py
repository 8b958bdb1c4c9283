"""End-to-end acceptance checks over the shipped fixture grammars.

Each test here is one acceptance criterion for the engine as a whole:
byte-exact printed output, oracle equivalence on seeded random graphs,
deletion and migration shape, closure fixpoints, and explorer soundness.
Every criterion prints a single ``ACCEPTANCE C<n> PASS|FAIL`` line (visible
with ``pytest -s``) and carries its own wall-clock budget.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import gtx
from gtx.cli import main
from gtx.explorer import explore, isomorphic
from gtx.graph import HostGraph, Value, edge_label, node_type
from gtx.rewriter import apply_rule
from gtx.suite import (
    label_swap_oracle,
    load_fixture_grammar,
    oracle_counts,
    random_nodified_graph,
    run_suite,
    step_relation,
    transitive_closure,
)
from gtx.typegraph import conforms

FIXTURES = Path(gtx.__file__).parent / "fixtures" / "helloworld"

EDGE = node_type("Edge")
GRAPH = node_type("Graph")
NODE = node_type("Node")


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE C{n} FAIL {title}")
        raise
    print(f"ACCEPTANCE C{n} PASS {title}")


def names_of(g) -> dict[str | None, int]:
    return {g.nodes[nid].name: nid for nid in g.node_ids()}


def named_edges(g) -> set[tuple[str, str, str]]:
    return {(g.nodes[e.src].name, e.label.name, g.nodes[e.tgt].name)
            for e in g.edges}


# -- C1: the printed hello line, byte for byte -------------------------


def test_c1_hello_message_prints_its_exact_line(tmp_path, capsys):
    with criterion(1, "hello message output is byte-exact"):
        out_file = tmp_path / "hello.txt"
        started = time.monotonic()
        code = main(["apply", str(FIXTURES / "hello"), "helloMessage",
                     "--out", str(out_file)])
        elapsed = time.monotonic() - started
        capsys.readouterr()
        assert code == 0
        assert out_file.read_bytes() == b"The output is Hello TTC Participants \n"
        assert elapsed < 1.0, f"apply took {elapsed:.2f}s"


# -- C2: counting rules against the brute-force oracle -----------------


def test_c2_counting_rules_agree_with_the_oracle():
    with criterion(2, "5 counting rules match the oracle on 200 graphs"):
        grammar = load_fixture_grammar("counting")
        keyed_rules = [
            ("nodes", grammar.rules["countNodes"]),
            ("loops", grammar.rules["countLoopingEdges"]),
            ("isolated", grammar.rules["countIsolatedNodes"]),
            ("cycles3", grammar.rules["countCyclesOfThree"]),
            ("dangling", grammar.rules["countDanglingEdges"]),
        ]
        rng = random.Random("acceptance-counting")
        hosts = [random_nodified_graph(rng) for _ in range(200)]
        started = time.monotonic()
        mismatches = []
        for i, g in enumerate(hosts):
            expected = oracle_counts(g)
            for key, rule in keyed_rules:
                res = apply_rule(rule, g, grammar.type_graphs)
                assert res is not None, (i, key)
                want = rule.print_format.replace("%s", str(expected[key]), 1)
                if res.output != want:
                    mismatches.append((i, key, res.output, want))
        elapsed = time.monotonic() - started
        assert mismatches == []
        assert elapsed < 10.0, f"counting sweep took {elapsed:.2f}s"


# -- C3: reversal is the label swap, twice is the identity -------------


def test_c3_reversal_is_label_swap_and_involution():
    with criterion(3, "reversal equals the swap oracle and undoes itself"):
        grammar = load_fixture_grammar("reverse")
        rule = grammar.rules["reverseEdges"]
        rng = random.Random("acceptance-reverse")
        started = time.monotonic()
        for i in range(100):
            g = random_nodified_graph(rng)
            swapped = label_swap_oracle(g)
            res = apply_rule(rule, g, grammar.type_graphs)
            if res is None:
                # nothing to flip: the swap must be invisible too
                assert swapped == g, i
                continue
            assert res.graph == swapped, i
            again = apply_rule(rule, res.graph, grammar.type_graphs)
            assert again is not None and again.graph == g, i
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"reversal sweep took {elapsed:.2f}s"


# -- C4: deletion takes exactly the incident structure -----------------


def test_c4_deletion_removes_exactly_the_incident_structure():
    with criterion(4, "deletion drags incident edges, nothing else"):
        grammar = load_fixture_grammar("deletion")
        start = grammar.start
        doomed = start.nodes[names_of(start)["n1"]].id

        simple = apply_rule(grammar.rules["deleteNodeN1"], start,
                            grammar.type_graphs)
        assert simple is not None
        after = simple.graph
        assert names_of(after).keys() == names_of(start).keys() - {"n1"}
        for e in after.edges:  # full scan: no reference survives the node
            assert doomed not in (e.src, e.tgt)
        assert named_edges(start) - named_edges(after) == {
            ("gr", "nodes", "n1"),
            ("e1", "src", "n1"), ("e3", "trg", "n1"),
            ("e4", "src", "n1"), ("e4", "trg", "n1"),
            ("e5", "src", "n1"),
        }
        assert all(e.src in after.nodes and e.tgt in after.nodes
                   for e in after.edges)

        deep = apply_rule(grammar.rules["deleteNodeN1WithEdges"], start,
                          grammar.type_graphs)
        assert deep is not None
        after = deep.graph
        # exactly the edge nodes touching n1 go with it, the loop once
        assert names_of(after).keys() == (
            names_of(start).keys() - {"n1", "e1", "e3", "e4", "e5"})
        for e in after.edges:
            assert doomed not in (e.src, e.tgt)
        assert named_edges(after) == {
            ("gr", "nodes", "n2"), ("gr", "nodes", "n3"),
            ("gr", "nodes", "n4"), ("gr", "nodes", "n5"),
            ("gr", "nodes", "n6"),
            ("gr", "edges", "e2"), ("gr", "edges", "e6"),
            ("gr", "edges", "e7"), ("gr", "edges", "e8"),
            ("e2", "src", "n2"), ("e2", "trg", "n3"),
            ("e6", "trg", "n2"),
            ("e7", "src", "n4"), ("e7", "trg", "n6"),
            ("e8", "src", "n6"), ("e8", "trg", "n4"),
        }
        assert all(e.src in after.nodes and e.tgt in after.nodes
                   for e in after.edges)


# -- C5: migration lands inside the target model -----------------------


def test_c5_component_migration_conforms_to_the_target_model():
    with criterion(5, "migrated graph fits the component model exactly"):
        grammar = load_fixture_grammar("migration_gc")
        target = next(tg for tg in grammar.type_graphs
                      if tg.name == "graphcomponent")
        res = apply_rule(grammar.rules["migrateToGraphComponent"],
                         grammar.start, grammar.type_graphs)
        assert res is not None
        out = res.graph
        assert conforms([target], out) == []

        labels = [e.label.name for e in out.edges]
        assert labels.count("nodes") == 0 and labels.count("edges") == 0
        assert labels.count("gcs") == 14  # one per former containment edge
        for nid in out.node_ids():
            node = out.nodes[nid]
            if NODE in node.types:
                assert "name" not in node.attrs
                assert node.attrs["text"] == Value.string(node.name)
            if EDGE in node.types:
                assert node.attrs["text"] == Value.string("")


# -- C6: transitive closure fixpoint -----------------------------------


def test_c6_closure_fixpoint_equals_the_reachability_oracle():
    with criterion(6, "closure fixpoint matches reachability on 100 graphs"):
        grammar = load_fixture_grammar("transitive")
        rule = grammar.rules["insertTransitiveEdges"]
        rng = random.Random("acceptance-closure")
        started = time.monotonic()
        for i in range(100):
            g = random_nodified_graph(rng, max_nodes=7)
            rel = step_relation(g)
            two_step = {(a, d) for a, b in rel for c, d in rel
                        if b == c} - rel

            res = apply_rule(rule, g, grammar.type_graphs)
            if res is None:
                assert two_step == set(), i
            else:
                # one application adds exactly the missing two-hop pairs
                assert step_relation(res.graph) == rel | two_step, i
                g = res.graph

            rounds = 0
            while (res := apply_rule(rule, g, grammar.type_graphs)):
                g = res.graph
                rounds += 1
                assert rounds < 10, i
            assert step_relation(g) == transitive_closure(rel), i
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"closure sweep took {elapsed:.2f}s"


# -- C2/C6 at scale: counting and closure on a 100-node graph -----------


def scaled_nodified_graph(n: int, seed: int) -> HostGraph:
    """One Graph node, n Node nodes and 2n complete Edge nodes with random
    ends: |V| = 3n + 1 and |E| = 7n."""
    rng = random.Random(seed)
    g = HostGraph(name="scaled")
    gr = g.add_node([GRAPH])
    nodes = []
    for _ in range(n):
        nid = g.add_node([NODE])
        g.add_edge(gr, edge_label("nodes"), nid)
        nodes.append(nid)
    for _ in range(2 * n):
        eid = g.add_node([EDGE])
        g.add_edge(gr, edge_label("edges"), eid)
        g.add_edge(eid, edge_label("src"), rng.choice(nodes))
        g.add_edge(eid, edge_label("trg"), rng.choice(nodes))
    return g


def test_counting_and_closure_scale_to_100_nodes():
    with criterion(2, "at scale: cycle count, one closure step, n=100, 1 s each"):
        g = scaled_nodified_graph(100, seed=0)
        assert (len(g.nodes), len(g.edges)) == (301, 700)

        counting = load_fixture_grammar("counting")
        started = time.monotonic()
        res = apply_rule(counting.rules["countCyclesOfThree"], g,
                         counting.type_graphs)
        elapsed = time.monotonic() - started
        assert res is not None
        assert res.output == (
            f"{oracle_counts(g)['cycles3']} cycles of three nodes")
        assert elapsed < 1.0, f"countCyclesOfThree took {elapsed:.2f}s"

        transitive = load_fixture_grammar("transitive")
        rel = step_relation(g)
        two_step = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        started = time.monotonic()
        res = apply_rule(transitive.rules["insertTransitiveEdges"], g,
                         transitive.type_graphs)
        elapsed = time.monotonic() - started
        assert res is not None
        assert step_relation(res.graph) == rel | two_step
        assert elapsed < 1.0, f"insertTransitiveEdges took {elapsed:.2f}s"


# -- C7: the whole fixture suite, one application each -----------------


def test_c7_all_fixtures_pass_with_a_single_application():
    with criterion(7, "13 fixtures pass, one application each"):
        report = run_suite()
        assert report.passed == 13 and report.failed == 0
        for result in report.results:
            assert result.applications == 1, result.fixture.id


# -- C8: explorer soundness --------------------------------------------


def test_c8_exploration_is_sound_and_duplicate_free():
    with criterion(8, "2-state reversal system; fuzzed states unique"):
        reverse = load_fixture_grammar("reverse")
        lts = explore([reverse.rules["reverseEdges"]], reverse.start)
        assert len(lts.states) == 2 and not lts.truncated

        pool = [
            reverse.rules["reverseEdges"],
            load_fixture_grammar("transitive").rules["insertTransitiveEdges"],
            load_fixture_grammar("deletion").rules["deleteNodeN1WithEdges"],
        ]
        rng = random.Random("acceptance-explore")
        for i in range(50):
            rules = rng.sample(pool, rng.randint(1, len(pool)))
            host = random_nodified_graph(rng, max_nodes=5, max_edges=6)
            lts = explore(rules, host, max_states=50)
            for (ia, a), (ib, b) in combinations(enumerate(lts.states), 2):
                assert not isomorphic(a.graph, b.graph), (i, ia, ib)
