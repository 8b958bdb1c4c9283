"""Type graphs: inheritance, validation, conformance."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gtx
from gtx.dsl import parse_graph, parse_type_graph
from gtx.typegraph import (
    TypeGraph,
    UnknownTypeError,
    conforms,
    is_subtype,
    validate_type_graph,
)
from gtx.graph import node_type


GC = """
typegraph gc
type Graph
type GraphComponent abstract
type Node extends GraphComponent
type Edge extends GraphComponent
attr GraphComponent.text : string
edge Graph -gcs-> GraphComponent
edge Edge -src-> Node
edge Edge -trg-> Node
"""


@pytest.fixture
def gc():
    return parse_type_graph(GC)


def test_subtyping_is_reflexive_and_transitive():
    tg = parse_type_graph("""
typegraph t
type A
type B extends A
type C extends B
""")
    a, b, c = node_type("A"), node_type("B"), node_type("C")
    assert is_subtype(tg, a, a)
    assert is_subtype(tg, c, b)
    assert is_subtype(tg, c, a)
    assert not is_subtype(tg, a, c)


def test_subtype_of_undeclared_type_raises():
    tg = parse_type_graph("typegraph t\ntype A\n")
    with pytest.raises(UnknownTypeError):
        is_subtype(tg, node_type("A"), node_type("Nope"))


def test_valid_type_graph_has_no_violations(gc):
    assert validate_type_graph(gc) == []


def test_undeclared_supertype_is_reported():
    tg = parse_type_graph("typegraph t\ntype A extends Ghost\n")
    messages = [v.message for v in validate_type_graph(tg)]
    assert any("Ghost" in m for m in messages)


def test_inheritance_cycle_reported_once():
    tg = parse_type_graph("""
typegraph t
type A extends B
type B extends C
type C extends A
type D
""")
    cycle_violations = [v for v in validate_type_graph(tg)
                        if "cycle" in v.message]
    assert len(cycle_violations) == 1
    assert all(name in cycle_violations[0].message for name in "ABC")


def random_hierarchy(seed: int) -> str:
    """A type graph of up to 7 types, each extending up to 3 of the
    types, itself and two undeclared names included, in random order."""
    rnd = random.Random(seed)
    names = [f"T{i}" for i in range(rnd.randint(1, 7))]
    lines = ["typegraph t"]
    for name in rnd.sample(names, len(names)):
        sups = rnd.sample(names + ["Ghost", "Nope"],
                          rnd.choice((0, 1, 1, 2, 2, 3)))
        lines.append(f"type {name}"
                     + (f" extends {', '.join(sups)}" if sups else ""))
    return "\n".join(lines) + "\n"


def strict_reach(tg: TypeGraph) -> dict[tuple[str, str], bool]:
    """Warshall: (a, b) when a path of at least one ``extends`` step
    among declared types leads from a to b."""
    names = sorted(tg.types)
    reach = {(a, b): any(s.name == b for s in tg.types[a].supertypes)
             for a in names for b in names}
    for k in names:
        for a in names:
            for b in names:
                reach[a, b] = reach[a, b] or (reach[a, k] and reach[k, b])
    return reach


def test_subtyping_and_cycles_match_brute_force_reachability():
    seen = Counter()
    for seed in range(300):
        tg = parse_type_graph(random_hierarchy(seed))
        reach = strict_reach(tg)
        names = sorted(tg.types)
        for a in names:
            closure = {b for b in names if a == b or reach[a, b]}
            assert tg.supertype_closure(a) == closure, seed
            for b in names + ["Ghost"]:
                if b == "Ghost":
                    with pytest.raises(UnknownTypeError):
                        is_subtype(tg, node_type(a), node_type(b))
                    with pytest.raises(UnknownTypeError):
                        is_subtype(tg, node_type(b), node_type(a))
                else:
                    assert is_subtype(tg, node_type(a), node_type(b)) \
                        == (b in closure), seed
        with pytest.raises(UnknownTypeError):
            tg.supertype_closure("Ghost")

        cycles = {frozenset([a] + [b for b in names
                                   if reach[a, b] and reach[b, a]])
                  for a in names if reach[a, a]}
        expected = [(f"inheritance cycle: {', '.join(sorted(c))}",
                     tg.types[min(c)].span)
                    for c in sorted(cycles, key=min)]
        got = [(v.message, v.span) for v in validate_type_graph(tg)
               if "cycle" in v.message]
        assert got == expected, seed

        seen["self"] += any(s.name == a for a in names
                            for s in tg.types[a].supertypes)
        seen["long"] += any(len(c) >= 3 for c in cycles)
        seen["several"] += len(cycles) >= 2
        seen["undeclared"] += any(not tg.declared(s.name)
                                  for d in tg.types.values()
                                  for s in d.supertypes)
    assert min(seen[k] for k in ("self", "long", "several", "undeclared")) \
        >= 20, seen


def test_each_closure_is_walked_once_per_type_graph(monkeypatch, gc):
    walks = Counter()
    walk = TypeGraph._walk

    def counting(self, type_name):
        walks[self.name, type_name] += 1
        return walk(self, type_name)

    monkeypatch.setattr(TypeGraph, "_walk", counting)
    names = [node_type(n) for n in sorted(gc.types)]
    for _ in range(3):
        assert validate_type_graph(gc) == []
        assert conforms([gc], parse_graph(HOST_OK)) == []
        for a in names:
            for b in names:
                is_subtype(gc, a, b)
    assert walks == {("gc", n): 1 for n in gc.types}


def test_inheritance_cycles_print_in_a_fixed_order(tmp_path):
    # three cycles under A; the declaration order is not the name order
    (tmp_path / "t.gty").write_text(
        "typegraph t\n"
        "type S extends S\n"
        "type A extends S, Q1, P1\n"
        "type Q3 extends Q1\n"
        "type P2 extends P1\n"
        "type Q1 extends Q2\n"
        "type P1 extends P2\n"
        "type Q2 extends Q3\n", encoding="utf-8")
    src = str(Path(gtx.__file__).resolve().parents[1])
    errs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), GTX_COLOR="never",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "gtx", "validate",
                              str(tmp_path)], env=env, capture_output=True)
        assert run.returncode == 1
        errs.add(run.stderr)
    (err,) = errs
    assert err.decode() == (
        "t.gty:7:6: error: inheritance cycle: P1, P2\n"
        "t.gty:6:6: error: inheritance cycle: Q1, Q2, Q3\n"
        "t.gty:2:6: error: inheritance cycle: S\n")


def test_conformance_errors_do_not_depend_on_the_hash_seed(tmp_path):
    # several undeclared types on one node, and unlicensed edges of
    # several labels between the same nodes
    host = tmp_path / "host.gst"
    host.write_text(
        "graph h\n"
        "node a : Zeta, Node, Alpha, Mu\n"
        "node b : Edge, Beta\n"
        "node c : Graph\n"
        "edge a -zz-> b\n"
        "edge a -aa-> b\n"
        "edge a -mm-> b\n"
        "edge b -src-> a\n"
        "edge b -trg-> b\n"
        "edge c -nodes-> b\n"
        "edge c -edges-> b\n", encoding="utf-8")
    grammar = Path(gtx.__file__).resolve().parent / "fixtures/helloworld/counting"
    src = str(Path(gtx.__file__).resolve().parents[1])
    errs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), GTX_COLOR="never",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-m", "gtx", "validate",
                              str(grammar), "--graph", str(host)],
                             env=env, capture_output=True)
        assert run.returncode == 1, run.stderr
        errs.add(run.stderr)
    (err,) = errs
    assert err.count(b"is not declared") == 4
    assert err.count(b"is not licensed") == 5


def test_conflicting_attribute_kinds_across_closure():
    tg = parse_type_graph("""
typegraph t
type A
type B extends A
attr A.x : int
attr B.x : string
""")
    assert any("x" in v.message for v in validate_type_graph(tg))


def test_edge_decl_with_unknown_type_reported():
    tg = parse_type_graph("typegraph t\ntype A\nedge A -e-> Ghost\n")
    assert any("Ghost" in v.message for v in validate_type_graph(tg))


HOST_OK = """
graph h
node g : Graph
node n : Node
node e : Edge
attr n.text = "hi"
edge g -gcs-> n
edge g -gcs-> e
edge e -src-> n
edge e -trg-> n
"""


def test_conformant_graph(gc):
    assert conforms([gc], parse_graph(HOST_OK)) == []


def test_no_enabled_type_graphs_means_no_constraints(gc):
    g = parse_graph("graph h\nnode x : Whatever\nedge x -weird-> x\n")
    assert conforms([], g) == []
    assert conforms([gc], g) != []


def test_undeclared_node_type_reported(gc):
    g = parse_graph("graph h\nnode x : Mystery\n")
    assert any("Mystery" in v.message for v in conforms([gc], g))


def test_abstract_only_type_is_a_violation(gc):
    g = parse_graph("graph h\nnode x : GraphComponent\n")
    assert any("abstract" in v.message for v in conforms([gc], g))


def test_attribute_licensing_walks_the_closure(gc):
    # text is declared on the abstract supertype; Node inherits the licence
    g = parse_graph('graph h\nnode n : Node\nattr n.text = "ok"\n')
    assert conforms([gc], g) == []
    bad = parse_graph("graph h\nnode n : Node\nattr n.text = 3\n")
    assert any("text" in v.message for v in conforms([gc], bad))


def test_unlicensed_attribute_reported(gc):
    g = parse_graph('graph h\nnode n : Node\nattr n.color = "red"\n')
    assert any("color" in v.message for v in conforms([gc], g))


def test_edge_licensing_respects_subtyping(gc):
    # gcs is declared towards the abstract supertype, so both subtypes fit
    g = parse_graph("graph h\nnode g : Graph\nnode e : Edge\nedge g -gcs-> e\n")
    assert conforms([gc], g) == []
    bad = parse_graph("graph h\nnode g : Graph\nnode n : Node\nedge n -gcs-> g\n")
    assert any("gcs" in v.message for v in conforms([gc], bad))


def test_flags_are_never_checked(gc):
    g = parse_graph("graph h\nnode n : Node flag shiny flag odd\n")
    assert conforms([gc], g) == []


def test_licensing_is_disjunctive_across_type_graphs(gc):
    other = parse_type_graph("""
typegraph other
type Node
attr Node.extra : int
""")
    g = parse_graph('graph h\nnode n : Node\nattr n.text = "t"\nattr n.extra = 1\n')
    assert conforms([gc, other], g) == []
    assert conforms([gc], g) != []
    assert conforms([other], g) != []


def test_enabling_more_type_graphs_never_adds_violations(gc):
    other = parse_type_graph("typegraph other\ntype Node\nattr Node.extra : int\n")
    for text in (HOST_OK, "graph h\nnode n : Node\nattr n.extra = 1\n"):
        g = parse_graph(text)
        both = {(v.message) for v in conforms([gc, other], g)}
        assert both <= {(v.message) for v in conforms([gc], g)}
        assert both <= {(v.message) for v in conforms([other], g)}
