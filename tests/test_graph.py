"""Host graph data structure: labels, values, nodes, edges, SPO deletion."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gtx
from gtx.graph import (
    HostEdge,
    HostGraph,
    HostNode,
    KindMismatchError,
    Label,
    LabelKind,
    MissingNodeError,
    Value,
    ValueKind,
    edge_label,
    flag,
    format_real,
    node_type,
)
from gtx.rewriter import Effect, apply_effect


class TestLabel:
    def test_kinds_are_distinct(self):
        assert node_type("A") != edge_label("A")
        assert flag("A") != node_type("A")
        assert node_type("A") == Label(LabelKind.NODE_TYPE, "A")

    # "#" starts a comment and a leading '"' a string: no text carries them
    @pytest.mark.parametrize("bad", ["", "a b", "a.b", "x->y", "a:b", "né\te",
                                     "a#b", "#", '"q', '"'])
    def test_rejects_malformed_names(self, bad):
        # the cached factory and direct construction check alike
        for make in (edge_label, lambda name: Label(LabelKind.EDGE_LABEL, name),
                     node_type, flag):
            with pytest.raises(ValueError):
                make(bad)

    def test_only_a_node_type_name_may_not_hold_a_comma(self):
        # a graph file reads ": a,b" as two types
        with pytest.raises(ValueError, match="reserved character ','"):
            node_type("a,b")
        assert flag("a,b").name == edge_label("a,b").name == "a,b"
        assert edge_label('q"').name == 'q"'  # a quote inside is a word char

    def test_rejects_a_name_utf8_cannot_encode(self):
        with pytest.raises(ValueError, match="encodable as UTF-8"):
            node_type("\ud800")

    def test_hash_is_the_value_hash(self):
        lbl = Label(LabelKind.FLAG, "A")
        assert lbl is not flag("A")
        assert hash(lbl) == hash(flag("A")) == hash((LabelKind.FLAG, "A"))
        assert {lbl} == {flag("A")}

    def test_unpickling_recomputes_the_hash(self):
        # string hashes differ between processes with different seeds;
        # unpickling goes through Label.__new__, which checks the name again
        def run(seed: str, code: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(Path(gtx.__file__).parents[1]))
            return subprocess.run(
                [sys.executable, "-c", "import pickle\n"
                 "from gtx.graph import flag\n" + code],
                env=env, capture_output=True, text=True, check=True).stdout

        data = run("1", "print(pickle.dumps(flag('A')).hex())").strip()
        assert run("2", f"print(pickle.loads(bytes.fromhex('{data}'))"
                        " in {flag('A')})") == "True\n"

    @pytest.mark.parametrize("bad", ["", "a b", "\ud800"])
    def test_make_and_replace_check_the_name(self, bad):
        # both come from the NamedTuple base; _replace builds through _make
        with pytest.raises(ValueError):
            Label._make((LabelKind.EDGE_LABEL, bad))
        with pytest.raises(ValueError):
            edge_label("a")._replace(name=bad)
        renamed = edge_label("a")._replace(name="b")
        assert type(renamed) is Label and renamed == edge_label("b")

    def test_repr_is_kind_and_name(self):
        assert repr(node_type("A")) == "node-type:A"

    def test_is_the_kind_name_pair(self):
        assert flag("A") == (LabelKind.FLAG, "A")
        assert tuple(edge_label("x")) == (LabelKind.EDGE_LABEL, "x")

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_labels_of_one_kind_sort_by_name(self, seed):
        rng = random.Random(seed)
        names = [rng.choice(["a", "B", "ab", "b", "é", "A1", "_"])
                 for _ in range(rng.randint(0, 8))]
        for make in (node_type, flag, edge_label):
            assert ([lb.name for lb in sorted(make(n) for n in names)]
                    == sorted(names))

    def test_reserved_characters_all_rejected(self):
        for ch in ".-!+=:|":
            with pytest.raises(ValueError):
                node_type(f"a{ch}b")


class TestValue:
    def test_int_bounds(self):
        Value.int_(2**63 - 1)
        Value.int_(-(2**63))
        with pytest.raises(ValueError):
            Value.int_(2**63)
        with pytest.raises(ValueError):
            Value.int_(-(2**63) - 1)

    def test_int_rejects_bool(self):
        with pytest.raises(TypeError):
            Value.int_(True)

    def test_bool_text(self):
        assert Value.bool_(True).to_text() == "true"
        assert Value.bool_(False).to_text() == "false"

    def test_real_always_has_decimal_point(self):
        for x in (1.0, 1e30, 1e-7, -0.5, 123456.75):
            assert "." in format_real(x)
            assert float(format_real(x)) == x

    def test_real_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Value.real(float("nan"))
        with pytest.raises(ValueError):
            Value.real(float("inf"))

    def test_format_real_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            format_real(float("inf"))

    @pytest.mark.parametrize("make, raw", [
        (Value.string, 1), (Value.bool_, 1), (Value.real, "x")])
    def test_constructors_reject_another_python_type(self, make, raw):
        with pytest.raises(TypeError):
            make(raw)

    def test_string_rejects_a_lone_surrogate(self):
        with pytest.raises(ValueError, match="UTF-8"):
            Value.string("\ud800")
        assert Value.string("\ud7ff\ue000").raw == "\ud7ff\ue000"

    def test_equality_is_kind_sensitive(self):
        assert Value.int_(1) != Value.real(1.0)
        assert Value.string("true") != Value.bool_(True)

    def test_equality_follows_the_printed_form(self):
        zero, negzero = Value.real(0.0), Value.real(-0.0)
        assert zero.to_text() != negzero.to_text()
        assert zero != negzero
        assert zero == Value.real(0.0) and negzero == Value.real(-0.0)
        assert len({zero, negzero, Value.real(0.0)}) == 2


def build_triangle() -> tuple[HostGraph, list[int]]:
    g = HostGraph()
    a = g.add_node([node_type("N")])
    b = g.add_node([node_type("N")])
    c = g.add_node([node_type("N")])
    e = edge_label("e")
    g.add_edge(a, e, b)
    g.add_edge(b, e, c)
    g.add_edge(c, e, a)
    return g, [a, b, c]


def test_node_ids_are_fresh_and_sorted():
    g = HostGraph()
    ids = [g.add_node() for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    g.delete_node_spo(2)
    assert g.add_node() == 5, "ids must never be reused"
    assert g.node_ids() == [0, 1, 3, 4, 5]


def test_add_edge_is_idempotent():
    g, (a, b, _) = build_triangle()
    assert g.add_edge(a, edge_label("e"), b) is False
    assert len(g.edges) == 3


def test_add_edge_checks_endpoints_and_kind():
    g = HostGraph()
    a = g.add_node()
    with pytest.raises(MissingNodeError):
        g.add_edge(a, edge_label("e"), 99)
    with pytest.raises(KindMismatchError):
        g.add_edge(a, node_type("T"), a)
    with pytest.raises(KindMismatchError):
        g.add_node([edge_label("e")])


def test_add_edge_checks_its_source():
    g = HostGraph()
    a = g.add_node()
    with pytest.raises(MissingNodeError, match="edge source 99"):
        g.add_edge(99, edge_label("e"), a)


def test_update_edges_removes_then_adds():
    g, (a, b, c) = build_triangle()
    e, f = edge_label("e"), edge_label("f")
    g.update_edges([(a, e, b), (b, e, a)],
                   [HostEdge(b, f, a), HostEdge(a, e, b)])
    assert g.edges == {(a, e, b), (b, e, c), (c, e, a), (b, f, a)}
    assert all(type(edge) is HostEdge for edge in g.edges)


@pytest.mark.parametrize("bad, error, message", [
    (HostEdge(99, edge_label("e"), 0), MissingNodeError, "edge source 99"),
    (HostEdge(0, edge_label("e"), 99), MissingNodeError, "edge target 99"),
    (HostEdge(0, node_type("T"), 1), KindMismatchError, "requires an edge-label"),
])
def test_update_edges_checks_every_added_edge(bad, error, message):
    g, (a, b, _) = build_triangle()
    before = set(g.edges)
    with pytest.raises(error, match=message):
        g.update_edges([(a, edge_label("e"), b)],
                       [HostEdge(b, edge_label("f"), a), bad])
    assert g.edges == before


def test_set_attr_returns_displaced_value():
    g = HostGraph()
    n = g.add_node()
    assert g.set_attr(n, "x", Value.int_(1)) is None
    assert g.set_attr(n, "x", Value.int_(2)) == Value.int_(1)
    assert g.get_attr(n, "x") == Value.int_(2)
    assert g.get_attr(n, "missing") is None


@pytest.mark.parametrize("name, message", [
    ("x y", "attribute name 'x y' contains reserved character ' '"),
    ("a.b", "attribute name 'a.b' contains reserved character '.'"),
    ("", "attribute name must be non-empty"),
    ("#c", "attribute name '#c' contains reserved character '#'"),
    ('"q', "attribute name '\"q' begins with '\"'"),
    ("x\ud800", "attribute name must be encodable as UTF-8")])
def test_an_attribute_name_the_text_cannot_carry_is_refused(name, message):
    g = HostGraph()
    n = g.add_node(attrs={"ok": Value.int_(1)})
    with pytest.raises(ValueError, match=re.escape(message)):
        g.set_attr(n, name, Value.int_(1))
    with pytest.raises(ValueError, match=re.escape(message)):
        g.add_node(attrs={"ok": Value.int_(1), name: Value.int_(1)})
    assert (g.next_id, g.nodes[n].attrs) == (1, {"ok": Value.int_(1)})


def test_spo_deletion_drags_incident_edges():
    g, (a, b, c) = build_triangle()
    e = edge_label("e")
    g.add_edge(a, e, a)  # loop: one edge, must count once
    g.add_edge(a, edge_label("f"), b)
    removed = g.delete_node_spo(a)
    assert removed == 4  # a>b, c>a, loop, a-f>b
    assert g.node_ids() == [b, c]
    assert all(e.src in g.nodes and e.tgt in g.nodes for e in g.edges)
    assert len(g.edges) == 1


def test_spo_deletion_of_several_nodes_counts_each_edge_once():
    g, (a, b, c) = build_triangle()
    g.add_edge(b, edge_label("e"), b)  # a loop on a deleted node
    d = g.add_node()
    g.add_edge(c, edge_label("f"), d)
    # a>b joins two deleted nodes; b>c, c>a and the loop touch one each
    assert g.delete_node_spo(a, b, a) == 4
    assert g.node_ids() == [c, d]
    assert g.edges == {(c, edge_label("f"), d)}
    assert g.successors(c, edge_label("f")) == {d}
    with pytest.raises(MissingNodeError):
        g.delete_node_spo(c, a)
    assert g.node_ids() == [c, d], "a missing node leaves the graph as it was"


def test_remove_edge_reports_presence():
    g, (a, b, _) = build_triangle()
    assert g.remove_edge(a, edge_label("e"), b) is True
    assert g.remove_edge(a, edge_label("e"), b) is False


def test_copy_is_deep():
    g, (a, b, _) = build_triangle()
    g.set_attr(a, "k", Value.string("v"))
    h = g.copy()
    h.delete_node_spo(a)
    h.set_attr(b, "k2", Value.int_(9))
    assert a in g.nodes
    assert g.get_attr(a, "k") == Value.string("v")
    assert g.get_attr(b, "k2") is None
    assert g == g.copy()


def test_display_prefers_name():
    g = HostGraph()
    named = g.add_node(name="alice")
    anon = g.add_node()
    assert g.display(named) == "alice"
    assert g.display(anon) == "#1"
    assert g.display(77) == "#77"


def test_successors_and_predecessors():
    g, (a, b, c) = build_triangle()
    e = edge_label("e")
    assert g.successors(a, e) == {b}
    assert g.predecessors(a, e) == {c}
    assert g.successors(a, edge_label("other")) == set()
    assert g.successors(a, node_type("e")) == set()
    assert g.predecessors(a, flag("e")) == set()


def test_integrity_detects_hand_broken_graph():
    # the tests check that every edge's ends are nodes, which holds for
    # every graph built through the public operations, and fails here
    g, (a, _, _) = build_triangle()
    del g.nodes[a]  # bypass delete_node_spo on purpose
    assert len([e for e in g.edges
                if e.src not in g.nodes or e.tgt not in g.nodes]) == 2


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_operation_sequences_preserve_integrity(seed):
    rng = random.Random(seed)
    g = HostGraph()
    labels = [edge_label(c) for c in "abc"]
    for _ in range(rng.randint(5, 40)):
        op = rng.random()
        ids = g.node_ids()
        if op < 0.4 or not ids:
            g.add_node([node_type("T")] if rng.random() < 0.5 else [])
        elif op < 0.8:
            g.add_edge(rng.choice(ids), rng.choice(labels), rng.choice(ids))
        else:
            g.delete_node_spo(rng.choice(ids))
    assert all(e.src in g.nodes and e.tgt in g.nodes for e in g.edges)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_edges_sort_as_by_their_key(seed):
    # edges sort by source, label name and target
    rng = random.Random(seed)
    g = HostGraph()
    ids = [g.add_node() for _ in range(rng.randint(1, 6))]
    labels = [edge_label(n) for n in rng.sample(
        ["a", "b", "c", "ab", "B", "é", "z9"], rng.randint(3, 7))]
    for _ in range(rng.randint(0, 40)):
        g.add_edge(rng.choice(ids), rng.choice(labels), rng.choice(ids))
    assert sorted(g.edges) == sorted(
        g.edges, key=lambda e: (e.src, e.label.name, e.tgt))


# -- the adjacency index -------------------------------------------------


def assert_index_matches_scan(g: HostGraph, labels) -> None:
    for nid in g.node_ids():
        for lb in labels:
            assert g.successors(nid, lb) == {
                e.tgt for e in g.edges if e.src == nid and e.label == lb}
            assert g.predecessors(nid, lb) == {
                e.src for e in g.edges if e.tgt == nid and e.label == lb}


def snapshot(g: HostGraph):
    # a copy of each node's attributes too: they must not change in place
    return ({nid: n._replace(attrs=dict(n.attrs))
             for nid, n in g.nodes.items()}, set(g.edges))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_adjacency_index_follows_every_mutation(seed):
    rng = random.Random(seed)
    labels = [edge_label(c) for c in "ab"]
    g = HostGraph()
    for _ in range(rng.randint(1, 4)):
        g.add_node()
    for _ in range(rng.randint(5, 30)):
        op = rng.random()
        ids = g.node_ids()
        if op < 0.15 or not ids:
            g.add_node()
        elif op < 0.5:
            g.add_edge(rng.choice(ids), rng.choice(labels), rng.choice(ids))
        elif op < 0.7 and g.edges:
            e = rng.choice(sorted(g.edges))
            assert g.remove_edge(e.src, e.label, e.tgt)
        elif op < 0.8:
            g.delete_node_spo(rng.choice(ids))
        else:
            # mutate a copy of a graph whose index is already built
            g.successors(ids[0], labels[0])
            before = snapshot(g)
            h = g.copy()
            h_ids = h.node_ids()
            h.add_edge(rng.choice(h_ids), rng.choice(labels),
                       rng.choice(h_ids))
            if h.edges:
                e = rng.choice(sorted(h.edges))
                h.remove_edge(e.src, e.label, e.tgt)
            h.delete_node_spo(rng.choice(h_ids))
            assert_index_matches_scan(h, labels)
            assert snapshot(g) == before
            if rng.random() < 0.5:
                g = h
        assert_index_matches_scan(g, labels)


# Deleting a node with an incident edge drops the adjacency index too, so
# each effect but the last also deletes an isolated node, or none.
INDEX_EFFECTS = {
    "remove, delete isolated, add": dict(
        node_deletions=[5], edge_deletions=[(0, "e", 1), (2, "f", 3)],
        edge_creations=[(1, "e", 0), (3, "f", 3), (4, "e", 0)]),
    "remove only": dict(edge_deletions=[(1, "e", 2)]),
    "add only": dict(edge_creations=[(0, "f", 4)]),
    "remove, delete incident, add": dict(
        node_deletions=[2, 5], edge_deletions=[(0, "e", 1)],
        edge_creations=[(1, "e", 0), (3, "e", 4)]),
}


@pytest.mark.parametrize("name", sorted(INDEX_EFFECTS))
def test_apply_effect_leaves_indexes_that_agree_with_a_scan(name):
    labels = [edge_label(c) for c in "ef"]
    g = HostGraph()
    for k in range(6):
        g.add_node([node_type("TU"[k % 2])])
    for src, lb, tgt in [(0, "e", 1), (1, "e", 2), (2, "f", 3), (3, "e", 0),
                         (2, "e", 4), (4, "f", 2)]:
        g.add_edge(src, edge_label(lb), tgt)
    # built before the application, so the copy starts with every index
    assert_index_matches_scan(g, labels)
    assert_type_index_matches_scan(g)
    before = snapshot(g)
    fields = {key: [HostEdge(s, edge_label(lb), t) for s, lb, t in value]
              if key.startswith("edge") else value
              for key, value in INDEX_EFFECTS[name].items()}
    h = apply_effect(g, Effect(**fields))
    dead = set(fields.get("node_deletions", ()))
    assert h.edges == (g.edges - set(fields.get("edge_deletions", ()))
                       - {e for e in g.edges if e.src in dead or e.tgt in dead}
                       ) | set(fields.get("edge_creations", ()))
    for graph in (g, h):
        assert_index_matches_scan(graph, labels)
        assert_type_index_matches_scan(graph)
        # a deleted node has no neighbours left in the index either
        for nid in dead - graph.nodes.keys():
            assert all(not graph.successors(nid, lb)
                       and not graph.predecessors(nid, lb) for lb in labels)
    assert snapshot(g) == before


def by_type_scan(g: HostGraph) -> dict:
    return {t: sorted(nid for nid, n in g.nodes.items() if t in n.types)
            for n in g.nodes.values() for t in n.types}


def assert_type_index_matches_scan(g: HostGraph) -> None:
    assert {t: sorted(ids) for t, ids in g.by_type().items()} \
        == by_type_scan(g)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_type_index_follows_every_node_change(seed):
    rng = random.Random(seed)
    types = [node_type(c) for c in "TUV"]
    g = HostGraph()
    for _ in range(rng.randint(5, 30)):
        op = rng.random()
        ids = g.node_ids()
        if op < 0.3 or not ids:
            g.add_node(rng.sample(types, rng.randint(0, 2)))
        elif op < 0.45:
            g.add_edge(rng.choice(ids), edge_label("a"), rng.choice(ids))
        elif op < 0.6:
            g.delete_node_spo(*rng.sample(ids, rng.randint(1, len(ids))))
        elif op < 0.8:
            before = snapshot(g)
            h = g.copy()
            h.add_node(rng.sample(types, 1))
            h.delete_node_spo(rng.choice(ids))
            assert_type_index_matches_scan(h)
            assert snapshot(g) == before
            if rng.random() < 0.5:
                g = h
        else:
            before = snapshot(g)
            effect = Effect(
                node_deletions=rng.sample(ids, rng.randint(0, len(ids))),
                node_creations=[(g.next_id + k, tuple(rng.sample(types, 1)))
                                for k in range(rng.randint(0, 2))])
            h = apply_effect(g, effect)
            assert_type_index_matches_scan(g)
            assert snapshot(g) == before
            g = h
        assert_type_index_matches_scan(g)


def test_query_results_belong_to_the_caller():
    g, (a, b, _) = build_triangle()
    e = edge_label("e")
    g.successors(a, e).add(99)
    g.predecessors(b, e).clear()
    assert g.successors(a, e) == {b}
    assert g.predecessors(b, e) == {a}


# -- nodes are values that copies share ----------------------------------


def test_a_node_is_an_immutable_value():
    g = HostGraph()
    nid = g.add_node([node_type("T")], [flag("f")], "a",
                     {"k": Value.int_(1)})
    node = g.nodes[nid]
    for name in HostNode._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, getattr(node, name))
    assert type(node.types) is type(node.flags) is frozenset
    # a node without attributes holds no mutable dict that others share
    with pytest.raises(TypeError):
        HostNode(0).attrs["k"] = Value.int_(1)


def test_add_node_keeps_its_own_attributes():
    attrs = {"k": Value.int_(1)}
    g = HostGraph()
    nid = g.add_node(attrs=attrs)
    attrs["k"] = Value.int_(2)
    assert g.get_attr(nid, "k") == Value.int_(1)


def test_set_attr_replaces_the_node_only_in_its_own_graph():
    g, (a, b, _) = build_triangle()
    h = g.copy()
    assert all(h.nodes[nid] is g.nodes[nid] for nid in g.nodes)
    old = g.nodes[a]
    assert h.set_attr(a, "k", Value.int_(1)) is None
    assert g.nodes[a] is old and old.attrs == {}
    assert h.nodes[a].types is old.types and h.nodes[b] is g.nodes[b]


MUTATORS = {
    "add_node": lambda g, ids: g.add_node([node_type("U")]),
    "add_edge": lambda g, ids: g.add_edge(ids[0], edge_label("f"), ids[1]),
    "remove_edge": lambda g, ids: g.remove_edge(ids[0], edge_label("e"),
                                                ids[1]),
    "update_edges": lambda g, ids: g.update_edges(
        [(ids[0], edge_label("e"), ids[1])],
        [HostEdge(ids[1], edge_label("f"), ids[0])]),
    "delete_node_spo": lambda g, ids: g.delete_node_spo(ids[1]),
    "set_attr": lambda g, ids: g.set_attr(ids[2], "k", Value.int_(2)),
}


@pytest.mark.parametrize("changed", ["copy", "source"])
@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_a_copy_and_its_source_stay_independent(mutator, changed):
    labels = [edge_label("e"), edge_label("f")]
    g, ids = build_triangle()
    g.set_attr(ids[2], "k", Value.int_(1))
    # built before the copy, so the copy is handed every index
    assert_index_matches_scan(g, labels)
    assert_type_index_matches_scan(g)
    h = g.copy()
    target, other = (h, g) if changed == "copy" else (g, h)
    before = snapshot(other)
    MUTATORS[mutator](target, ids)
    assert snapshot(target) != before
    assert snapshot(other) == before
    for graph in (g, h):
        assert_index_matches_scan(graph, labels)
        assert_type_index_matches_scan(graph)


def test_a_graph_is_built_only_through_add_node_and_add_edge():
    # a node passed in would leave the id counter at 0, so the next
    # add_node would hand out 0 again and replace it
    with pytest.raises(TypeError):
        HostGraph("g", nodes={0: HostNode(0, name="a")})
    with pytest.raises(TypeError):
        HostGraph("g", edges=set())


def test_an_edge_is_a_named_triple_equal_to_the_plain_tuple():
    g, _ = build_triangle()
    for e in g.edges:
        src, label, tgt = e
        assert isinstance(e, HostEdge) and e == (src, label, tgt)
        assert (src, label, tgt) in g.edges and g.has_edge(src, label, tgt)
    src, label, tgt = next(iter(g.edges))
    assert g.remove_edge(src, label, tgt)
    assert (src, label, tgt) not in g.edges
