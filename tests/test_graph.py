"""Host graph data structure: labels, values, nodes, edges, SPO deletion."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from gtx.graph import (
    HostGraph,
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


class TestLabel:
    def test_kinds_are_distinct(self):
        assert node_type("A") != edge_label("A")
        assert flag("A") != node_type("A")
        assert node_type("A") == Label(LabelKind.NODE_TYPE, "A")

    @pytest.mark.parametrize("bad", ["", "a b", "a.b", "x->y", "a:b", "né\te"])
    def test_rejects_malformed_names(self, bad):
        with pytest.raises(ValueError):
            edge_label(bad)

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


def test_set_attr_returns_displaced_value():
    g = HostGraph()
    n = g.add_node()
    assert g.set_attr(n, "x", Value.int_(1)) is None
    assert g.set_attr(n, "x", Value.int_(2)) == Value.int_(1)
    assert g.get_attr(n, "x") == Value.int_(2)
    assert g.get_attr(n, "missing") is None


def test_spo_deletion_drags_incident_edges():
    g, (a, b, c) = build_triangle()
    e = edge_label("e")
    g.add_edge(a, e, a)  # loop: one edge, must count once
    g.add_edge(a, edge_label("f"), b)
    removed = g.delete_node_spo(a)
    assert removed == 4  # a>b, c>a, loop, a-f>b
    assert g.node_ids() == [b, c]
    assert g.integrity_errors() == []
    assert len(g.edges) == 1


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
    g, (a, _, _) = build_triangle()
    del g.nodes[a]  # bypass delete_node_spo on purpose
    problems = g.integrity_errors()
    assert len(problems) == 2
    assert all("dangling" in p for p in problems)


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
    assert g.integrity_errors() == []


# -- the adjacency index -------------------------------------------------


def assert_index_matches_scan(g: HostGraph, labels) -> None:
    for nid in g.node_ids():
        for lb in labels:
            assert g.successors(nid, lb) == {
                e.tgt for e in g.edges if e.src == nid and e.label == lb}
            assert g.predecessors(nid, lb) == {
                e.src for e in g.edges if e.tgt == nid and e.label == lb}


def snapshot(g: HostGraph):
    return (dict((nid, n.clone()) for nid, n in g.nodes.items()),
            set(g.edges))


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
            e = rng.choice(sorted(g.edges, key=lambda e: e.key()))
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
                e = rng.choice(sorted(h.edges, key=lambda e: e.key()))
                h.remove_edge(e.src, e.label, e.tgt)
            h.delete_node_spo(rng.choice(h_ids))
            assert_index_matches_scan(h, labels)
            assert snapshot(g) == before
            if rng.random() < 0.5:
                g = h
        assert_index_matches_scan(g, labels)


def test_query_results_belong_to_the_caller():
    g, (a, b, _) = build_triangle()
    e = edge_label("e")
    g.successors(a, e).add(99)
    g.predecessors(b, e).clear()
    assert g.successors(a, e) == {b}
    assert g.predecessors(b, e) == {a}
