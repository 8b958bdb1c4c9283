"""Rewriting: effect planning, graph surgery, printed output."""

from __future__ import annotations

import random

import pytest

from gtx.dsl import parse_graph, parse_rule, serialize_graph
from gtx.graph import Value, edge_label, flag, node_type
from gtx.matcher import find_root_matches
from gtx.rewriter import (
    FormatError,
    apply_effect,
    apply_repeatedly,
    apply_rule,
    applications,
    is_effective,
    plan_application,
    render_output,
)
from gtx.suite import (
    fixture_grammar_names,
    load_fixture_grammar,
    random_nodified_graph,
)


def names_of(g):
    return {g.nodes[i].name: i for i in g.node_ids()}


def single_match(rule, g):
    matches = find_root_matches(rule, g)
    assert len(matches) == 1, [m.assignment for m in matches]
    return matches[0]


# -- deletion ----------------------------------------------------------


def test_node_deletion_drags_incident_edges():
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n"
                    "edge a -e-> b\nedge b -e-> c\nedge b -l-> b\n")
    rule = parse_rule("rule r\nnode d role=eraser\nnode k role=reader\n"
                      "edge d -e-> k role=reader\nneq d k\n"
                      "node w role=embargo\nedge w -e-> d role=embargo\n")
    # the NAC pins d to the source-most node with an e-successor: a? no —
    # w -e-> d forbidden means d has no e-predecessor, so d = a
    result = apply_rule(rule, g)
    assert result is not None
    out = result.graph
    assert len(out.nodes) == 2
    assert {n.name for n in out.nodes.values()} == {"b", "c"}
    # a's incident edge went with it; untouched edges survive
    labels = sorted((out.nodes[e.src].name, e.label.name, out.nodes[e.tgt].name)
                    for e in out.edges)
    assert labels == [("b", "e", "c"), ("b", "l", "b")]


def test_deleting_via_one_role_wins_over_other_writes():
    # the same node is deleted and flagged; deletion silences the flag write
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule("rule r\nnode d role=eraser\nflag d creator shiny\n")
    match = single_match(rule, g)
    effect = plan_application(rule, g, match)
    assert effect.node_deletions == [match.assignment["d"]]
    assert effect.flag_changes == []
    out = apply_effect(g, effect)
    assert out.nodes == {}


def test_edge_deletion_between_kept_nodes():
    g = parse_graph("graph g\nnode a\nnode b\nedge a -e-> b\nedge a -f-> b\n")
    rule = parse_rule("rule r\nnode s role=reader\nnode t role=reader\n"
                      "edge s -e-> t role=eraser\nedge s -f-> t role=reader\n")
    result = apply_rule(rule, g)
    assert [e.label.name for e in result.graph.edges] == ["f"]


# -- creation ----------------------------------------------------------


def test_creator_nodes_get_types_flags_and_attrs():
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule('rule r\nnode p role=reader\nnode c role=creator : T\n'
                      'flag c creator fresh\nassign c.text = "made"\n'
                      'edge p -owns-> c role=creator\n')
    result = apply_rule(rule, g)
    out = result.graph
    assert len(out.nodes) == 2
    created = next(n for n in out.nodes.values() if n.name is None)
    assert created.types == {node_type("T")}
    assert created.flags == {flag("fresh")}
    assert created.attrs == {"text": Value.string("made")}
    (e,) = out.edges
    assert out.nodes[e.src].name == "a" and e.tgt == created.id


def test_created_nodes_are_distinct_per_quantifier_extension():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n"
                      "node c role=creator in q\n"
                      "edge c -of-> n role=creator in q\n")
    (match,) = find_root_matches(rule, g)
    effect = plan_application(rule, g, match)
    assert len(effect.node_creations) == 2
    refs = set(effect.node_creations)
    assert len(refs) == 2
    assert {e[0] for e in effect.edge_creations} == refs
    out = apply_effect(g, effect)
    assert len(out.nodes) == 4 and len(out.edges) == 2


def test_creator_context_is_inherited_by_child_levels():
    # a root-created hub is wired to every universally matched node
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n")
    rule = parse_rule("rule r\nnode hub role=creator\nquant q forall\n"
                      "node n role=reader in q\n"
                      "edge hub -sees-> n role=creator in q\n")
    (match,) = find_root_matches(rule, g)
    effect = plan_application(rule, g, match)
    assert len(effect.node_creations) == 1
    hub_ref = effect.node_creations[0]
    assert sorted(e[1].name for e in effect.edge_creations) == ["sees"] * 3
    assert all(src is hub_ref for src, _, _ in effect.edge_creations)
    out = apply_effect(g, effect)
    assert len(out.nodes) == 4 and len(out.edges) == 3


def test_edge_creation_is_idempotent_against_existing_edges():
    g = parse_graph("graph g\nnode a\nnode b\nedge a -e-> b\n")
    rule = parse_rule("rule r\nnode s role=reader\nnode t role=reader\n"
                      "neq s t\nedge s -e-> t role=creator\n")
    for match in find_root_matches(rule, g):
        out = apply_effect(g, plan_application(rule, g, match))
        assert len(out.edges) <= 2  # never a duplicate triple
    # the a->b match changes nothing: the edge already exists
    result = apply_rule(rule, g)
    created = {(result.graph.nodes[e.src].name, result.graph.nodes[e.tgt].name)
               for e in result.graph.edges}
    assert created == {("a", "b"), ("b", "a")}


SWAP = ("rule swap\nnode e role=reader\nnode s role=reader\nnode t role=reader\n"
        "edge e -src-> s role=eraser\nedge e -trg-> t role=eraser\n"
        "edge e -src-> t role=creator\nedge e -trg-> s role=creator\n")


def test_deleting_and_recreating_the_same_edge_cancels_out():
    # swapping the endpoints of a self-loop touches four edge roles but
    # nets out to nothing; the loop must keep both its references
    g = parse_graph("graph g\nnode e\nnode n\n"
                    "edge e -src-> n\nedge e -trg-> n\n")
    rule = parse_rule(SWAP)
    (match,) = find_root_matches(rule, g)
    effect = plan_application(rule, g, match)
    assert effect.is_empty()
    assert len(apply_effect(g, effect).edges) == 2
    assert apply_rule(rule, g) is None


def test_loop_refs_survive_when_another_match_is_effective():
    g = parse_graph("graph g\nnode e\nnode n\nnode f\nnode a\nnode b\n"
                    "edge e -src-> n\nedge e -trg-> n\n"
                    "edge f -src-> a\nedge f -trg-> b\n")
    result = apply_rule(parse_rule(SWAP), g)
    assert result is not None
    out = result.graph
    triples = {(out.nodes[e.src].name, e.label.name, out.nodes[e.tgt].name)
               for e in out.edges}
    assert triples == {("e", "src", "n"), ("e", "trg", "n"),
                       ("f", "src", "b"), ("f", "trg", "a")}


# -- attributes and flags ----------------------------------------------


def test_assign_overwrites_and_rename_moves_values():
    g = parse_graph('graph g\nnode a\nattr a.old = "keep"\nattr a.v = 1\n')
    rule = parse_rule('rule r\nnode n role=reader\n'
                      'rewrite n.old -> text\nassign n.v = 2\n')
    result = apply_rule(rule, g)
    (node,) = result.graph.nodes.values()
    assert node.attrs == {"text": Value.string("keep"), "v": Value.int_(2)}
    # the input graph is untouched
    assert g.nodes[single_match(rule, g).assignment["n"]].attrs["v"] == Value.int_(1)


def test_flag_ops_add_and_remove():
    g = parse_graph("graph g\nnode a flag old\n")
    rule = parse_rule("rule r\nnode n role=reader\n"
                      "flag n eraser old\nflag n creator new\n")
    result = apply_rule(rule, g)
    (node,) = result.graph.nodes.values()
    assert node.flags == {flag("new")}


def test_rename_reads_the_pre_state_value():
    # two quantifier extensions rename the same attribute name on
    # different nodes; each write uses that node's own old value
    g = parse_graph('graph g\nnode a\nattr a.k = 1\nnode b\nattr b.k = 2\n')
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n"
                      "rewrite n.k -> v\n")
    result = apply_rule(rule, g)
    by_name = {n.name: n for n in result.graph.nodes.values()}
    assert by_name["a"].attrs == {"v": Value.int_(1)}
    assert by_name["b"].attrs == {"v": Value.int_(2)}


@pytest.mark.parametrize("lines, host, expected, changes", [
    # of two values written to one attribute the greater by sort key wins;
    # sort keys compare printed text, so 9 beats 10
    ("assign x.v = 9\nassign y.v = 10\n",
     "node a\nattr a.v = 1\n", "node a\nattr a.v = 9\n", 1),
    # an addition beats a removal
    ("flag x creator f\nflag y eraser f\n",
     "node a flag f\n", "node a flag f\n", 0),
    # the renamed value and the assigned one conflict; the rename still
    # deletes the old name
    ('rewrite x.a -> v\nassign y.v = "z"\n',
     'node a\nattr a.a = "q"\n', 'node a\nattr a.v = "z"\n', 2),
    # every forall match creates the same edge between root nodes
    ("flag x reader h\nflag y reader h\nquant q forall\n"
     "node n role=reader in q\nedge x -e-> y role=creator in q\n",
     "node a flag h\nnode b\nnode c\n",
     "node a flag h\nnode b\nnode c\nedge a -e-> a\n", 1),
], ids=["writes", "flags", "rename-and-write", "shared-creator-edge"])
def test_rule_nodes_on_one_host_node_resolve_conflicts(lines, host, expected,
                                                        changes):
    # x and y both match the host node a
    rule = parse_rule("rule r\nnode x role=reader\nnode y role=reader\n"
                      + lines)
    g = parse_graph("graph g\n" + host)
    effect = plan_application(rule, g, single_match(rule, g))
    assert sum(len(getattr(effect, f)) for f in (
        "node_deletions", "edge_deletions", "node_creations",
        "edge_creations", "attr_writes", "attr_deletions",
        "flag_changes")) == changes
    assert serialize_graph(apply_effect(g, effect)) == serialize_graph(
        parse_graph("graph g\n" + expected))


# -- whole-rule behaviour ----------------------------------------------


def test_all_extensions_apply_against_the_pre_state():
    # reversing every edge of a triangle must not chase its own writes
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n"
                    "edge a -e-> b\nedge b -e-> c\nedge c -e-> a\n")
    rule = parse_rule("rule r\nquant q forall\n"
                      "node s role=reader in q\nnode t role=reader in q\n"
                      "edge s -e-> t role=eraser in q\n"
                      "edge t -e-> s role=creator in q\n")
    result = apply_rule(rule, g)
    out = result.graph
    got = sorted((out.nodes[e.src].name, out.nodes[e.tgt].name)
                 for e in out.edges)
    assert got == [("a", "c"), ("b", "a"), ("c", "b")]


def test_deleted_nodes_absorb_writes_from_other_levels():
    # one level deletes n, another wants an edge touching n: deletion wins
    g = parse_graph("graph g\nnode a\nnode doomed\nedge a -mark-> doomed\n")
    rule = parse_rule(
        "rule r\nnode p role=reader\nnode d role=eraser\n"
        "edge p -mark-> d role=reader\n"
        "quant q forall\nnode n role=reader in q\n"
        "edge n -to-> d role=creator in q\n")
    result = apply_rule(rule, g)
    out = result.graph
    assert {n.name for n in out.nodes.values()} == {"a"}
    assert out.edges == set()


def test_effect_collects_counts_and_params():
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n")
    rule = parse_rule('rule r\nquant q forall count 0\n'
                      'node n role=reader in q\nformat "%s nodes"\n')
    (match,) = find_root_matches(rule, g)
    effect = plan_application(rule, g, match)
    assert effect.counts == {"q": 3}
    assert effect.param_values == {0: Value.int_(3)}
    assert effect.is_empty()


def test_apply_rule_skips_ineffective_matches():
    # matching alone is not application: no effect, no format, no result
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule("rule r\nnode n role=reader\n")
    assert apply_rule(rule, g) is None


def test_print_only_rules_are_always_effective():
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule('rule r\nnode n role=reader\nformat "hi%n"\n')
    result = apply_rule(rule, g)
    assert result is not None
    assert result.output == "hi\n"
    assert serialize_graph(result.graph) == serialize_graph(g)


def test_unmatched_rule_does_not_apply():
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule("rule r\nnode n role=eraser : Ghost\n")
    assert apply_rule(rule, g) is None


def test_effectless_first_match_falls_through_to_an_effective_one():
    # creating an edge that exists for a=b, but not for the b=a direction
    g = parse_graph("graph g\nnode a\nnode b\nedge a -e-> b\n")
    rule = parse_rule("rule r\nnode s role=reader\nnode t role=reader\n"
                      "edge s -e-> t role=reader\n"
                      "edge t -e-> s role=creator\n")
    result = apply_rule(rule, g)
    assert result is not None
    assert len(result.graph.edges) == 2


def test_is_effective_reflects_emptiness_and_format():
    g = parse_graph("graph g\nnode a\n")
    plain = parse_rule("rule r\nnode n role=reader\n")
    match = single_match(plain, g)
    assert not is_effective(plain, plan_application(plain, g, match))
    printing = parse_rule('rule r\nnode n role=reader\nformat "x"\n')
    assert is_effective(printing, plan_application(printing, g, match))


def test_apply_match_targets_a_specific_assignment():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nnode d role=eraser\n")
    matches = find_root_matches(rule, g)
    second = apply_effect(g, plan_application(rule, g, matches[1]))
    assert {n.name for n in second.nodes.values()} == {"a"}


# -- the application pipeline ------------------------------------------


def test_applications_agree_with_hand_built_pairs():
    rng = random.Random(4)
    hosts = [random_nodified_graph(rng) for _ in range(25)]
    checked = 0
    for name in fixture_grammar_names():
        grammar = load_fixture_grammar(name)
        tgs = grammar.type_graphs
        for rule in grammar.rules.values():
            for g in [grammar.start, *hosts]:
                expected = []
                for match in find_root_matches(rule, g, tgs):
                    effect = plan_application(rule, g, match, tgs)
                    if is_effective(rule, effect):
                        expected.append((match, effect))
                assert list(applications(rule, g, tgs)) == expected
                checked += len(expected)
    assert checked > 100


def test_apply_repeatedly_stops_once_the_rule_is_inapplicable():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nnode d role=eraser\n")
    out, outputs, applied = apply_repeatedly(rule, g, None, 10)
    assert applied == 2
    assert out.nodes == {}
    assert outputs == []
    assert len(g.nodes) == 2  # the input graph is untouched


def test_apply_repeatedly_stops_at_the_limit():
    # a print-only rule is always effective, so it never becomes inapplicable
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule('rule r\nnode n role=reader\nformat "x"\n')
    out, outputs, applied = apply_repeatedly(rule, g, None, 3)
    assert applied == 3
    assert outputs == ["x", "x", "x"]
    assert serialize_graph(out) == serialize_graph(g)


# -- printed output ----------------------------------------------------


def test_render_output_substitutes_in_order():
    params = {0: Value.int_(3), 1: Value.string("things")}
    assert render_output("%s %s%n", params) == "3 things\n"


def test_render_output_literals_and_unknown_directives():
    assert render_output("100%% sure%n", {}) == "100% sure\n"
    assert render_output("%q stays", {}) == "%q stays"


def test_render_output_ignores_extra_params():
    assert render_output("only %s", {0: Value.int_(1), 1: Value.int_(2)}) \
        == "only 1"


def test_render_output_rejects_exhausted_params():
    with pytest.raises(FormatError):
        render_output("%s and %s", {0: Value.int_(1)})


def test_render_output_formats_value_kinds():
    params = {0: Value.bool_(True), 1: Value.real(2.0), 2: Value.string("s")}
    assert render_output("%s %s %s", params) == "true 2.0 s"
