"""Rule structure: quantifier tree, NAC grouping, structural validation."""

from __future__ import annotations

import pytest

from gtx.graph import Value, edge_label, flag, node_type
from gtx.rules import (
    AttrConstraint,
    ConstraintKind,
    DisjunctionSet,
    QuantKind,
    Quantifier,
    Role,
    Rule,
    RuleEdge,
    RuleNode,
    UnknownQuantifierError,
    expand_neq,
    group_embargo_elements,
    validate_rule,
)

E = edge_label


def reader(nid: str, level: str = "root", **kw) -> RuleNode:
    return RuleNode(nid, Role.READER, level=level, **kw)


def embargo(nid: str, level: str = "root", **kw) -> RuleNode:
    return RuleNode(nid, Role.EMBARGO, level=level, **kw)


def forall(qid: str, parent: str = "root", count: int | None = None) -> Quantifier:
    return Quantifier(qid, QuantKind.FORALL, parent=parent, count_param=count)


# -- small helpers -----------------------------------------------------


def test_expand_neq_is_pairwise_and_normalized():
    assert expand_neq(["b", "a", "c"]) == {("a", "b"), ("a", "c"), ("b", "c")}
    assert expand_neq(["x"]) == set()
    assert expand_neq([]) == set()


def test_expand_neq_keeps_unsatisfiable_pairs_for_validation():
    # a doubly-mentioned id is a user error; the (a, a) pair survives so
    # validate_rule can report it instead of silently dropping the typo
    assert expand_neq(["a", "b", "a"]) == {("a", "a"), ("a", "b")}


# -- quantifier tree ---------------------------------------------------


def test_root_quantifier_is_synthesized():
    r = Rule("r")
    assert list(r.quantifiers) == ["root"]
    assert r.quantifiers["root"].kind is QuantKind.ROOT


def test_level_path_and_depth():
    r = Rule("r", quantifiers={"q": forall("q"), "p": forall("p", parent="q")})
    assert r.level_path("p") == ["root", "q", "p"]
    with pytest.raises(UnknownQuantifierError):
        r.level_path("ghost")


def test_children_are_reported_per_parent():
    r = Rule("r", quantifiers={"a": forall("a"), "b": forall("b"),
                               "c": forall("c", parent="a")})
    assert [q.id for q in r.children_of("root")] == ["a", "b"]
    assert [q.id for q in r.children_of("a")] == ["c"]
    assert r.children_of("c") == []


def test_count_params_collects_quantifier_indices():
    r = Rule("r", quantifiers={"a": forall("a", count=0),
                               "b": forall("b", count=2)})
    assert r.count_params() == {"a": 0, "b": 2}


def test_positive_nodes_exclude_embargo_and_sort():
    r = Rule("r", nodes={
        "z": reader("z"), "a": reader("a"),
        "n": embargo("n"), "c": RuleNode("c", Role.CREATOR),
    })
    assert [n.id for n in r.positive_nodes_at("root")] == ["a", "z"]


# -- read-only detection ----------------------------------------------


def test_pure_reader_rule_is_readonly():
    r = Rule("r", nodes={"a": reader("a")},
             edges=[RuleEdge("a", E("e"), "a", Role.READER)],
             print_format="%s")
    assert r.is_readonly()


def test_embargo_elements_keep_rule_readonly():
    r = Rule("r", nodes={"a": reader("a"), "x": embargo("x")},
             edges=[RuleEdge("a", E("e"), "x", Role.EMBARGO)])
    assert r.is_readonly()


@pytest.mark.parametrize("mutize", [
    lambda r: r.nodes.update(d=RuleNode("d", Role.ERASER)),
    lambda r: r.nodes.update(c=RuleNode("c", Role.CREATOR)),
    lambda r: r.edges.append(RuleEdge("a", E("e"), "a", Role.CREATOR)),
    lambda r: r.edges.append(RuleEdge("a", E("e"), "a", Role.ERASER)),
    lambda r: r.nodes["a"].flag_ops.append((flag("f"), Role.CREATOR)),
    lambda r: r.nodes["a"].attr_constraints.update(
        x=AttrConstraint(ConstraintKind.ASSIGN, value=Value.int_(1))),
    lambda r: r.nodes["a"].attr_constraints.update(
        x=AttrConstraint(ConstraintKind.RENAME, new_name="y")),
])
def test_any_write_makes_rule_not_readonly(mutize):
    r = Rule("r", nodes={"a": reader("a")})
    mutize(r)
    assert not r.is_readonly()


# -- NAC grouping ------------------------------------------------------


def grouped(nodes, edges, quants=None):
    quantifiers = {"root": Quantifier("root", QuantKind.ROOT)}
    for q in quants or []:
        quantifiers[q.id] = q
    return group_embargo_elements(nodes, edges, quantifiers)


def test_connected_embargo_elements_share_a_group():
    nodes = {"a": reader("a"), "x": embargo("x"), "y": embargo("y")}
    edges = [
        RuleEdge("a", E("p"), "x", Role.EMBARGO),
        RuleEdge("x", E("q"), "y", Role.EMBARGO),
    ]
    groups = grouped(nodes, edges)
    assert len(groups) == 1
    (g,) = groups.values()
    assert set(g.node_ids) == {"x", "y"}
    assert set(g.edge_indexes) == {0, 1}


def test_positive_anchor_does_not_merge_groups():
    # two embargo edges meeting only at a reader stay separate
    nodes = {"a": reader("a"), "x": embargo("x"), "y": embargo("y")}
    edges = [
        RuleEdge("a", E("p"), "x", Role.EMBARGO),
        RuleEdge("a", E("q"), "y", Role.EMBARGO),
    ]
    groups = grouped(nodes, edges)
    assert len(groups) == 2
    members = sorted(frozenset(g.node_ids) for g in groups.values())
    assert members == [frozenset({"x"}), frozenset({"y"})]
    for g in groups.values():
        assert "a" not in g.node_ids


def test_explicit_labels_pin_and_name_components():
    nodes = {"a": reader("a")}
    edges = [
        RuleEdge("a", E("p"), "a", Role.EMBARGO, group="left"),
        RuleEdge("a", E("q"), "a", Role.EMBARGO, group="right"),
    ]
    groups = grouped(nodes, edges)
    assert set(groups) == {"left", "right"}
    assert groups["left"].edge_indexes == (0,)


def test_conflicting_labels_keep_components_apart():
    # x connects the two labelled edges; the label conflict wins
    nodes = {"x": embargo("x")}
    edges = [
        RuleEdge("x", E("p"), "x", Role.EMBARGO, group="left"),
        RuleEdge("x", E("q"), "x", Role.EMBARGO, group="right"),
    ]
    groups = grouped(nodes, edges)
    assert set(groups) == {"left", "right"}
    edge_homes = [gid for gid, g in groups.items() for _ in g.edge_indexes]
    assert sorted(edge_homes) == ["left", "right"]


def test_unlabelled_groups_get_stable_synthetic_ids():
    nodes = {"x": embargo("x"), "y": embargo("y")}
    groups = grouped(nodes, [])
    assert set(groups) == {"nac0", "nac1"}
    again = grouped(nodes, [])
    assert {gid: g.node_ids for gid, g in groups.items()} == \
        {gid: g.node_ids for gid, g in again.items()}


def test_group_level_is_deepest_member_level():
    nodes = {"a": reader("a"), "x": embargo("x", level="q")}
    edges = [RuleEdge("a", E("p"), "x", Role.EMBARGO, level="q")]
    groups = grouped(nodes, edges, quants=[forall("q")])
    (g,) = groups.values()
    assert g.level == "q"


# -- validation --------------------------------------------------------


def violations_of(rule: Rule) -> list[str]:
    return [v.message for v in validate_rule(rule)]


def assert_flags(rule: Rule, *needles: str):
    msgs = violations_of(rule)
    for needle in needles:
        assert any(needle in m for m in msgs), f"{needle!r} not in {msgs}"


def test_wellformed_rule_validates_clean():
    r = Rule(
        "ok",
        nodes={"a": reader("a", type_constraint=node_type("T")),
               "b": RuleNode("b", Role.CREATOR, level="q")},
        edges=[RuleEdge("a", E("e"), "b", Role.CREATOR, level="q")],
        quantifiers={"q": forall("q", count=0)},
    )
    assert validate_rule(r) == []


def test_root_of_wrong_kind_is_malformed():
    r = Rule("r")
    r.quantifiers["root"] = Quantifier("root", QuantKind.FORALL, parent=None)
    assert_flags(r, "malformed quantifier root")


def test_unknown_quantifier_parent():
    r = Rule("r", quantifiers={"q": forall("q", parent="ghost")})
    assert_flags(r, "unknown parent")


def test_root_cannot_count():
    r = Rule("r")
    r.quantifiers["root"] = Quantifier("root", QuantKind.ROOT, count_param=0)
    assert_flags(r, "cannot carry a count parameter")


def test_quantifier_parent_cycle_detected():
    r = Rule("r", quantifiers={
        "a": forall("a", parent="b"), "b": forall("b", parent="a")})
    assert_flags(r, "parent cycle")


def test_node_at_unknown_level():
    r = Rule("r", nodes={"a": reader("a", level="ghost")})
    assert_flags(r, "unknown quantifier 'ghost'")


def test_creator_node_rejects_match_and_foreign_flags():
    n = RuleNode("c", Role.CREATOR,
                 attr_constraints={"x": AttrConstraint(ConstraintKind.MATCH,
                                                       value=Value.int_(1))},
                 flag_ops=[(flag("f"), Role.ERASER)])
    assert_flags(Rule("r", nodes={"c": n}),
                 "cannot match or rename", "only carry creator flags")


def test_embargo_node_rejects_writes():
    n = embargo("x")
    n.attr_constraints["a"] = AttrConstraint(ConstraintKind.ASSIGN,
                                             value=Value.int_(1))
    n.flag_ops.append((flag("f"), Role.CREATOR))
    assert_flags(Rule("r", nodes={"x": n}),
                 "cannot assign or rename", "only require flags")


def test_edge_with_unknown_endpoint():
    r = Rule("r", nodes={"a": reader("a")},
             edges=[RuleEdge("a", E("e"), "ghost", Role.READER)])
    assert_flags(r, "unknown node 'ghost'")


def test_path_edge_roles_are_restricted():
    from gtx.dsl import parse_regex
    path = parse_regex("-src.trg")
    r = Rule("r", nodes={"a": reader("a"), "b": reader("b")},
             edges=[RuleEdge("a", path, "b", Role.CREATOR)])
    assert_flags(r, "must be reader or embargo")


def test_group_label_needs_embargo_edge():
    r = Rule("r", nodes={"a": reader("a")},
             edges=[RuleEdge("a", E("e"), "a", Role.READER, group="g")])
    assert_flags(r, "only embargo edges take a NAC group")


def test_reader_edge_needs_present_endpoints():
    r = Rule("r", nodes={"a": reader("a"), "x": embargo("x")},
             edges=[RuleEdge("a", E("e"), "x", Role.READER)])
    assert_flags(r, "needs present endpoints")


def test_positive_edge_cannot_sit_above_its_endpoints():
    r = Rule("r",
             nodes={"a": reader("a"), "b": reader("b", level="q")},
             edges=[RuleEdge("a", E("e"), "b", Role.READER)],  # at root
             quantifiers={"q": forall("q")})
    assert_flags(r, "sits above its endpoint 'b'")


def test_creator_edge_cannot_sit_above_its_endpoints():
    r = Rule("r",
             nodes={"a": reader("a"),
                    "c": RuleNode("c", Role.CREATOR, level="q")},
             edges=[RuleEdge("a", E("e"), "c", Role.CREATOR)],  # at root
             quantifiers={"q": forall("q")})
    assert_flags(r, "sits above its endpoint 'c'")


def test_sibling_levels_cannot_share_an_edge():
    r = Rule("r",
             nodes={"a": reader("a", level="p"), "b": reader("b", level="q")},
             edges=[RuleEdge("a", E("e"), "b", Role.READER, level="q")],
             quantifiers={"p": forall("p"), "q": forall("q")})
    assert_flags(r, "sits above its endpoint 'a'")


def test_embargo_creator_contact_is_rejected_both_ways():
    c = RuleNode("c", Role.CREATOR)
    r1 = Rule("r", nodes={"c": c, "x": embargo("x")},
              edges=[RuleEdge("c", E("e"), "x", Role.EMBARGO)])
    assert_flags(r1, "cannot touch creator nodes")
    r2 = Rule("r", nodes={"c": c, "x": embargo("x")},
              edges=[RuleEdge("c", E("e"), "x", Role.CREATOR)])
    assert_flags(r2, "cannot touch embargo nodes")


def test_embargo_node_outside_any_group():
    r = Rule("r", nodes={"x": embargo("x")})  # nac_groups left empty
    assert_flags(r, "exactly one NAC group")


def test_disjunction_set_validation():
    nodes = {"x": embargo("x"), "y": embargo("y")}
    groups = grouped(nodes, [])
    r = Rule("r", nodes=dict(nodes), nac_groups=groups,
             disjunction_sets=[DisjunctionSet(("nac0",)),
                               DisjunctionSet(("nac0", "ghost"))])
    assert_flags(r, "needs at least two", "unknown NAC group 'ghost'",
                 "more than one disjunction set")


def test_injectivity_pair_validation():
    r = Rule("r", nodes={"a": reader("a")},
             injectivity_pairs={("a", "a"), ("a", "ghost")})
    assert_flags(r, "unsatisfiable", "unknown node 'ghost'")


def test_parameter_validation():
    x = embargo("x")
    x.attr_constraints["a"] = AttrConstraint(ConstraintKind.MATCH,
                                             value=Value.int_(1))
    r = Rule("r",
             nodes={"a": reader("a", level="q"), "x": x},
             quantifiers={"q": forall("q")},
             params={0: ("x", "a"), 1: ("a", "a"), 3: ("ghost", "a")})
    assert_flags(r, "cannot bind an embargo node",
                 "inside a quantifier",
                 "unknown node 'ghost'",
                 "dense from 0")


def test_parameter_on_unassigned_creator_attribute():
    r = Rule("r", nodes={"c": RuleNode("c", Role.CREATOR)},
             params={0: ("c", "x")})
    assert_flags(r, "unassigned attribute 'x'")


def test_duplicate_parameter_index_across_kinds():
    r = Rule("r",
             nodes={"a": reader("a")},
             quantifiers={"q": forall("q", count=0)},
             params={0: ("a", "attr")})
    assert_flags(r, "used more than once")
