"""Rule structure: quantifier tree, NAC grouping, structural validation."""

from __future__ import annotations

import pytest

from gtx.graph import Value, edge_label, flag, node_type
from gtx.rules import (
    AttrConstraint,
    ConstraintKind,
    InvalidRuleError,
    NacGroup,
    Quantifier,
    RegexPath,
    Role,
    Rule,
    RuleEdge,
    RuleNode,
    expand_neq,
    group_embargo_elements,
    validate_rule,
)
from gtx.dsl import parse_graph, parse_rule, parse_type_graph
from gtx.rewriter import FormatError, apply_rule, render_output

E = edge_label


def reader(nid: str, level: str = "root", **kw) -> RuleNode:
    return RuleNode(nid, Role.READER, level=level, **kw)


def embargo(nid: str, level: str = "root", **kw) -> RuleNode:
    return RuleNode(nid, Role.EMBARGO, level=level, **kw)


def forall(qid: str, parent: str = "root", count: int | None = None) -> Quantifier:
    return Quantifier(qid, parent=parent, count_param=count)


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
    assert r.quantifiers["root"].parent is None


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


@pytest.mark.parametrize("kind", list(ConstraintKind))
def test_a_constraint_without_its_value_is_refused(kind):
    with pytest.raises(ValueError, match="constraint needs a"):
        AttrConstraint(kind)


# -- NAC grouping ------------------------------------------------------


def grouped(nodes, edges, quants=None):
    quantifiers = {"root": Quantifier("root")}
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


def test_a_rule_built_in_code_is_grouped_as_the_parser_groups_it():
    n = reader("n", flag_ops=[(flag("seen"), Role.CREATOR)])
    r = Rule("r", nodes={"n": n, "x": embargo("x")},
             edges=[RuleEdge("n", E("e"), "x", Role.EMBARGO)])
    twin = parse_rule("rule r\nnode n role=reader\nnode x role=embargo\n"
                      "edge n -e-> x role=embargo\nflag n creator seen\n")
    assert r.nac_groups == twin.nac_groups == {
        "nac0": NacGroup(("x",), (0,), "root")}
    assert validate_rule(r) == []
    host = "graph g\nnode a\nnode b\nedge a -e-> b\n"
    for rule in (r, twin):
        g = apply_rule(rule, parse_graph(host)).graph
        assert [i for i, node in sorted(g.nodes.items())
                if flag("seen") in node.flags] == [1]


def test_nac_groups_are_derived_not_stored():
    r = Rule("r", nodes={"x": embargo("x")})
    with pytest.raises(AttributeError):
        r.nac_groups = {}  # type: ignore[misc]
    with pytest.raises(TypeError):
        Rule("r", nac_groups={})  # type: ignore[call-arg]


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


def test_root_with_a_parent_is_malformed():
    r = Rule("r", quantifiers={"q": forall("q")})
    r.quantifiers["root"].parent = "q"
    assert_flags(r, "malformed quantifier root")


def test_missing_root_is_malformed():
    r = Rule("r")
    del r.quantifiers["root"]
    assert_flags(r, "malformed quantifier root")


def test_unknown_quantifier_parent():
    r = Rule("r", quantifiers={"q": forall("q", parent="ghost")})
    assert_flags(r, "unknown parent")


def test_root_cannot_count():
    r = Rule("r")
    r.quantifiers["root"] = Quantifier("root", count_param=0)
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


def test_an_attribute_name_the_rule_writes_must_be_one_the_text_carries():
    # a graph that holds such a name could not be written or read back
    one = Value.int_(1)
    assign = reader("a", attr_constraints={
        "x y": AttrConstraint(ConstraintKind.ASSIGN, value=one)})
    rename = reader("b", attr_constraints={
        "v": AttrConstraint(ConstraintKind.RENAME, new_name='"w')})
    rule = Rule("r", nodes={"a": assign, "b": rename})
    assert violations_of(rule) == [
        "node 'a': attribute name 'x y' contains reserved character ' '",
        "node 'b': attribute name '\"w' begins with '\"'"]
    with pytest.raises(InvalidRuleError):
        apply_rule(rule, parse_graph("graph g\nnode n\nattr n.v = 1\n"))
    # a name that is only matched or renamed away is read, not written
    read = reader("c", attr_constraints={
        "x y": AttrConstraint(ConstraintKind.MATCH, value=one),
        "\"z": AttrConstraint(ConstraintKind.RENAME, new_name="z")})
    assert violations_of(Rule("r", nodes={"c": read})) == []


def test_edge_with_unknown_endpoint():
    r = Rule("r", nodes={"a": reader("a")},
             edges=[RuleEdge("a", E("e"), "ghost", Role.READER)])
    assert_flags(r, "unknown node 'ghost'")


def test_an_unknown_endpoint_is_reported_once_with_type_graphs():
    # the type-graph pass skips the edge the structural pass reports
    tg = parse_type_graph("typegraph t\ntype A\nedge A -e-> A\n")
    r = Rule("r", nodes={"a": reader("a", type_constraint=node_type("A"))},
             edges=[RuleEdge("a", E("e"), "zz", Role.READER)])
    assert [v.message for v in validate_rule(r, [tg])] == [
        "edge a -e-> zz references unknown node 'zz'"]


def test_path_edge_roles_are_restricted():
    from gtx.dsl import parse_regex
    path = parse_regex("-src.trg")
    r = Rule("r", nodes={"a": reader("a"), "b": reader("b")},
             edges=[RuleEdge("a", path, "b", Role.CREATOR)])
    assert_flags(r, "must be reader or embargo")


def test_a_path_needs_an_atom():
    with pytest.raises(ValueError, match="at least one atom"):
        RegexPath(())


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


def test_disjunction_set_validation():
    nodes = {"x": embargo("x"), "y": embargo("y")}
    r = Rule("r", nodes=dict(nodes),
             disjunction_sets=[("nac0",), ("nac0", "ghost")])
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


@pytest.mark.parametrize("fmt, holes, counted", [
    ("value %s", 1, 0), ("value %s", 1, 1), ("%s and %s", 2, 1),
    ("%s%%s", 1, 1), ("100%% sure%n", 0, 0), ("%%%s", 1, 0),
    ("%q %", 0, 0), ("%%s", 0, 0),
])
def test_format_holes_are_checked_as_render_output_counts_them(fmt, holes,
                                                               counted):
    # validation flags a format exactly when rendering it with the bound
    # parameters runs out of them
    r = Rule("say", nodes={"a": reader("a")}, print_format=fmt,
             quantifiers={f"q{i}": forall(f"q{i}", count=i)
                          for i in range(counted)})
    flagged = [x.message for x in validate_rule(r)]
    try:
        render_output(fmt, {i: Value.int_(i) for i in range(counted)})
        renders = True
    except FormatError:
        renders = False
    assert renders == (holes <= counted)
    assert flagged == ([] if renders else [
        f"rule 'say': format has more %s holes ({holes}) than parameters "
        f"({counted})"])


# -- validation against type graphs ------------------------------------

TYPES = parse_type_graph("typegraph t\ntype A abstract\ntype B extends A\n"
                         "attr B.x : int\nedge B -e-> B\n")
UNLICENSED = "is not licensed by any enabled type graph"


@pytest.mark.parametrize("lines, messages", [
    ("node a role=reader : B\nmatch a.x == 1\nedge a -e-> a role=reader\n"
     "node b role=reader : B\nrewrite b.x -> x\npath a ~zzz~> b role=reader",
     []),
    ("node a role=reader : Ghost",
     ["node 'a': type 'Ghost' is not declared in any enabled type graph"]),
    ("node c role=creator : A",
     ["creator node 'c': type 'A' is abstract in every enabled type graph"]),
    ("node a role=reader\nnode b role=reader : B\nmatch a.y == 1\n"
     "edge a -f-> b role=reader\nedge b -f-> a role=reader", []),
    ('node a role=reader : B\nmatch a.x == "1"',
     [f"node 'a': attribute constraint on 'x' {UNLICENSED}"]),
    ("node a role=reader : B\nassign a.y = 1",
     [f"node 'a': attribute constraint on 'y' {UNLICENSED}"]),
    ("node a role=reader : B\nrewrite a.x -> z",
     [f"node 'a': attribute constraint on 'x' {UNLICENSED}"]),
    ("node a role=reader : B\nnode b role=reader : A\n"
     "edge a -e-> b role=reader",
     [f"edge a -e-> b {UNLICENSED}"]),
], ids=["licensed", "undeclared-type", "abstract-creator", "untyped",
        "match", "assign", "rewrite", "edge"])
def test_rules_are_checked_against_type_graphs(lines, messages):
    r = parse_rule(f"rule r\n{lines}\n")
    assert [v.message for v in validate_rule(r, [TYPES])] == messages


# -- NAC group levels, synthetic ids and parameter signs ---------------


@pytest.mark.parametrize("lines, messages", [
    ("node a role=reader\nquant q forall\nnode x role=embargo in q\n"
     "edge a -e-> x role=embargo",
     ["NAC group 'nac0' mixes quantifier levels (q, root)"]),
    ("quant q forall\nnode a role=reader in q\nnode x role=embargo\n"
     "edge a -e-> x role=embargo",
     ["NAC group 'nac0': anchor 'a' is not bound at level 'root'"]),
    ("quant q forall\nnode a role=reader\nnode x role=embargo\n"
     "node y role=embargo in q\nedge a -e-> x role=embargo group g\n"
     "edge a -f-> y role=embargo in q group h\ndisjoin g h",
     ["disjunction set mixes NAC group levels (q, root)"]),
], ids=["mixed-group", "unbound-anchor", "mixed-disjunction"])
def test_nac_groups_are_checked_level_by_level(lines, messages):
    r = parse_rule(f"rule r\n{lines}\n")
    assert [v.message for v in validate_rule(r)] == messages


def test_a_synthetic_group_id_skips_an_explicit_one():
    r = parse_rule("rule r\nnode a role=reader\nnode x role=embargo\n"
                   "node y role=embargo\n"
                   "edge a -e-> x role=embargo group nac0\n"
                   "edge a -f-> y role=embargo\n")
    assert {gid: g.node_ids for gid, g in r.nac_groups.items()} == {
        "nac0": ("x",), "nac1": ("y",)}
    assert validate_rule(r) == []


@pytest.mark.parametrize("rule, messages", [
    (Rule("r", nodes={"a": reader("a")}, params={-1: ("a", "x")}),
     ["parameter index -1 is negative",
      "parameter indices must be dense from 0, got [-1]"]),
    (Rule("r", quantifiers={"q": forall("q", count=-1)}),
     ["count parameter of 'q' is negative",
      "parameter indices must be dense from 0, got [-1]"]),
    (Rule("r", nodes={"a": reader("a")},
          edges=[RuleEdge("a", E("e"), "a", Role.READER, level="ghost")]),
     ["edge a -e-> a references unknown quantifier 'ghost'"]),
], ids=["negative-param", "negative-count", "edge-in-unknown-quantifier"])
def test_hand_built_rules_report_each_fault(rule, messages):
    assert [v.message for v in validate_rule(rule)] == messages
