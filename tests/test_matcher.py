"""Matching, cross-checked against a brute-force enumerator.

The oracle here is deliberately naive: itertools.product over every host
node combination, relation composition for paths, and its own constraint
checks.  It shares no code with the real matcher.
"""

from __future__ import annotations

import itertools
import random

from gtx.dsl import parse_graph, parse_regex, parse_rule, parse_type_graph
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
from gtx.rewriter import apply_rule
from gtx import matcher
from gtx.matcher import (
    collect_level_matches,
    evaluate_regex_path,
    find_root_matches,
)
from gtx.rules import (
    POSITIVE_ROLES,
    AttrConstraint,
    ConstraintKind,
    DisjunctionSet,
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

E = edge_label


# -- the oracle --------------------------------------------------------


def _b_node_ok(node: RuleNode, g: HostGraph, hid: int) -> bool:
    host = g.nodes[hid]
    if node.type_constraint is not None and node.type_constraint not in host.types:
        return False
    for fl, role in node.flag_ops:
        present = fl in host.flags
        if role is Role.EMBARGO and present:
            return False
        if role is not Role.EMBARGO and not present:
            return False
    for attr, c in node.attr_constraints.items():
        if c.kind is ConstraintKind.MATCH and host.attrs.get(attr) != c.value:
            return False
        if c.kind is ConstraintKind.RENAME and attr not in host.attrs:
            return False
    return True


def _b_path_targets(g: HostGraph, path, start: int) -> set[int]:
    rel = {(n, n) for n in g.node_ids()}
    for atom in path.atoms:
        step = {(e.src, e.tgt) for e in g.edges if e.label == atom.label}
        if atom.inverse:
            step = {(b, a) for a, b in step}
        rel = {(a, d) for a, b in rel for c, d in step if b == c}
    return {b for a, b in rel if a == start}


def _b_edges_ok(g: HostGraph, asg: dict[str, int], edges) -> bool:
    for e in edges:
        if e.src not in asg or e.tgt not in asg:
            continue
        if e.is_path():
            if asg[e.tgt] not in _b_path_targets(g, e.label, asg[e.src]):
                return False
        elif not g.has_edge(asg[e.src], e.label, asg[e.tgt]):
            return False
    return True


def _b_group_matchable(rule: Rule, g: HostGraph, asg: dict[str, int],
                       grp) -> bool:
    free = [nid for nid in grp.node_ids if nid not in asg]
    edges = [rule.edges[i] for i in grp.edge_indexes]
    for combo in itertools.product(g.node_ids(), repeat=len(free)):
        trial = dict(asg) | dict(zip(free, combo))
        if all(_b_node_ok(rule.nodes[n], g, trial[n]) for n in free) \
                and _b_edges_ok(g, trial, edges):
            return True
    return False


def brute_level_matches(rule: Rule, g: HostGraph, base: dict[str, int],
                        level: str) -> list[dict[str, int]]:
    """Every extension of ``base`` by the positive nodes of ``level``."""
    free = sorted(nid for nid, n in rule.nodes.items()
                  if n.role in POSITIVE_ROLES and n.level == level)
    pos_edges = [e for e in rule.edges
                 if e.role in POSITIVE_ROLES and e.level == level]
    in_disjunction = {gid for ds in rule.disjunction_sets
                      for gid in ds.group_ids}
    out = []
    for combo in itertools.product(g.node_ids(), repeat=len(free)):
        asg = dict(base) | dict(zip(free, combo))
        if not all(_b_node_ok(rule.nodes[n], g, asg[n]) for n in free):
            continue
        if not _b_edges_ok(g, asg, pos_edges):
            continue
        if any(asg[a] == asg[b] for a, b in rule.injectivity_pairs
               if a in asg and b in asg):
            continue
        blocked = any(
            _b_group_matchable(rule, g, asg, grp)
            for gid, grp in rule.nac_groups.items()
            if gid not in in_disjunction and grp.level == level)
        for ds in rule.disjunction_sets:
            members = [rule.nac_groups[gid] for gid in ds.group_ids]
            if members[0].level == level and all(
                    _b_group_matchable(rule, g, asg, grp) for grp in members):
                blocked = True
        if not blocked:
            out.append(asg)
    return sorted(out, key=lambda a: sorted(a.items()))


def brute_root_matches(rule: Rule, g: HostGraph) -> list[dict[str, int]]:
    return brute_level_matches(rule, g, {}, "root")


# -- random instances --------------------------------------------------


def random_host(rng: random.Random) -> HostGraph:
    g = HostGraph("h")
    for _ in range(rng.randint(1, 6)):
        types = [node_type(t) for t in rng.sample(["T", "U"], rng.randint(0, 2))]
        flags = [flag(f) for f in rng.sample(["m", "k"], rng.randint(0, 2))]
        nid = g.add_node(types=types, flags=flags)
        if rng.random() < 0.6:
            g.set_attr(nid, "v", Value.int_(rng.randint(0, 2)))
    ids = g.node_ids()
    for _ in range(rng.randint(0, 8)):
        g.add_edge(rng.choice(ids), E(rng.choice("ab")), rng.choice(ids))
    return g


def random_path(rng: random.Random) -> RegexPath:
    return parse_regex(".".join(rng.choice(["a", "b", "-a", "-b"])
                                for _ in range(rng.randint(1, 3))))


def random_edge(rng: random.Random, ends: list[str], role: Role,
                level: str = "root") -> RuleEdge:
    """A plain edge or sometimes a path (possibly with inverse atoms) from
    one of ``ends`` to one of ``ends``."""
    label = random_path(rng) if rng.random() < 0.4 else E(rng.choice("ab"))
    return RuleEdge(rng.choice(ends), label, rng.choice(ends), role, level)


def random_reader(rng: random.Random, nid: str, level: str) -> RuleNode:
    node = RuleNode(nid, Role.READER, level=level)
    if rng.random() < 0.4:
        node.type_constraint = node_type(rng.choice("TU"))
    if rng.random() < 0.3:
        node.flag_ops.append(
            (flag("m"), rng.choice([Role.READER, Role.EMBARGO])))
    if rng.random() < 0.3:
        node.attr_constraints["v"] = AttrConstraint(
            ConstraintKind.MATCH, value=Value.int_(rng.randint(0, 2)))
    return node


def add_nac(rng: random.Random, r: Rule, anchors: list[str],
            level: str, group: str | None = None) -> None:
    """One embargo node hanging off an anchor, sometimes with a second
    embargo node behind it in the same group, or a forbidden path between
    two anchors.  ``group`` names the group instead of the grouping."""
    pick = rng.random()
    if pick < 0.2:
        e = random_edge(rng, anchors, Role.EMBARGO, level)
        e.group = group
        r.edges.append(e)
        return
    x, y = f"x{group or level}", f"y{group or level}"
    r.nodes[x] = RuleNode(x, Role.EMBARGO, level=level)
    if rng.random() < 0.5:
        r.nodes[x].type_constraint = node_type(rng.choice("TU"))
    r.edges.append(RuleEdge(rng.choice(anchors), E(rng.choice("ab")), x,
                            Role.EMBARGO, level, group))
    if pick < 0.6:
        r.nodes[y] = RuleNode(y, Role.EMBARGO, level=level)
        e = random_edge(rng, [x], Role.EMBARGO, level)
        e.group = group
        if rng.random() < 0.5:
            e.tgt = y
        else:
            e.src = y
        r.edges.append(e)


def add_nacs(rng: random.Random, r: Rule, anchors: list[str],
             level: str) -> None:
    """One NAC group, or sometimes two joined by a disjunction set, which
    blocks a match only when both are matchable."""
    if rng.random() < 0.6:
        add_nac(rng, r, anchors, level)
        return
    gids = (f"{level}A", f"{level}B")
    for gid in gids:
        add_nac(rng, r, anchors, level, gid)
    r.disjunction_sets.append(DisjunctionSet(gids))


def random_rule(rng: random.Random) -> Rule:
    r = Rule("rand")
    names = ["p", "q", "s"][:rng.randint(1, 3)]
    for nm in names:
        r.nodes[nm] = random_reader(rng, nm, "root")
    for _ in range(rng.randint(0, 3)):
        r.edges.append(random_edge(rng, names, Role.READER))
    if len(names) >= 2 and rng.random() < 0.4:
        r.injectivity_pairs |= expand_neq(names[:2])
    if rng.random() < 0.5:
        add_nacs(rng, r, names, "root")
    if rng.random() < 0.5:
        r.quantifiers["each"] = Quantifier("each", parent="root")
        inner = ["u", "w"][:rng.randint(1, 2)]
        for nm in inner:
            r.nodes[nm] = random_reader(rng, nm, "each")
        for _ in range(rng.randint(1, 2)):
            r.edges.append(random_edge(rng, names + inner, Role.READER,
                                       "each"))
        if rng.random() < 0.3:
            r.injectivity_pairs |= expand_neq([names[0], inner[0]])
        if rng.random() < 0.5:
            add_nacs(rng, r, names + inner, "each")
    r.nac_groups = group_embargo_elements(r.nodes, r.edges, r.quantifiers)
    return r


def test_root_matches_agree_with_brute_force():
    for seed in range(250):
        rng = random.Random(seed)
        rule = random_rule(rng)
        assert validate_rule(rule) == []
        g = random_host(rng)
        got = [m.assignment for m in find_root_matches(rule, g)]
        expected = brute_root_matches(rule, g)
        assert got == expected, f"seed {seed}: {got} != {expected}"


def test_forall_levels_agree_with_brute_force():
    levels_checked = 0
    for seed in range(500):
        rng = random.Random(seed)
        rule = random_rule(rng)
        g = random_host(rng)
        if "each" not in rule.quantifiers:
            continue
        for root in find_root_matches(rule, g):
            ext = collect_level_matches(rule, g, root)["each"].extensions
            got = [m.assignment for m in ext]
            expected = brute_level_matches(rule, g, root.assignment, "each")
            assert got == expected, f"seed {seed}: {got} != {expected}"
            assert all(m.parent is root for m in ext)
            levels_checked += 1
    assert levels_checked >= 100


def test_path_target_bound_before_its_source():
    # the typed end is bound first, so the source's candidates come from
    # walking the path backwards from the target
    g = parse_graph("graph g\nnode a\nnode b\nnode c\nnode t : T\n"
                    "edge a -e-> b\nedge c -e-> b\nedge b -f-> t\n"
                    "edge t -f-> a\n")
    rule = parse_rule("rule r\nnode s role=reader\nnode d role=reader : T\n"
                      "path s ~e.f~> d role=reader\n"
                      "path d ~-f.-e~> s role=reader\n")
    got = [m.assignment for m in find_root_matches(rule, g)]
    assert got == brute_root_matches(rule, g)
    names = {g.nodes[i].name: i for i in g.node_ids()}
    assert [m["s"] for m in got] == [names["a"], names["c"]]


def test_regex_paths_agree_with_relation_composition():
    atoms = ["a", "b", "-a", "-b"]
    for seed in range(120):
        rng = random.Random(10_000 + seed)
        g = random_host(rng)
        path = parse_regex(".".join(
            rng.choice(atoms) for _ in range(rng.randint(1, 4))))
        for start in g.node_ids():
            assert evaluate_regex_path(g, path, {start}) == \
                _b_path_targets(g, path, start)


def test_a_rule_is_planned_once(monkeypatch):
    calls = []
    real_plan = matcher._plan

    def plan(*args):
        calls.append(args)
        return real_plan(*args)

    monkeypatch.setattr(matcher, "_plan", plan)
    rule = parse_rule("rule r\nquant q forall count 0\nformat \"%s\"\n"
                      "node p role=reader\nnode x role=embargo\n"
                      "edge p -a-> x role=embargo\n"
                      "node n role=reader in q\nnode y role=embargo in q\n"
                      "edge p -b-> n role=reader in q\n"
                      "edge n -a-> y role=embargo in q\n")
    rng = random.Random(7)
    applied = sum(apply_rule(rule, random_host(rng)) is not None
                  for _ in range(25))
    assert applied >= 20
    # one search per level and one per NAC group: root, q and their NACs
    assert len(calls) == 4
    assert sum(1 + sum(map(len, level.nacs))
               for level in rule.compiled.values()) == 4


# -- targeted behaviour ------------------------------------------------


def test_path_evaluation_basics():
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n"
                    "edge a -e-> b\nedge b -e-> c\n")
    ids = {g.nodes[i].name: i for i in g.node_ids()}
    two = parse_regex("e.e")
    assert evaluate_regex_path(g, two, {ids["a"]}) == {ids["c"]}
    back = parse_regex("-e")
    assert evaluate_regex_path(g, back, {ids["c"]}) == {ids["b"]}
    assert evaluate_regex_path(g, parse_regex("ghost"), {ids["a"]}) == set()
    assert evaluate_regex_path(g, parse_regex("e.ghost.e"), {ids["a"]}) == set()


def test_matching_is_non_injective_by_default():
    g = parse_graph("graph g\nnode n\nedge n -e-> n\n")
    rule = parse_rule("rule r\nnode a role=reader\nnode b role=reader\n"
                      "edge a -e-> b role=reader\n")
    assert len(find_root_matches(rule, g)) == 1  # a and b share the node
    strict = parse_rule("rule r\nnode a role=reader\nnode b role=reader\n"
                        "edge a -e-> b role=reader\nneq a b\n")
    assert find_root_matches(strict, g) == []
    # unparseable, and flagged by validation, but still never a match
    itself = Rule("r", nodes={"a": RuleNode("a", Role.READER)},
                  injectivity_pairs={("a", "a")})
    assert find_root_matches(itself, g) == []


def test_eraser_elements_match_like_readers():
    g = parse_graph("graph g\nnode a : T flag m\nnode b\nedge a -e-> b\n")
    rule = parse_rule("rule r\nnode d role=eraser : T\nflag d eraser m\n"
                      "node t role=reader\nedge d -e-> t role=eraser\n")
    matches = find_root_matches(rule, g)
    assert len(matches) == 1
    ids = {g.nodes[i].name: i for i in g.node_ids()}
    assert matches[0].assignment == {"d": ids["a"], "t": ids["b"]}


def test_anchored_nac_blocks_per_anchor():
    g = parse_graph("graph g\nnode busy\nnode idle\nnode other\n"
                    "edge busy -a-> other\n")
    rule = parse_rule("rule r\nnode p role=reader\nnode x role=embargo\n"
                      "edge p -a-> x role=embargo\n")
    names = {g.nodes[i].name: i for i in g.node_ids()}
    got = {m.assignment["p"] for m in find_root_matches(rule, g)}
    assert got == {names["idle"], names["other"]}


DISJ_HOST = """
graph g
node both
node onlya
node bare
node sink
edge both -a-> sink
edge both -b-> sink
edge onlya -a-> sink
"""

TWO_NACS = """
rule r
node p role=reader
node x role=embargo
node y role=embargo
edge p -a-> x role=embargo group ga
edge p -b-> y role=embargo group gb
"""


def test_separate_nac_groups_are_a_conjunction_of_absences():
    g = parse_graph(DISJ_HOST)
    names = {g.nodes[i].name: i for i in g.node_ids()}
    got = {m.assignment["p"] for m in find_root_matches(parse_rule(TWO_NACS), g)}
    # every node with ANY forbidden edge is blocked
    assert got == {names["bare"], names["sink"]}


def test_disjoined_nac_groups_fail_only_together():
    g = parse_graph(DISJ_HOST)
    names = {g.nodes[i].name: i for i in g.node_ids()}
    rule = parse_rule(TWO_NACS + "disjoin ga gb\n")
    got = {m.assignment["p"] for m in find_root_matches(rule, g)}
    # only the node with BOTH forbidden edges is blocked
    assert got == {names["onlya"], names["bare"], names["sink"]}


def test_bound_parameters_read_host_attributes():
    g = parse_graph('graph g\nnode a\nnode b\nattr a.v = 7\n')
    rule = parse_rule("rule r\nnode p role=reader\nbind 0 = p.v\n")
    matches = find_root_matches(rule, g)
    # the node without the attribute cannot supply the parameter
    assert len(matches) == 1
    assert matches[0].bound_params == {0: Value.int_(7)}


def test_bound_parameters_on_creator_nodes_use_the_assigned_value():
    g = parse_graph("graph g\nnode a\n")
    rule = parse_rule('rule r\nnode p role=reader\nnode c role=creator\n'
                      'assign c.t = "made"\nbind 0 = c.t\n')
    matches = find_root_matches(rule, g)
    assert matches and all(
        m.bound_params == {0: Value.string("made")} for m in matches)


def test_subtype_constraint_needs_enabled_type_graphs():
    tg = parse_type_graph("typegraph t\ntype A\ntype B extends A\n")
    g = parse_graph("graph g\nnode n : B\n")
    rule = parse_rule("rule r\nnode p role=reader : A\n")
    assert find_root_matches(rule, g) == []
    assert len(find_root_matches(rule, g, [tg])) == 1


def test_match_order_is_canonical():
    g = parse_graph("graph g\nnode c\nnode a\nnode b\n")
    rule = parse_rule("rule r\nnode p role=reader\n")
    got = [m.assignment["p"] for m in find_root_matches(rule, g)]
    assert got == sorted(got)


# -- quantified levels -------------------------------------------------


def test_universal_level_collects_every_extension():
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n")
    (root,) = find_root_matches(rule, g)
    levels = collect_level_matches(rule, g, root)
    assert levels["q"].count == 3
    assert all(m.parent is root for m in levels["q"].extensions)


def test_nested_levels_link_to_their_parent_extension():
    g = parse_graph("graph g\nnode r1\nnode c1\nnode c2\n"
                    "edge r1 -e-> c1\nedge r1 -e-> c2\nedge c1 -e-> c2\n")
    rule = parse_rule(
        "rule r\n"
        "quant outer forall\n"
        "quant inner forall in outer\n"
        "node a role=reader in outer\n"
        "node b role=reader in inner\n"
        "edge a -e-> b role=reader in inner\n")
    (root,) = find_root_matches(rule, g)
    levels = collect_level_matches(rule, g, root)
    assert levels["outer"].count == 3
    # one inner extension per host edge, hanging off the right parent
    assert levels["inner"].count == 3
    for m in levels["inner"].extensions:
        assert m.parent in levels["outer"].extensions
        assert m.assignment["a"] == m.parent.assignment["a"]


def test_level_nacs_filter_extensions_individually():
    g = parse_graph("graph g\nnode a\nnode b\nnode s\nedge a -e-> s\n")
    rule = parse_rule(
        "rule r\n"
        "quant q forall\n"
        "node n role=reader in q\n"
        "node x role=embargo in q\n"
        "edge n -e-> x role=embargo in q\n")
    (root,) = find_root_matches(rule, g)
    levels = collect_level_matches(rule, g, root)
    names = {g.nodes[i].name: i for i in g.node_ids()}
    got = {m.assignment["n"] for m in levels["q"].extensions}
    assert got == {names["b"], names["s"]}  # a has an e-successor


def test_count_matches_number_of_extensions():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nquant q forall count 0\n"
                      "node n role=reader in q\nformat \"%s\"\n")
    (root,) = find_root_matches(rule, g)
    assert collect_level_matches(rule, g, root)["q"].count == 2
