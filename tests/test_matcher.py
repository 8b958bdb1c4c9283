"""Matching, cross-checked against a brute-force enumerator.

The oracle here is deliberately naive: itertools.product over every host
node combination, relation composition for paths, Warshall's closure for
subtyping, and its own constraint checks.  It shares no code with the real
matcher.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter

from gtx.dsl import parse_graph, parse_regex, parse_rule, parse_type_graph
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
from gtx.rewriter import apply_rule, plan_application
from gtx import matcher
from gtx.matcher import (
    collect_level_matches,
    evaluate_regex_path,
    find_root_matches,
)
from gtx.typegraph import TypeGraph
from gtx.rules import (
    POSITIVE_ROLES,
    ROOT_QUANT,
    AttrConstraint,
    ConstraintKind,
    Quantifier,
    RegexPath,
    Role,
    Rule,
    RuleEdge,
    RuleNode,
    expand_neq,
    validate_rule,
)
from test_typegraph import strict_reach

E = edge_label


# -- the oracle --------------------------------------------------------


def _b_below(tgs: list[TypeGraph] | None) -> set[tuple[str, str]]:
    """``(a, b)`` when a type graph declares both types and ``a`` is ``b``
    or reaches it by ``extends`` steps."""
    return {(a, b) for tg in tgs or ()
            for (a, b), reached in strict_reach(tg).items()
            if reached or a == b}


def _b_node_ok(node: RuleNode, g: HostGraph, hid: int,
               below: set[tuple[str, str]]) -> bool:
    host = g.nodes[hid]
    want = node.type_constraint
    if want is not None and want not in host.types and not any(
            (t.name, want.name) in below for t in host.types):
        return False
    for fl, role in node.flag_ops:
        present = fl in host.flags
        if role is Role.EMBARGO and present:
            return False
        # a creator flag is added by the application, not matched
        if role in POSITIVE_ROLES and not present:
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
                       grp, below: set[tuple[str, str]]) -> bool:
    edges = [rule.edges[i] for i in grp.edge_indexes]
    # an edge may end at an embargo node of another group: it is free too
    free = sorted({*grp.node_ids, *(n for e in edges for n in (e.src, e.tgt))}
                  - set(asg))
    for combo in itertools.product(g.node_ids(), repeat=len(free)):
        trial = dict(asg) | dict(zip(free, combo))
        if all(_b_node_ok(rule.nodes[n], g, trial[n], below) for n in free) \
                and _b_edges_ok(g, trial, edges):
            return True
    return False


def brute_level_matches(rule: Rule, g: HostGraph, base: dict[str, int],
                        level: str, tgs: list[TypeGraph] | None = None
                        ) -> list[dict[str, int]]:
    """Every extension of ``base`` by the positive nodes of ``level``."""
    below = _b_below(tgs)
    free = sorted(nid for nid, n in rule.nodes.items()
                  if n.role in POSITIVE_ROLES and n.level == level)
    pos_edges = [e for e in rule.edges
                 if e.role in POSITIVE_ROLES and e.level == level]
    in_disjunction = {gid for ds in rule.disjunction_sets
                      for gid in ds}
    out = []
    for combo in itertools.product(g.node_ids(), repeat=len(free)):
        asg = dict(base) | dict(zip(free, combo))
        if not all(_b_node_ok(rule.nodes[n], g, asg[n], below)
                   for n in free):
            continue
        if not _b_edges_ok(g, asg, pos_edges):
            continue
        if any(asg[a] == asg[b] for a, b in rule.injectivity_pairs
               if a in asg and b in asg):
            continue
        blocked = any(
            _b_group_matchable(rule, g, asg, grp, below)
            for gid, grp in rule.nac_groups.items()
            if gid not in in_disjunction and grp.level == level)
        for ds in rule.disjunction_sets:
            members = [rule.nac_groups[gid] for gid in ds]
            if members[0].level == level and all(
                    _b_group_matchable(rule, g, asg, grp, below)
                    for grp in members):
                blocked = True
        if not blocked:
            out.append(asg)
    return sorted(out, key=lambda a: sorted(a.items()))


def brute_root_matches(rule: Rule, g: HostGraph,
                       tgs: list[TypeGraph] | None = None
                       ) -> list[dict[str, int]]:
    return brute_level_matches(rule, g, {}, "root", tgs)


# -- random instances --------------------------------------------------


def random_host(rng: random.Random, alphabet: str = "TU") -> HostGraph:
    """Up to 6 nodes with up to two types of ``alphabet`` each."""
    g = HostGraph("h")
    for _ in range(rng.randint(1, 6)):
        types = [node_type(t)
                 for t in rng.sample(list(alphabet), rng.randint(0, 2))]
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


def random_reader(rng: random.Random, nid: str, level: str,
                  alphabet: str = "TU") -> RuleNode:
    node = RuleNode(nid, Role.READER, level=level)
    if rng.random() < 0.4:
        node.type_constraint = node_type(rng.choice(alphabet))
    if rng.random() < 0.3:
        node.flag_ops.append(
            (flag("m"), rng.choice([Role.READER, Role.EMBARGO])))
    if rng.random() < 0.3:
        node.attr_constraints["v"] = AttrConstraint(
            ConstraintKind.MATCH, value=Value.int_(rng.randint(0, 2)))
    return node


def add_nac(rng: random.Random, r: Rule, anchors: list[str],
            level: str, group: str | None = None, alphabet: str = "TU") -> None:
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
        r.nodes[x].type_constraint = node_type(rng.choice(alphabet))
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
             level: str, alphabet: str = "TU") -> None:
    """One NAC group, or sometimes two joined by a disjunction set, which
    blocks a match only when both are matchable."""
    if rng.random() < 0.6:
        add_nac(rng, r, anchors, level, alphabet=alphabet)
        return
    gids = (f"{level}A", f"{level}B")
    for gid in gids:
        add_nac(rng, r, anchors, level, gid, alphabet)
    r.disjunction_sets.append(gids)


def random_rule(rng: random.Random, alphabet: str = "TU",
                reader=random_reader) -> Rule:
    """Readers, typed from ``alphabet`` or not, at the root and sometimes in
    a ``forall`` level, with edges, paths, ``neq`` pairs and NACs.  Each
    reader is drawn by ``reader(rng, nid, level, alphabet)``."""
    r = Rule("rand")
    names = ["p", "q", "s"][:rng.randint(1, 3)]
    for nm in names:
        r.nodes[nm] = reader(rng, nm, "root", alphabet)
    for _ in range(rng.randint(0, 3)):
        r.edges.append(random_edge(rng, names, Role.READER))
    if len(names) >= 2 and rng.random() < 0.4:
        r.injectivity_pairs |= expand_neq(names[:2])
    if rng.random() < 0.5:
        add_nacs(rng, r, names, "root", alphabet)
    if rng.random() < 0.5:
        r.quantifiers["each"] = Quantifier("each", parent="root")
        inner = ["u", "w"][:rng.randint(1, 2)]
        for nm in inner:
            r.nodes[nm] = reader(rng, nm, "each", alphabet)
        for _ in range(rng.randint(1, 2)):
            r.edges.append(random_edge(rng, names + inner, Role.READER,
                                       "each"))
        if rng.random() < 0.3:
            r.injectivity_pairs |= expand_neq([names[0], inner[0]])
        if rng.random() < 0.5:
            add_nacs(rng, r, names + inner, "each", alphabet)
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
            assert all(root.assignment.items() <= m.assignment.items()
                       for m in ext)
            levels_checked += 1
    assert levels_checked >= 100


TYPES = "TUVW"


def random_type_graph(rng: random.Random) -> TypeGraph:
    """All or all but one of ``TYPES`` declared, each extending one or two
    of them or an undeclared name, so cycles and self-extension occur."""
    lines = ["typegraph t"]
    for name in rng.sample(TYPES, rng.randint(len(TYPES) - 1, len(TYPES))):
        sups = rng.sample(TYPES + "X", rng.randint(1, 2))
        lines.append(f"type {name} extends {','.join(sups)}")
    return parse_type_graph("\n".join(lines) + "\n")


def test_typed_matches_agree_with_brute_force_subtyping():
    """Type constraints on bound and unbound nodes, on NAC nodes and in
    ``forall`` levels, with no, one or two type graphs enabled."""
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(40_000 + seed)
        tgs = [random_type_graph(rng) for _ in range(rng.randint(1, 2))]
        rule = random_rule(rng, TYPES)
        g = random_host(rng, TYPES)
        found = []
        for enabled in (None, tgs):
            roots = find_root_matches(rule, g, enabled)
            got = [m.assignment for m in roots]
            assert got == brute_root_matches(rule, g, enabled), seed
            for root in roots if "each" in rule.quantifiers else ():
                ext = collect_level_matches(rule, g, root, enabled)["each"]
                level = [m.assignment for m in ext.extensions]
                assert level == brute_level_matches(
                    rule, g, root.assignment, "each", enabled), seed
                got += level
                seen["levels"] += 1
            found.append(got)
        seen["subtyping matters"] += found[0] != found[1]
        seen["cycles"] += any(
            strict_reach(tg)[a, a] for tg in tgs for a in tg.types)
        linked = {n for e in rule.edges if e.src != e.tgt
                  for n in (e.src, e.tgt)}
        typed = {n for n, node in rule.nodes.items()
                 if node.type_constraint is not None}
        seen["typed unlinked"] += bool(typed - linked)
        seen["typed linked"] += bool(typed & linked)
    assert min(seen.values()) >= 40, seen


def random_step_reader(rng: random.Random, nid: str, level: str,
                       alphabet: str = "TU") -> RuleNode:
    """``random_reader``'s draws, then the node constraints it never draws:
    an eraser or creator flag, and a ``RENAME`` or ``ASSIGN`` constraint."""
    node = random_reader(rng, nid, level, alphabet)
    if rng.random() < 0.4:
        node.flag_ops.append((flag(rng.choice("mk")),
                              rng.choice([Role.ERASER, Role.CREATOR])))
    pick = rng.random()
    if pick < 0.3:
        node.attr_constraints["v"] = AttrConstraint(
            ConstraintKind.RENAME, new_name="w")
    elif pick < 0.5:
        node.attr_constraints["v"] = AttrConstraint(
            ConstraintKind.ASSIGN, value=Value.int_(rng.randint(0, 2)))
    return node


def random_step_rule(rng: random.Random) -> Rule:
    """``random_rule`` over ``TYPES`` with ``random_step_reader``'s nodes,
    then sometimes a self-loop on a node of each level."""
    r = random_rule(rng, TYPES, random_step_reader)
    for level in r.quantifiers:
        if rng.random() < 0.4:
            nm = rng.choice(sorted(n.id for n in r.nodes.values()
                                   if n.level == level
                                   and n.role in POSITIVE_ROLES))
            r.edges.append(random_edge(rng, [nm], Role.READER, level))
    return r


def test_every_branch_of_the_step_test_agrees_with_brute_force():
    """Each way a candidate can fail its step, and each way it cannot: an
    eraser, creator or reader flag, a ``RENAME``, ``ASSIGN`` or ``MATCH``
    constraint, a self-loop, a type on a step with sources or on one that
    takes its candidates from the type index, with and without subtypes."""
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(70_000 + seed)
        tgs = [random_type_graph(rng)]
        rule = random_step_rule(rng)
        assert validate_rule(rule) == [], seed
        g = random_host(rng, TYPES)
        found = []
        for enabled in (None, tgs):
            roots = find_root_matches(rule, g, enabled)
            got = [m.assignment for m in roots]
            assert got == brute_root_matches(rule, g, enabled), seed
            for root in roots if "each" in rule.quantifiers else ():
                ext = collect_level_matches(rule, g, root, enabled)["each"]
                level = [m.assignment for m in ext.extensions]
                assert level == brute_level_matches(
                    rule, g, root.assignment, "each", enabled), seed
                got += level
                seen["levels"] += 1
            seen["matched"] += bool(roots)
            found.append(got)
        seen["subtyping matters"] += found[0] != found[1]
        steps = [st for search in matcher._compile(rule).values()
                 for st in search.steps]
        for st in steps:
            roles = {r for _, r in st.node.flag_ops}
            kinds = {c.kind for c in st.node.attr_constraints.values()}
            seen["eraser flag"] += Role.ERASER in roles
            seen["creator flag"] += Role.CREATOR in roles
            seen["rename"] += ConstraintKind.RENAME in kinds
            seen["assign"] += ConstraintKind.ASSIGN in kinds
            seen["self-loop"] += bool(st.loops)
            typed = st.node.type_constraint is not None
            seen["typed with sources"] += typed and bool(st.sources)
            seen["typed from the type index"] += typed and not st.sources
            seen["untested"] += st.test is None
    assert min(seen.values()) >= 40, seen


def _index_contents(g: HostGraph) -> tuple[dict, ...]:
    """Copies of the lists of the adjacency and type indexes, in order."""
    return tuple({key: list(ids) for key, ids in index.items()}
                 for index in (g.adjacency(), g.adjacency(True), g.by_type()))


def test_matching_never_changes_the_graph_indexes():
    """A step's candidates may be an index list of the host graph itself,
    so matching and planning must only read them.  The rules are those of
    the step test above: ``neq`` pairs, several sources, paths and type
    graphs."""
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(70_000 + seed)
        tgs = [random_type_graph(rng)]
        rule = random_step_rule(rng)
        g = random_host(rng, TYPES)
        before = _index_contents(g)
        for enabled in (None, tgs):
            for root in find_root_matches(rule, g, enabled):
                plan_application(rule, g, root, enabled)
                seen["planned"] += 1
        assert _index_contents(g) == before, seed
        seen["neq"] += bool(rule.injectivity_pairs)
        for search in matcher._compile(rule).values():
            for st in search.steps:
                labels = [label for _, label, _ in st.sources]
                seen["several sources"] += len(labels) > 1
                seen["one plain source"] += (
                    len(labels) == 1 and not isinstance(labels[0], RegexPath))
                seen["path source"] += any(isinstance(label, RegexPath)
                                           for label in labels)
                seen["from the type index"] += (
                    not labels and st.node.type_constraint is not None)
    assert min(seen.values()) >= 40, seen


def _even(assignment: dict[str, int]) -> bool:
    """A ``keep`` that rejects about half of all assignments."""
    return sum(assignment.values()) % 2 == 0


def _check_search_loop(search: matcher._Search, g: HostGraph,
                       base: dict[str, int],
                       tgs: list[TypeGraph] | None,
                       seen: Counter) -> list[dict[str, int]]:
    """Check ``first`` and ``keep`` of one search against its full result,
    and that no call changes ``base``.  Count it by its number of steps,
    three or more as 3, when it has two results or more, some kept and some
    not.  Return the full result."""
    before = dict(base)
    full = matcher._extend(search, g, base, tgs)
    kept = [a for a in full if _even(a)]
    assert base == before
    for first, keep, expected in [(True, None, full[:1]),
                                  (False, _even, kept),
                                  (True, _even, kept[:1])]:
        got = matcher._extend(search, g, base, tgs, first, keep)
        assert got == expected, (first, keep)
        assert base == before
    if len(full) >= 2 and 0 < len(kept) < len(full):
        seen[min(len(search.steps), 3)] += 1
    return full


def test_the_search_loop_stops_filters_and_leaves_its_base_alone():
    """Every level search and NAC search of the random rules, on every
    assignment its parent level or its level can give it, with and without
    a type graph."""
    seen = Counter()
    for seed in range(1500):
        rng = random.Random(90_000 + seed)
        tgs = [random_type_graph(rng)]
        rule = (random_step_rule(rng) if seed % 2
                else random_rule(rng, TYPES))
        g = random_host(rng, TYPES)
        for enabled in (None, tgs):
            found: dict[str | None, list[dict[str, int]]] = {None: [{}]}
            for qid, search in matcher._compile(rule).items():
                found[qid] = [
                    a for base in found[search.parent]
                    for a in _check_search_loop(search, g, base, enabled,
                                                seen)]
                nacs = [s for condition in search.nacs for s in condition]
                for a in found[qid]:
                    for s in nacs:
                        _check_search_loop(s, g, a, enabled, seen)
    assert set(seen) == {1, 2, 3} and min(seen.values()) >= 40, seen


def random_grouped_rule(rng: random.Random) -> Rule:
    """Readers with embargo edges tagged from a small set of group labels,
    so one label spans disconnected patterns and one embargo node can sit
    between edges of two labels."""
    r = Rule("grouped")
    names = ["p", "q"][:rng.randint(1, 2)]
    for nm in names:
        r.nodes[nm] = random_reader(rng, nm, "root")
    for _ in range(rng.randint(0, 2)):
        r.edges.append(random_edge(rng, names, Role.READER))
    embargo = ["x", "y"][:rng.randint(0, 2)]
    for nm in embargo:
        r.nodes[nm] = RuleNode(nm, Role.EMBARGO)
        if rng.random() < 0.4:
            r.nodes[nm].type_constraint = node_type(rng.choice("TU"))
    for _ in range(rng.randint(1, 4)):
        e = random_edge(rng, names + embargo, Role.EMBARGO)
        e.group = rng.choice(["g", "h", None])
        r.edges.append(e)
    if {"g", "h"} <= set(r.nac_groups) and rng.random() < 0.4:
        r.disjunction_sets.append(("g", "h"))
    return r


def test_shared_and_conflicting_group_labels_agree_with_brute_force():
    shapes = {"shared": 0, "conflicting": 0}
    for seed in range(300):
        rng = random.Random(20_000 + seed)
        rule = random_grouped_rule(rng)
        assert validate_rule(rule) == [], seed
        for grp in rule.nac_groups.values():
            edges = [rule.edges[i] for i in grp.edge_indexes]
            ends = {n for e in edges for n in (e.src, e.tgt)}
            shapes["conflicting"] += any(
                rule.nodes[n].role is Role.EMBARGO and n not in grp.node_ids
                for n in ends)
        labels = [e.group for e in rule.edges if e.group is not None]
        shapes["shared"] += len(labels) > len(set(labels))
        g = random_host(rng)
        got = [m.assignment for m in find_root_matches(rule, g)]
        assert got == brute_root_matches(rule, g), f"seed {seed}"
    assert min(shapes.values()) >= 30, shapes


def test_one_group_label_joins_disconnected_patterns():
    rule = parse_rule("rule r\nnode a role=reader\nnode b role=reader\n"
                      "node c role=reader\nflag a embargo done\n"
                      "flag a creator done\n"
                      "edge a -x-> b role=embargo group g\n"
                      "edge b -y-> c role=embargo group g\n")
    assert rule.nac_groups["g"].edge_indexes == (0, 1)
    # the group forbids both edges together; there is no x edge here
    assert apply_rule(rule, parse_graph("graph h\nnode p\nedge p -y-> p\n")) \
        is not None
    assert apply_rule(rule, parse_graph(
        "graph h\nnode p\nedge p -x-> p\nedge p -y-> p\n")) is None


def test_a_group_binds_embargo_ends_of_another_group():
    rule = parse_rule("rule r\nnode a role=reader\nnode x role=embargo\n"
                      "flag a embargo done\nflag a creator done\n"
                      "edge a -p-> x role=embargo group left\n"
                      "edge a -q-> x role=embargo group right\n")
    assert rule.nac_groups["right"].node_ids == ()
    assert apply_rule(rule, parse_graph("graph h\nnode n\n")) is not None
    assert apply_rule(rule, parse_graph(
        "graph h\nnode n\nedge n -q-> n\n")) is None


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


def test_a_rule_with_more_nodes_than_the_recursion_limit_applies():
    nodes = "".join(f"node n{i} role=reader\n" for i in range(1200))
    rule = parse_rule(f"rule big\n{nodes}"
                      "flag n0 creator done\nflag n0 embargo done\n")
    res = apply_rule(rule, parse_graph("graph g\nnode a\n"))
    assert res is not None
    assert [n.flags for n in res.graph.nodes.values()] == [{flag("done")}]


# -- quantified levels -------------------------------------------------


def test_universal_level_collects_every_extension():
    g = parse_graph("graph g\nnode a\nnode b\nnode c\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n")
    (root,) = find_root_matches(rule, g)
    levels = collect_level_matches(rule, g, root)
    assert len(levels["q"].extensions) == 3
    assert all(root.assignment.items() <= m.assignment.items()
               for m in levels["q"].extensions)


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
    assert len(levels["outer"].extensions) == 3
    # one inner extension per host edge, each extending one outer extension
    assert len(levels["inner"].extensions) == 3
    for m in levels["inner"].extensions:
        assert sum(p.assignment.items() <= m.assignment.items()
                   for p in levels["outer"].extensions) == 1


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


def _log_compatibility_tests(monkeypatch, rule: Rule,
                             log: list[str]) -> None:
    """Append the rule node id to ``log`` whenever a step of ``rule``, in a
    level or a NAC search, tests a candidate.  A step whose candidates
    cannot fail, such as an untyped node's, has no test, so the tests
    below give the logged nodes a type or flag to test."""
    levels = list(matcher._compile(rule).values())
    for search in levels + [s for level in levels
                            for condition in level.nacs for s in condition]:
        for step in search.steps:
            if step.test is not None:
                monkeypatch.setattr(step, "test",
                                    _logged(step.node.id, step.test, log))


def _logged(nid: str, test, log: list[str]):
    def logged(g, hid, tgs):
        log.append(nid)
        return test(g, hid, tgs)
    return logged


def test_a_nac_probe_stops_at_its_first_extension(monkeypatch):
    g = parse_graph("graph g\nnode hub\n" + "".join(
        f"node s{i} : T\nedge hub -e-> s{i}\n" for i in range(300)))
    rule = parse_rule("rule r\nnode n role=reader\nnode x role=embargo : T\n"
                      "edge n -e-> x role=embargo\n")
    (hub,) = (i for i in g.node_ids() if g.nodes[i].name == "hub")
    log: list[str] = []
    _log_compatibility_tests(monkeypatch, rule, log)
    assert not matcher.nacs_satisfied(rule, g, {"n": hub}, ROOT_QUANT)
    # one of the 300 successors blocks the match; the others are not tried
    assert log == ["x"]


def test_a_level_tests_each_extension_against_its_nacs_when_found(
        monkeypatch):
    g = parse_graph("graph g\nnode a flag m\nnode b : T flag m\n"
                    "node c : T flag m\nnode d flag m\n"
                    "edge a -e-> b\nedge c -e-> c\n")
    rule = parse_rule("rule r\nquant q forall\nnode n role=reader in q\n"
                      "flag n reader m\nnode x role=embargo : T in q\n"
                      "edge n -e-> x role=embargo in q\n")
    (root,) = find_root_matches(rule, g)
    log: list[str] = []
    _log_compatibility_tests(monkeypatch, rule, log)
    real = matcher.nacs_satisfied

    def nacs_satisfied(*args):
        log.append("nacs")
        return real(*args)

    monkeypatch.setattr(matcher, "nacs_satisfied", nacs_satisfied)
    levels = collect_level_matches(rule, g, root)
    assert len(levels["q"].extensions) == 2  # b and d have no e-successor
    # each candidate of the level is tested, then its NACs, before the next
    assert [e for e in log if e != "x"] == ["n", "nacs"] * 4
    assert log.count("x") == 2


def test_count_matches_number_of_extensions():
    g = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule r\nquant q forall count 0\n"
                      "node n role=reader in q\nformat \"%s\"\n")
    (root,) = find_root_matches(rule, g)
    assert len(collect_level_matches(rule, g, root)["q"].extensions) == 2
