"""One rule application, checked against a reference semantics.

``reference_apply`` builds the post-state of one application straight from
the rules README states, with no :class:`Effect`:

- erasing a node drops its edges, its flags and its attributes;
- each ``forall`` extension creates its own nodes;
- deletion beats writes, and an addition beats a removal;
- of several values written to one attribute the greatest by
  ``Value.sort_key`` wins;
- a rename reads the pre-state.

Seeded random rules with eraser and creator nodes and edges, ``assign``
and ``rewrite`` lines and creator and eraser flags, at the root and in
nested ``forall`` levels, are applied by the engine and compared with the
reference up to isomorphism.
"""

from __future__ import annotations

import random

from gtx.dsl import parse_rule
from gtx.explorer import isomorphic
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
from gtx.matcher import collect_level_matches, find_root_matches
from gtx.rewriter import apply_effect, plan_application
from gtx.rules import ConstraintKind, Role, validate_rule

#: a node of the post-state: ("old", host id) or ("new", creation number)
Ref = tuple[str, int]


def reference_apply(rule, g: HostGraph, root_match) -> HostGraph:
    return reference_post_state(rule, g, root_match)[0]


def reference_post_state(rule, g: HostGraph, root_match
                         ) -> tuple[HostGraph, dict[Ref, int]]:
    """The post-state, and the node of it that each surviving or created
    node became."""
    made = []  # the creator rule node behind each created node
    contexts: dict[int, dict[str, Ref]] = {}
    erased: set[Ref] = set()
    edges_gone: set[tuple[Ref, str, Ref]] = set()
    edges_made: set[tuple[Ref, str, Ref]] = set()
    flags_on: dict[Ref, set] = {}
    flags_off: dict[Ref, set] = {}
    written: dict[tuple[Ref, str], list[Value]] = {}
    renamed_away: set[tuple[Ref, str]] = set()

    for qid, level in collect_level_matches(rule, g, root_match).items():
        here = [n for n in rule.nodes.values() if n.level == qid]
        for m in level.extensions:
            ctx = dict(contexts.get(id(m.parent), {}))
            ctx.update({nid: ("old", hid) for nid, hid in m.assignment.items()})
            for node in here:
                if node.role is Role.CREATOR:
                    ctx[node.id] = ("new", len(made))
                    made.append(node)
            contexts[id(m)] = ctx
            for node in here:
                if node.role is Role.EMBARGO:
                    continue
                ref = ctx[node.id]
                if node.role is Role.ERASER:
                    erased.add(ref)
                for fl, role in node.flag_ops:
                    if role is Role.CREATOR:
                        flags_on.setdefault(ref, set()).add(fl)
                    elif role is Role.ERASER:
                        flags_off.setdefault(ref, set()).add(fl)
                pre = g.nodes[ref[1]].attrs if ref[0] == "old" else {}
                for attr, c in node.attr_constraints.items():
                    if c.kind is ConstraintKind.ASSIGN:
                        written.setdefault((ref, attr), []).append(c.value)
                    elif c.kind is ConstraintKind.RENAME and c.new_name != attr:
                        written.setdefault((ref, c.new_name), []).append(
                            pre[attr])
                        renamed_away.add((ref, attr))
            for e in rule.edges_at(qid):
                if e.role is Role.ERASER or e.role is Role.CREATOR:
                    (edges_gone if e.role is Role.ERASER else edges_made).add(
                        (ctx[e.src], e.label.name, ctx[e.tgt]))

    out = HostGraph("reference")
    ids: dict[Ref, int] = {}
    for ref in [("old", h) for h in g.node_ids()] + [
            ("new", k) for k in range(len(made))]:
        if ref in erased:
            continue
        if ref[0] == "old":
            pre = g.nodes[ref[1]]
            types, flags, attrs = pre.types, set(pre.flags), dict(pre.attrs)
        else:
            t = made[ref[1]].type_constraint
            types, flags, attrs = {t} if t else set(), set(), {}
        flags = (flags - flags_off.get(ref, set())) | flags_on.get(ref, set())
        for r, attr in renamed_away:
            if r == ref and (ref, attr) not in written:
                del attrs[attr]
        for (r, attr), values in written.items():
            if r == ref:
                attrs[attr] = max(values, key=Value.sort_key)
        ids[ref] = out.add_node(types, flags)
        for attr, value in attrs.items():
            out.set_attr(ids[ref], attr, value)
    before = {(("old", e.src), e.label.name, ("old", e.tgt)) for e in g.edges}
    for s, label, t in (before - edges_gone) | edges_made:
        if s in ids and t in ids:
            out.add_edge(ids[s], edge_label(label), ids[t])
    return out, ids


# -- random instances --------------------------------------------------


def random_host(rng: random.Random) -> HostGraph:
    g = HostGraph("h")
    for _ in range(rng.randint(1, 5)):
        nid = g.add_node([node_type(t) for t in rng.sample("TU", rng.randint(0, 1))],
                         [flag(f) for f in rng.sample("mk", rng.randint(0, 2))])
        for attr in "vw":
            if rng.random() < 0.6:
                g.set_attr(nid, attr, Value.int_(rng.randint(0, 3)))
    ids = g.node_ids()
    for _ in range(rng.randint(0, 7)):
        g.add_edge(rng.choice(ids), edge_label(rng.choice("ab")), rng.choice(ids))
    return g


def random_value(rng: random.Random) -> str:
    return rng.choice(["0", "1", "2", "3", "10", '"s"', "true", "1.5"])


def random_rule_text(rng: random.Random) -> str:
    """A valid rule over the host alphabet: one to three levels, each with
    reader or eraser nodes, sometimes a creator node, flag and attribute
    operations, and reader, eraser and creator edges."""
    lines = ["rule r"]
    levels = [("root", "")]
    if rng.random() < 0.75:
        lines.append("quant q forall")
        levels.append(("q", " in q"))
        if rng.random() < 0.3:
            lines.append("quant q2 forall in q")
            levels.append(("q2", " in q2"))
    present: list[str] = []
    made: list[str] = []
    edges: set[tuple[str, str, str, str]] = set()
    for qid, suffix in levels:
        mine = [f"{qid}{i}" for i in range(rng.randint(1, 2))]
        for nid in mine:
            role = "eraser" if rng.random() < 0.2 else "reader"
            typed = f" : {rng.choice('TU')}" if rng.random() < 0.2 else ""
            lines.append(f"node {nid} role={role}{typed}{suffix}")
            if rng.random() < 0.3:
                lines.append(f"flag {nid} reader {rng.choice('mk')}")
            for fl in rng.sample("mk", rng.randint(0, 2)):
                lines.append(f"flag {nid} {rng.choice(['creator', 'eraser'])} {fl}")
            for attr in rng.sample("vw", rng.randint(0, 2)):
                if rng.random() < 0.5:
                    lines.append(f"assign {nid}.{attr} = {random_value(rng)}")
                else:
                    lines.append(f"rewrite {nid}.{attr} -> {rng.choice('vwx')}")
        present += mine
        if rng.random() < 0.5:
            nid = f"{qid}c"
            typed = f" : {rng.choice('TU')}" if rng.random() < 0.5 else ""
            lines.append(f"node {nid} role=creator{typed}{suffix}")
            if rng.random() < 0.5:
                lines.append(f"flag {nid} creator {rng.choice('mk')}")
            if rng.random() < 0.5:
                lines.append(f"assign {nid}.v = {random_value(rng)}")
            made.append(nid)
        for _ in range(rng.randint(0, 3)):
            role = rng.choice(["reader", "eraser", "creator"])
            ends = present + made if role == "creator" else present
            edge = (rng.choice(ends), rng.choice("ab"), rng.choice(ends), role)
            if edge not in edges:
                edges.add(edge)
                lines.append(f"edge {edge[0]} -{edge[1]}-> {edge[2]} "
                             f"role={role}{suffix}")
    return "\n".join(lines) + "\n"


def test_applications_agree_with_the_reference_semantics():
    effective = 0
    for seed in range(300):
        rng = random.Random(seed)
        rule = parse_rule(random_rule_text(rng))
        assert validate_rule(rule) == [], seed
        for _ in range(3):
            g = random_host(rng)
            for match in find_root_matches(rule, g)[:3]:
                effect = plan_application(rule, g, match)
                got = apply_effect(g, effect)
                assert isomorphic(got, reference_apply(rule, g, match)), seed
                effective += not effect.is_empty()
    assert effective >= 300
