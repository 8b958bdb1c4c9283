"""One rule application, checked against a reference semantics.

``reference_apply`` builds the post-state of one application straight from
the rules README states, with no :class:`Effect` and with each level's
extensions from the brute-force matcher of ``test_matcher``:

- erasing a node drops its edges, its flags and its attributes;
- each ``forall`` extension creates its own nodes, numbered in README's
  order;
- deletion beats writes, and an addition beats a removal;
- of several values written to one attribute the greatest by
  ``Value.sort_key`` wins;
- a rename reads the pre-state.

Seeded random rules with eraser and creator nodes and edges, ``assign``
and ``rewrite`` lines and creator and eraser flags, at the root and in
nested ``forall`` levels, are applied by the engine at root matches of
the brute-force matcher and compared with the reference node by node,
ids included.  Half of them name their nodes so that an ancestor's
created node sorts before a nested level's matched nodes.

Seeded random read-only rules that print, with NAC groups, ``disjoin``,
``neq``, paths, ``bind`` lines and ``forall ... count`` levels, are
applied by the engine, and the printed output is compared with a
rendering of what the brute-force matcher of ``test_matcher`` binds.

The matcher's record of each level is all that ``plan_application`` reads
of a rule's structure, so the records of all these rules, and of the
seeded rules of ``test_matcher``, are checked against the rule's own
fields.
"""

from __future__ import annotations

import random
from collections import Counter

from test_matcher import (
    brute_level_matches,
    brute_root_matches,
    random_grouped_rule,
    random_rule,
)

from gtx.dsl import parse_rule
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
from gtx.matcher import Match, _compile
from gtx.rewriter import apply_effect, apply_rule, plan_application
from gtx.rules import ROOT_QUANT, ConstraintKind, Role, validate_rule

#: a node of the post-state: ("old", host id) or ("new", creation number)
Ref = tuple[str, int]


def reference_apply(rule, g: HostGraph, root_match) -> HostGraph:
    return reference_post_state(rule, g, root_match)[0]


def reference_post_state(rule, g: HostGraph, root_match
                         ) -> tuple[HostGraph, dict[Ref, int]]:
    """The post-state, and the node of it that each surviving or created
    node became.  Each level's extensions come from the brute-force
    matcher.  A host node keeps its id, and the k-th created node gets
    ``g.next_id + k``, counted in README's order: levels breadth-first,
    a level's extensions by their matched bindings, and an extension's
    creator nodes by id."""
    made = []  # the creator rule node behind each created node
    erased: set[Ref] = set()
    edges_gone: set[tuple[Ref, str, Ref]] = set()
    edges_made: set[tuple[Ref, str, Ref]] = set()
    flags_on: dict[Ref, set] = {}
    flags_off: dict[Ref, set] = {}
    written: dict[tuple[Ref, str], list[Value]] = {}
    renamed_away: set[tuple[Ref, str]] = set()

    # per level: (matched bindings, context) for each extension, where the
    # context also holds the ancestors' created nodes
    levels = {ROOT_QUANT: [(root_match.assignment, {})]}
    order = [ROOT_QUANT]
    for qid in order:  # grows while it is walked: breadth first
        order += [q.id for q in rule.quantifiers.values() if q.parent == qid]
        if qid != ROOT_QUANT:
            levels[qid] = sorted(
                ((asg, ctx) for base, ctx in levels[rule.quantifiers[qid].parent]
                 for asg in brute_level_matches(rule, g, base, qid)),
                key=lambda pair: sorted(pair[0].items()))
        here = sorted((n for n in rule.nodes.values() if n.level == qid),
                      key=lambda n: n.id)
        for k, (asg, parent_ctx) in enumerate(levels[qid]):
            ctx = parent_ctx | {nid: ("old", hid) for nid, hid in asg.items()}
            for node in here:
                if node.role is Role.CREATOR:
                    ctx[node.id] = ("new", len(made))
                    made.append(node)
            levels[qid][k] = asg, ctx
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
            for e in rule.edges:
                if e.level == qid and e.role in (Role.ERASER, Role.CREATOR):
                    (edges_gone if e.role is Role.ERASER else edges_made).add(
                        (ctx[e.src], e.label.name, ctx[e.tgt]))

    # ids are handed out in order, so every id gets a node, and the ids
    # that the post-state lacks are deleted again
    out = HostGraph("reference")
    ids: dict[Ref, int] = {}
    gone = []
    for nid in range(g.next_id + len(made)):
        ref = ("old", nid) if nid < g.next_id else ("new", nid - g.next_id)
        if ref in erased or (ref[0] == "old" and nid not in g.nodes):
            gone.append(out.add_node())
            continue
        if ref[0] == "old":
            pre = g.nodes[nid]
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
        name = g.nodes[nid].name if ref[0] == "old" else None
        ids[ref] = out.add_node(types, flags, name, attrs)
    out.delete_node_spo(*gone)
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


def random_rule_text(rng: random.Random, nested_first: bool = False) -> str:
    """A valid rule over the host alphabet: one to three levels, each with
    reader or eraser nodes, sometimes a creator node, flag and attribute
    operations, and reader, eraser and creator edges.

    With ``nested_first``, the rule has three levels, each with a creator
    node that has an edge to a node of its level, and its node ids sort
    the other way round: a nested level's nodes before its ancestors',
    and every creator node before them all."""
    # the first letter of a level's node ids, and of a creator's
    head = {"root": "z", "q": "y", "q2": "x"} if nested_first else {}
    made_head = "a" if nested_first else ""
    lines = ["rule r"]
    levels = [("root", "")]
    if rng.random() < 0.75 or nested_first:
        lines.append("quant q forall")
        levels.append(("q", " in q"))
        if rng.random() < 0.3 or nested_first:
            lines.append("quant q2 forall in q")
            levels.append(("q2", " in q2"))
    present: list[str] = []
    made: list[str] = []
    edges: set[tuple[str, str, str, str]] = set()
    for qid, suffix in levels:
        mine = [f"{head.get(qid, '')}{qid}{i}" for i in range(rng.randint(1, 2))]
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
        if rng.random() < 0.5 or nested_first:
            nid = f"{made_head}{qid}c"
            typed = f" : {rng.choice('TU')}" if rng.random() < 0.5 else ""
            lines.append(f"node {nid} role=creator{typed}{suffix}")
            if rng.random() < 0.5:
                lines.append(f"flag {nid} creator {rng.choice('mk')}")
            if rng.random() < 0.5:
                lines.append(f"assign {nid}.v = {random_value(rng)}")
            made.append(nid)
            if nested_first:  # so that the order of extensions shows
                edges.add((nid, "a", mine[-1], "creator"))
                lines.append(f"edge {nid} -a-> {mine[-1]} role=creator{suffix}")
        for _ in range(rng.randint(0, 3)):
            role = rng.choice(["reader", "eraser", "creator"])
            ends = present + made if role == "creator" else present
            edge = (rng.choice(ends), rng.choice("ab"), rng.choice(ends), role)
            if edge not in edges:
                edges.add(edge)
                lines.append(f"edge {edge[0]} -{edge[1]}-> {edge[2]} "
                             f"role={role}{suffix}")
    return "\n".join(lines) + "\n"


def random_regex(rng: random.Random) -> str:
    return ".".join(rng.choice(["a", "b", "-a", "-b"])
                    for _ in range(rng.randint(1, 3)))


def random_printing_rule_text(rng: random.Random) -> str:
    """A valid read-only rule that prints: reader nodes, edges and paths,
    ``neq`` lines, embargo nodes, edges and paths in NAC groups (named
    ones, sometimes joined by ``disjoin``), ``bind`` lines on root nodes,
    ``forall ... count`` levels, and a ``format`` line with one ``%s`` per
    parameter among other directives."""
    head, body = ["rule r"], []
    params = 0
    seen: set[tuple[str, str, str, str]] = set()

    def connect(src: str, tgt: str, role: str, tail: str) -> None:
        while True:  # a fresh label: the parser refuses a repeated edge
            path = rng.random() < 0.4
            label = random_regex(rng) if path else rng.choice("ab")
            if (src, label, tgt, role) not in seen:
                break
        seen.add((src, label, tgt, role))
        arrow = f"~{label}~>" if path else f"-{label}->"
        kind = "path" if path else "edge"
        body.append(f"{kind} {src} {arrow} {tgt} role={role}{tail}")

    def nac(anchors: list[str], suffix: str, name: str,
            group: str | None) -> None:
        tail = suffix + (f" group {group}" if group else "")
        if rng.random() < 0.25:  # a forbidden edge or path between anchors
            connect(rng.choice(anchors), rng.choice(anchors), "embargo", tail)
            return
        x = f"x{name}"
        typed = f" : {rng.choice('TU')}" if rng.random() < 0.4 else ""
        body.append(f"node {x} role=embargo{typed}{suffix}")
        if rng.random() < 0.2:
            body.append(f"flag {x} reader {rng.choice('mk')}")
        if rng.random() < 0.2:
            body.append(f"match {x}.v == {rng.randint(0, 3)}")
        if group is None and typed and rng.random() < 0.3:
            return  # no node at all may look like this one
        a = rng.choice(anchors)
        src, tgt = (a, x) if rng.random() < 0.5 else (x, a)
        body.append(f"edge {src} -{rng.choice('ab')}-> {tgt} role=embargo{tail}")
        if rng.random() < 0.3:
            body.append(f"node y{name} role=embargo{suffix}")
            connect(x, f"y{name}", "embargo", tail)

    levels = [("root", "", "")]
    if rng.random() < 0.75:
        levels.append(("q", " in q", ""))
        if rng.random() < 0.3:
            levels.append(("q2", " in q2", " in q"))
    anchors: list[str] = []
    for qid, suffix, parent in levels:
        mine = [f"{qid}n{i}" for i in range(rng.randint(1, 2))]
        for nid in mine:
            typed = f" : {rng.choice('TU')}" if rng.random() < 0.3 else ""
            body.append(f"node {nid} role=reader{typed}{suffix}")
            if rng.random() < 0.2:
                role = rng.choice(["reader", "embargo"])
                body.append(f"flag {nid} {role} {rng.choice('mk')}")
            if rng.random() < 0.15:
                body.append(f"match {nid}.v == {rng.randint(0, 3)}")
        anchors = anchors + mine
        if rng.random() < 0.6:
            connect(rng.choice(anchors), rng.choice(mine), "reader", suffix)
        if len(anchors) >= 2 and rng.random() < 0.3:
            body.append("neq " + " ".join(rng.sample(anchors, 2)))
        if rng.random() < 0.5:
            nac(anchors, suffix, qid, None)
        if rng.random() < 0.25:
            for gid in (f"{qid}A", f"{qid}B"):
                nac(anchors, suffix, gid, gid)
            body.append(f"disjoin {qid}A {qid}B")
        if qid == "root":
            for nid in mine:
                if rng.random() < 0.4:
                    body.append(f"bind {params} = {nid}.{rng.choice('vw')}")
                    params += 1
        else:
            count = ""
            if rng.random() < 0.7:
                count, params = f" count {params}", params + 1
            head.append(f"quant {qid} forall{parent}{count}")
    fmt = "".join(rng.choice(["", "=", "%%", "%n", "%q", " "]) + "%s"
                  for _ in range(params)) + rng.choice(["", "%n", "."])
    head.append(f'format "{fmt}"')
    return "\n".join(head + body) + "\n"


def reference_output(rule, g: HostGraph) -> str | None:
    """What the first match that binds every parameter prints, from the
    brute-force matcher and README's format directives, or None with no
    such match."""
    for asg in brute_root_matches(rule, g):
        values = {i: g.nodes[asg[nid]].attrs.get(attr)
                  for i, (nid, attr) in rule.params.items()}
        if None in values.values():
            continue
        extensions = {"root": [asg]}
        for qid in ("q", "q2"):
            if qid in rule.quantifiers:
                parent = rule.quantifiers[qid].parent
                extensions[qid] = [
                    ext for base in extensions[parent]
                    for ext in brute_level_matches(rule, g, base, qid)]
                idx = rule.quantifiers[qid].count_param
                if idx is not None:
                    values[idx] = Value.int_(len(extensions[qid]))
        holes = iter(str(values[i].raw) for i in sorted(values))
        fmt, out, i = rule.print_format, [], 0
        while i < len(fmt):
            if fmt[i] == "%" and i + 1 < len(fmt):
                ch = fmt[i + 1]
                out.append(next(holes) if ch == "s" else
                           {"n": "\n", "%": "%"}.get(ch, "%" + ch))
                i += 2
            else:
                out.append(fmt[i])
                i += 1
        return "".join(out)
    return None


def test_printed_output_agrees_with_the_brute_force_reference():
    # 400 seeds of 10 hosts each take about 2 s on a 2-vCPU x86 machine,
    # and about 1 230 of the 4 000 applications take effect
    effective = 0
    for seed in range(400):
        rng = random.Random(seed)
        rule = parse_rule(random_printing_rule_text(rng))
        assert validate_rule(rule) == [], seed
        for _ in range(10):
            g = random_host(rng)
            res = apply_rule(rule, g)
            want = reference_output(rule, g)
            assert (res.output if res else None) == want, seed
            effective += res is not None
    assert effective >= 1000


def test_applications_agree_with_the_reference_semantics():
    # node ids are compared as they are, so created nodes must be numbered
    # as the reference numbers them
    effective = 0
    for seed in range(300):
        rng = random.Random(seed)
        rule = parse_rule(random_rule_text(rng, nested_first=seed % 2 == 0))
        assert validate_rule(rule) == [], seed
        for _ in range(3):
            g = random_host(rng)
            for asg in brute_root_matches(rule, g)[:3]:
                match = Match(asg)
                effect = plan_application(rule, g, match)
                got, want = (apply_effect(g, effect),
                             reference_apply(rule, g, match))
                assert (got.nodes, got.edges, got.next_id) == (
                    want.nodes, want.edges, want.next_id), seed
                effective += not effect.is_empty()
    assert effective >= 300


def test_each_level_record_holds_what_the_rule_says():
    """Per level, in tree order: the parent, the non-embargo nodes in id
    order, the eraser and creator edges in rule order and the count
    parameter, as the rule's fields give them."""
    makers = (random_rule, random_grouped_rule,
              lambda rng: parse_rule(random_rule_text(rng, rng.random() < 0.5)),
              lambda rng: parse_rule(random_printing_rule_text(rng)))
    seen = Counter()
    for seed in range(200):
        for make in makers:
            rule = make(random.Random(seed))
            records = _compile(rule)
            order = list(records)
            assert sorted(order) == sorted(rule.quantifiers), seed
            assert order[0] == ROOT_QUANT, seed
            for qid, record in records.items():
                q = rule.quantifiers[qid]
                assert record.parent == q.parent, seed
                if q.parent is not None:
                    assert order.index(q.parent) < order.index(qid), seed
                assert record.nodes == [
                    rule.nodes[nid] for nid in sorted(rule.nodes)
                    if rule.nodes[nid].level == qid
                    and rule.nodes[nid].role is not Role.EMBARGO], seed
                assert record.changes == [
                    e for e in rule.edges if e.level == qid
                    and e.role in (Role.ERASER, Role.CREATOR)], seed
                assert record.count_param == q.count_param, seed
                seen["nested"] += q.parent not in (None, ROOT_QUANT)
                seen["creator node"] += any(n.role is Role.CREATOR
                                            for n in record.nodes)
                seen["changes"] += bool(record.changes)
                seen["count"] += record.count_param is not None
                seen["embargo left out"] += any(
                    n.level == qid and n.role is Role.EMBARGO
                    for n in rule.nodes.values())
    assert min(seen.values()) >= 40, seen
