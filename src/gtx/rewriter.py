"""Planning and applying rule effects.

Application is all-at-once: every universal level is matched against the
unmodified host graph first, the combined change set is collected into an
:class:`Effect`, and only then is anything mutated (on a copy — the input
graph is never touched).  Overlapping universal branches therefore see the
same pre-state and duplicate changes collapse.  Where branches conflict,
deletion beats writes: a deleted node gets no flag, attribute or new
edge.  An addition beats a removal: a flag both added and removed is
set, and an edge both deleted and created stays.  Of several values
written to one attribute, the greatest by :meth:`Value.sort_key` wins.

Node deletion follows the single-pushout convention: deleting a node also
removes every incident edge, whether or not the rule mentioned them.

Every caller applies rules through one pipeline: :func:`applications`
yields each effective ``(match, effect)`` pair, :func:`apply_rule` applies
the first and renders its output, and :func:`apply_repeatedly` re-applies
a rule until it is inapplicable or a limit is reached.  The explorer takes
all pairs from :func:`applications` and applies each with
:func:`apply_effect`.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from .graph import HostGraph, Label, Value
from .matcher import Match, collect_level_matches, find_root_matches
from .rules import (
    ConstraintKind,
    FORMAT_DIRECTIVE,
    POSITIVE_ROLES,
    Role,
    ROOT_QUANT,
    Rule,
    RuleNode,
)
from .typegraph import TypeGraph


class FormatError(Exception):
    """A print format that cannot be rendered with the bound parameters."""


@dataclass(frozen=True)
class NodeCreation:
    """A node the application creates; edge creations use it as endpoint."""

    serial: int
    types: tuple[Label, ...] = ()
    flags: tuple[Label, ...] = ()
    attrs: tuple[tuple[str, Value], ...] = ()


#: an edge-creation endpoint: an existing host node id or a pending node
Endpoint = int | NodeCreation


@dataclass
class Effect:
    """Everything one application will do, in pre-state terms."""

    node_deletions: list[int] = field(default_factory=list)
    edge_deletions: list[tuple[int, Label, int]] = field(default_factory=list)
    node_creations: list[NodeCreation] = field(default_factory=list)
    edge_creations: list[tuple[Endpoint, Label, Endpoint]] = field(default_factory=list)
    attr_writes: list[tuple[int, str, Value]] = field(default_factory=list)
    attr_deletions: list[tuple[int, str]] = field(default_factory=list)
    flag_changes: list[tuple[int, Label, bool]] = field(default_factory=list)
    #: parameter index -> value (bound attributes and level counts)
    param_values: dict[int, Value] = field(default_factory=dict)
    #: quantifier id -> number of matches of that level
    counts: dict[str, int] = field(default_factory=dict)

    def is_empty(self) -> bool:
        """True when applying would leave the graph unchanged."""
        return not (self.node_deletions or self.edge_deletions
                    or self.node_creations or self.edge_creations
                    or self.attr_writes or self.attr_deletions
                    or self.flag_changes)


@dataclass
class ApplicationResult:
    graph: HostGraph
    effect: Effect
    output: str | None
    match: Match


def _endpoint_key(endpoint: Endpoint) -> tuple[int, int]:
    if isinstance(endpoint, NodeCreation):
        return (1, endpoint.serial)
    return (0, endpoint)


def plan_application(rule: Rule, g: HostGraph, root_match: Match,
                     tgs: list[TypeGraph] | None = None) -> Effect:
    levels = collect_level_matches(rule, g, root_match, tgs)

    # per level, in id order: each creator node with the types, flags and
    # attributes of what it creates, and the positive nodes
    creators: dict[str, list[tuple[str, tuple]]] = {}
    positives: dict[str, list[RuleNode]] = {}
    for node in sorted(rule.nodes.values(), key=lambda n: n.id):
        if node.role is Role.CREATOR:
            creators.setdefault(node.level, []).append((node.id, (
                (node.type_constraint,)
                if node.type_constraint is not None else (),
                tuple(sorted((fl for fl, r in node.flag_ops
                              if r is Role.CREATOR), key=lambda lb: lb.name)),
                tuple(sorted((attr, c.value)
                             for attr, c in node.attr_constraints.items()
                             if c.kind is ConstraintKind.ASSIGN
                             and c.value is not None)))))
        elif node.role in POSITIVE_ROLES:
            positives.setdefault(node.level, []).append(node)

    node_deletions: set[int] = set()
    edge_deletions: set[tuple[int, Label, int]] = set()
    node_creations: list[NodeCreation] = []
    edge_creations: set[tuple[Endpoint, Label, Endpoint]] = set()
    attr_deletions: set[tuple[int, str]] = set()
    # conflicts are resolved as changes are collected: of several writes
    # to one attribute the greatest value by sort key wins, and of several
    # changes to one flag an addition wins
    writes: dict[tuple[int, str], Value] = {}
    flags: dict[tuple[int, Label], bool] = {}

    # per-match creator context: rule node id -> NodeCreation, keyed by the
    # identity of the Match object (matches chain via .parent; the root
    # match has none)
    contexts: dict[int, dict[str, NodeCreation]] = {}
    for qid, level_set in levels.items():
        edges = [e for e in rule.edges_at(qid) if not e.is_path()]
        for match in level_set.extensions:
            ctx = dict(contexts.get(id(match.parent), {}))
            for nid, fields in creators.get(qid, ()):
                ctx[nid] = creation = NodeCreation(len(node_creations), *fields)
                node_creations.append(creation)
            for node in positives.get(qid, ()):
                hid = match.assignment[node.id]
                if node.role is Role.ERASER:
                    node_deletions.add(hid)
                for fl, r in node.flag_ops:
                    if r is Role.CREATOR or r is Role.ERASER:
                        flags[(hid, fl)] = (flags.get((hid, fl), False)
                                            or r is Role.CREATOR)
                pre = g.nodes[hid].attrs
                for attr, c in node.attr_constraints.items():
                    if c.kind is ConstraintKind.ASSIGN and c.value is not None:
                        key, value = (hid, attr), c.value
                    elif (c.kind is ConstraintKind.RENAME
                          and c.new_name not in (None, attr) and attr in pre):
                        attr_deletions.add((hid, attr))
                        key, value = (hid, c.new_name), pre[attr]
                    else:
                        continue
                    if (key not in writes
                            or value.sort_key() > writes[key].sort_key()):
                        writes[key] = value
            for edge in edges:
                if edge.role is Role.ERASER:
                    edge_deletions.add((match.assignment[edge.src], edge.label,
                                        match.assignment[edge.tgt]))
                elif edge.role is Role.CREATOR:
                    edge_creations.add(
                        (ctx.get(edge.src, match.assignment.get(edge.src)),
                         edge.label,
                         ctx.get(edge.tgt, match.assignment.get(edge.tgt))))
            contexts[id(match)] = ctx

    # Normalize to the exact delta against the pre-state.  Deletion wins
    # over every change to a deleted node; deleting and recreating the
    # same edge cancels out; creations the host already satisfies and
    # writes that change nothing vanish; a renamed-away attribute is
    # deleted only if nothing writes to it.  This is what makes is_empty()
    # mean "application would be the identity".
    edge_creations = {(s, lbl, t) for s, lbl, t in edge_creations
                      if s not in node_deletions and t not in node_deletions}
    counts = {qid: levels[qid].count for qid in levels if qid != ROOT_QUANT}
    param_values = dict(root_match.bound_params)
    for qid, idx in rule.count_params().items():
        param_values[idx] = Value.int_(levels[qid].count)

    return Effect(
        node_deletions=sorted(node_deletions),
        edge_deletions=sorted(edge_deletions - edge_creations,
                              key=lambda e: (e[0], e[1].name, e[2])),
        node_creations=node_creations,
        edge_creations=sorted(
            ((s, lbl, t) for s, lbl, t in edge_creations
             if isinstance(s, NodeCreation) or isinstance(t, NodeCreation)
             or not g.has_edge(s, lbl, t)),
            key=lambda e: (_endpoint_key(e[0]), e[1].name, _endpoint_key(e[2]))),
        attr_writes=[(nid, attr, v) for (nid, attr), v in sorted(writes.items())
                     if nid not in node_deletions
                     and g.nodes[nid].attrs.get(attr) != v],
        attr_deletions=sorted(d for d in attr_deletions
                              if d[0] not in node_deletions and d not in writes),
        flag_changes=[(nid, fl, add) for (nid, fl), add in sorted(
                          flags.items(), key=lambda f: (f[0][0], f[0][1].name))
                      if nid not in node_deletions
                      and add != (fl in g.nodes[nid].flags)],
        param_values=param_values,
        counts=counts,
    )


def apply_effect(g: HostGraph, effect: Effect) -> HostGraph:
    """Apply a planned effect to a copy of ``g`` and return the copy."""
    out = g.copy()
    for src, lbl, tgt in effect.edge_deletions:
        out.remove_edge(src, lbl, tgt)
    for nid in effect.node_deletions:
        if nid in out.nodes:
            out.delete_node_spo(nid)
    created: dict[int, int] = {}
    for creation in effect.node_creations:
        nid = out.add_node(creation.types, creation.flags)
        for attr, value in creation.attrs:
            out.set_attr(nid, attr, value)
        created[creation.serial] = nid
    for src, lbl, tgt in effect.edge_creations:
        src_id = created[src.serial] if isinstance(src, NodeCreation) else src
        tgt_id = created[tgt.serial] if isinstance(tgt, NodeCreation) else tgt
        if src_id in out.nodes and tgt_id in out.nodes:
            out.add_edge(src_id, lbl, tgt_id)
    for nid, attr in effect.attr_deletions:
        if nid in out.nodes:
            out.nodes[nid].attrs.pop(attr, None)
    for nid, attr, value in effect.attr_writes:
        if nid in out.nodes:
            out.set_attr(nid, attr, value)
    for nid, fl, add in effect.flag_changes:
        if nid not in out.nodes:
            continue
        if add:
            out.nodes[nid].flags.add(fl)
        else:
            out.nodes[nid].flags.discard(fl)
    return out


def render_output(fmt: str, param_values: dict[int, Value]) -> str:
    """Expand ``%s`` (next parameter), ``%n`` (newline) and ``%%``.

    Parameters feed ``%s`` holes in ascending index order.  Unknown
    ``%``-sequences pass through unchanged; running out of parameters is an
    error (extras are ignored).
    """
    params = (param_values[i] for i in sorted(param_values))

    def expand(directive: re.Match[str]) -> str:
        ch = directive.group(1)
        if ch != "s":
            return {"n": "\n", "%": "%"}.get(ch, directive.group(0))
        value = next(params, None)
        if value is None:
            raise FormatError(
                f"format needs parameter #{len(param_values)} but only "
                f"{len(param_values)} are bound")
        return value.to_text()

    return FORMAT_DIRECTIVE.sub(expand, fmt)


def is_effective(rule: Rule, effect: Effect) -> bool:
    """Whether an application is worth taking as a transition.

    A rule that neither changes the graph nor prints anything has no
    observable outcome; treating it as applicable would give every such
    state a self-loop and no exploration would ever terminate.
    """
    return rule.print_format is not None or not effect.is_empty()


def applications(rule: Rule, g: HostGraph,
                 tgs: list[TypeGraph] | None = None
                 ) -> Iterator[tuple[Match, Effect]]:
    """Each root match with its planned effect, in canonical match order,
    skipping matches whose effect :func:`is_effective` rejects."""
    for match in find_root_matches(rule, g, tgs):
        effect = plan_application(rule, g, match, tgs)
        if is_effective(rule, effect):
            yield match, effect


def apply_rule(rule: Rule, g: HostGraph,
               tgs: list[TypeGraph] | None = None) -> ApplicationResult | None:
    """Apply the rule at the first effective match, or None if there is
    none (unmatched, or every match would leave the graph untouched with
    nothing to print)."""
    for match, effect in applications(rule, g, tgs):
        output = (render_output(rule.print_format, effect.param_values)
                  if rule.print_format is not None else None)
        return ApplicationResult(apply_effect(g, effect), effect, output, match)
    return None


def apply_repeatedly(rule: Rule, g: HostGraph,
                     tgs: list[TypeGraph] | None, limit: int
                     ) -> tuple[HostGraph, list[str], int]:
    """Apply the rule up to ``limit`` times, re-matching each time, and
    stop early once it is inapplicable.  Returns the final graph, the
    printed outputs in order and the number of applications."""
    outputs: list[str] = []
    for applied in range(limit):
        result = apply_rule(rule, g, tgs)
        if result is None:
            return g, outputs, applied
        g = result.graph
        if result.output is not None:
            outputs.append(result.output)
    return g, outputs, limit
