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

An effect names every node by its host id.  A created node is named by the
id the graph will hand out for it: ids are never reused and copies keep
the counter, so the k-th creation gets ``next_id + k``.  Its flags,
attributes and edges are then ordinary changes under that id.  Creations
are counted level by level, breadth-first from the root; within a level,
extension by extension in the order of their matched bindings (the sorted
``(rule node id, host id)`` pairs of the nodes matched at the level and
its ancestors, created nodes left out); within an extension, by creator
node id.

One walk over the levels plans an application.  :func:`plan_application`
visits the matcher's record of each level in tree order, parents first,
and extends each context of the level's parent by the level's search.  A
context maps rule node ids to host ids, the ancestors' created nodes
included, and the changes an extension makes are collected from its
context, by the record's nodes and changing edges, as soon as its level
is found; the record's count parameter takes the number of contexts.
So planning scans none of the rule's nodes, edges or quantifiers.  Only
the created ids depend on the order of a level's contexts, so only a
level with a creator node is sorted.

Every caller applies rules through one pipeline: :func:`applications`
yields each effective ``(match, effect)`` pair, :func:`apply_rule` applies
the first and renders its output, and :func:`apply_repeatedly` re-applies
a rule until it is inapplicable or a limit is reached.  The explorer takes
all pairs from :func:`applications` and reads each change from
:func:`effect_delta`, on which :func:`apply_effect` is built too.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from .graph import HostEdge, HostGraph, HostNode, Label, Value
from .matcher import Match, _compile, _level_assignments, find_root_matches
from .rules import (
    ConstraintKind,
    FORMAT_DIRECTIVE,
    Role,
    ROOT_QUANT,
    Rule,
)
from .typegraph import TypeGraph

#: A created node has no flags or attributes before the application.
_BLANK = HostNode(-1)


class FormatError(Exception):
    """A print format that cannot be rendered with the bound parameters."""


@dataclass
class Effect:
    """Everything one application will do, in pre-state terms.

    Nodes are host ids.  Each node creation is the id the graph hands out
    for it and the node's types, in id order; the new node's flags,
    attributes and edges are in ``flag_changes``, ``attr_writes`` and
    ``edge_creations``.  Both edge lists hold :class:`HostEdge` triples
    in sorted order."""

    node_deletions: list[int] = field(default_factory=list)
    edge_deletions: list[HostEdge] = field(default_factory=list)
    node_creations: list[tuple[int, tuple[Label, ...]]] = field(default_factory=list)
    edge_creations: list[HostEdge] = field(default_factory=list)
    attr_writes: list[tuple[int, str, Value]] = field(default_factory=list)
    attr_deletions: list[tuple[int, str]] = field(default_factory=list)
    flag_changes: list[tuple[int, Label, bool]] = field(default_factory=list)
    #: parameter index -> value (bound attributes and level counts)
    param_values: dict[int, Value] = field(default_factory=dict)

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


def plan_application(rule: Rule, g: HostGraph, root_match: Match,
                     tgs: list[TypeGraph] | None = None) -> Effect:
    node_deletions: set[int] = set()
    edge_deletions: set[HostEdge] = set()
    node_creations: list[tuple[int, tuple[Label, ...]]] = []
    edge_creations: set[HostEdge] = set()
    attr_deletions: set[tuple[int, str]] = set()
    # conflicts are resolved as changes are collected: of several writes
    # to one attribute the greatest value by sort key wins, and of several
    # changes to one flag an addition wins
    writes: dict[tuple[int, str], Value] = {}
    flags: dict[tuple[int, Label], bool] = {}
    param_values = dict(root_match.bound_params)

    # per level, parents first: one context per extension, rule node id ->
    # host id.  An extension of a parent's context keeps its bindings and
    # created ids, so the context is the assignment the level search returns.
    levels: dict[str, list[dict[str, int]]] = {}
    for qid, record in _compile(rule).items():
        if qid == ROOT_QUANT:
            level = [dict(root_match.assignment)]
        else:
            level = [ctx for parent in levels[record.parent]
                     for ctx in _level_assignments(rule, g, qid, parent, tgs)]
            if len(level) > 1 and any(n.role is Role.CREATOR
                                      for n in record.nodes):
                # created ids follow the order of the matched bindings
                level.sort(key=lambda ctx: sorted(
                    b for b in ctx.items()
                    if rule.nodes[b[0]].role is not Role.CREATOR))
        levels[qid] = level
        if record.count_param is not None:
            param_values[record.count_param] = Value.int_(len(level))
        for ctx in level:
            for node in record.nodes:
                if node.role is Role.CREATOR:
                    ctx[node.id] = g.next_id + len(node_creations)
                    node_creations.append((ctx[node.id], (
                        (node.type_constraint,)
                        if node.type_constraint is not None else ())))
                hid = ctx[node.id]
                if node.role is Role.ERASER:
                    node_deletions.add(hid)
                for fl, r in node.flag_ops:
                    if r is Role.CREATOR or r is Role.ERASER:
                        flags[(hid, fl)] = (flags.get((hid, fl), False)
                                            or r is Role.CREATOR)
                for attr, c in node.attr_constraints.items():
                    if c.kind is ConstraintKind.ASSIGN:
                        key, value = (hid, attr), c.value
                    elif c.kind is ConstraintKind.RENAME and c.new_name != attr:
                        # the pre-state is read only where a rename needs it
                        value = g.nodes.get(hid, _BLANK).attrs.get(attr)
                        if value is None:
                            continue
                        attr_deletions.add((hid, attr))
                        key = (hid, c.new_name)
                    else:
                        continue
                    if (key not in writes
                            or value.sort_key() > writes[key].sort_key()):
                        writes[key] = value
            # tuple.__new__, as in HostGraph.add_edge
            for edge in record.changes:
                (edge_deletions if edge.role is Role.ERASER else edge_creations
                 ).add(tuple.__new__(HostEdge, (
                     ctx[edge.src], edge.label, ctx[edge.tgt])))

    # Normalize to the exact delta against the pre-state.  Deletion wins
    # over every change to a deleted node; deleting and recreating the
    # same edge cancels out; creations the host already satisfies and
    # writes that change nothing vanish; a renamed-away attribute is
    # deleted only if nothing writes to it.  This is what makes is_empty()
    # mean "application would be the identity".
    if node_deletions:
        edge_creations = {e for e in edge_creations
                          if e.src not in node_deletions
                          and e.tgt not in node_deletions}
    return Effect(
        node_deletions=sorted(node_deletions),
        edge_deletions=sorted(edge_deletions - edge_creations),
        node_creations=node_creations,
        edge_creations=sorted(edge_creations - g.edges),
        attr_writes=[(nid, attr, v) for (nid, attr), v in sorted(writes.items())
                     if nid not in node_deletions
                     and g.nodes.get(nid, _BLANK).attrs.get(attr) != v],
        attr_deletions=sorted(d for d in attr_deletions
                              if d[0] not in node_deletions and d not in writes),
        flag_changes=[(nid, fl, add) for (nid, fl), add in sorted(flags.items())
                      if nid not in node_deletions
                      and add != (fl in g.nodes.get(nid, _BLANK).flags)],
        param_values=param_values,
    )


def effect_delta(g: HostGraph, effect: Effect) -> tuple[
        set[int], list[HostEdge], list[HostEdge], dict[int, HostNode]]:
    """What applying ``effect`` changes in ``g``, left as it is: deleted
    nodes, removed and added edges, and a fresh post-state node per created
    or changed node.  Raises ValueError when a creation's id is not the id
    ``g`` hands out next: the effect was planned for another graph."""
    deleted = set(effect.node_deletions) & g.nodes.keys()
    nodes: dict[int, HostNode] = {}
    for nid, types in effect.node_creations:
        if nid != (want := g.next_id + len(nodes)):
            raise ValueError(f"effect creates node {nid} but the graph's next "
                             f"id is {want}: it was planned for another graph")
        nodes[nid] = HostNode(nid, frozenset(types))

    def alive(nid: int) -> bool:
        return nid in nodes or (nid in g.nodes and nid not in deleted)

    def pre(nid: int) -> HostNode:
        return nodes[nid] if nid in nodes else g.nodes[nid]

    # the post-state attributes and flags of each changed live node
    attrs: dict[int, dict[str, Value]] = {}
    flags: dict[int, set[Label]] = {}

    def post_attrs(nid: int) -> dict[str, Value]:
        # one copy per node: a node often has several attribute changes
        if nid not in attrs:
            attrs[nid] = dict(pre(nid).attrs)
        return attrs[nid]

    for nid, attr in effect.attr_deletions:
        if alive(nid):
            post_attrs(nid).pop(attr, None)
    for nid, attr, value in effect.attr_writes:
        if alive(nid):
            post_attrs(nid)[attr] = value
    for nid, fl, add in effect.flag_changes:
        if alive(nid):
            if nid not in flags:  # one copy per node, as in post_attrs
                flags[nid] = set(pre(nid).flags)
            post = flags[nid]
            (post.add if add else post.discard)(fl)
    for nid in attrs.keys() | flags.keys():
        _, types, old_flags, old_attrs, name = pre(nid)
        # tuple.__new__, as in HostGraph.add_node
        nodes[nid] = tuple.__new__(HostNode, (
            nid, types, frozenset(flags[nid]) if nid in flags else old_flags,
            attrs.get(nid, old_attrs), name))
    return deleted, effect.edge_deletions, [
        e for e in effect.edge_creations if alive(e[0]) and alive(e[2])], nodes


def apply_effect(g: HostGraph, effect: Effect) -> HostGraph:
    """Apply a planned effect to a copy of ``g`` that shares every node the
    effect leaves as it is, and return the copy; raises what
    :func:`effect_delta` raises."""
    deleted, removed, added, nodes = effect_delta(g, effect)
    out = g.copy(nodes)
    if deleted:
        out.delete_node_spo(*deleted)
    # every added edge has live ends, so deleting nodes first is the same
    out.update_edges(removed, added)
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
    nothing to print).  An empty effect leaves ``g`` itself as the graph."""
    for match, effect in applications(rule, g, tgs):
        output = (render_output(rule.print_format, effect.param_values)
                  if rule.print_format is not None else None)
        post = g if effect.is_empty() else apply_effect(g, effect)
        return ApplicationResult(post, effect, output, match)
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
