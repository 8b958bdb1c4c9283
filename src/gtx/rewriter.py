"""Planning and applying rule effects.

Application is all-at-once: every universal level is matched against the
unmodified host graph first, the combined change set is collected into an
:class:`Effect`, and only then is anything mutated (on a copy — the input
graph is never touched).  Overlapping universal branches therefore see the
same pre-state, duplicate deletions collapse, and a branch that deletes a
node silently wins over sibling branches that would have written to it.

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

from collections.abc import Iterator
from dataclasses import dataclass, field

from .graph import HostGraph, Label, Value
from .matcher import Match, collect_level_matches, find_root_matches
from .rules import (
    ConstraintKind,
    POSITIVE_ROLES,
    Role,
    ROOT_QUANT,
    Rule,
)
from .typegraph import TypeGraph


class FormatError(Exception):
    """A print format that cannot be rendered with the bound parameters."""


@dataclass(frozen=True)
class NewNodeRef:
    """Placeholder for a node that will exist only after application."""

    serial: int


#: an edge-creation endpoint: an existing host node id or a pending node
Endpoint = int | NewNodeRef


@dataclass
class NodeCreation:
    ref: NewNodeRef
    types: tuple[Label, ...] = ()
    flags: tuple[Label, ...] = ()
    attrs: tuple[tuple[str, Value], ...] = ()


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
    if isinstance(endpoint, NewNodeRef):
        return (1, endpoint.serial)
    return (0, endpoint)


def plan_application(rule: Rule, g: HostGraph, root_match: Match,
                     tgs: list[TypeGraph] | None = None) -> Effect:
    levels = collect_level_matches(rule, g, root_match, tgs)

    node_deletions: set[int] = set()
    edge_deletions: set[tuple[int, Label, int]] = set()
    node_creations: list[NodeCreation] = []
    edge_creations: list[tuple[Endpoint, Label, Endpoint]] = []
    seen_edge_creations: set[tuple] = set()
    attr_writes: set[tuple[int, str, Value]] = set()
    attr_deletions: set[tuple[int, str]] = set()
    flag_changes: set[tuple[int, Label, bool]] = set()

    serial = 0
    # per-match creator context: rule node id -> NewNodeRef, keyed by the
    # identity of the Match object (matches chain via .parent)
    contexts: dict[int, dict[str, NewNodeRef]] = {}

    def process(match: Match, level: str) -> None:
        nonlocal serial
        parent_ctx = (contexts[id(match.parent)]
                      if match.parent is not None else {})
        ctx = dict(parent_ctx)
        for node in sorted(rule.nodes.values(), key=lambda n: n.id):
            if node.level != level:
                continue
            if node.role is Role.CREATOR:
                ref = NewNodeRef(serial)
                serial += 1
                ctx[node.id] = ref
                types = ((node.type_constraint,)
                         if node.type_constraint is not None else ())
                flags = tuple(sorted(
                    (fl for fl, r in node.flag_ops if r is Role.CREATOR),
                    key=lambda lb: lb.name))
                attrs = tuple(sorted(
                    (attr, c.value)
                    for attr, c in node.attr_constraints.items()
                    if c.kind is ConstraintKind.ASSIGN and c.value is not None))
                node_creations.append(NodeCreation(ref, types, flags, attrs))
                continue
            if node.role not in POSITIVE_ROLES:
                continue
            hid = match.assignment[node.id]
            if node.role is Role.ERASER:
                node_deletions.add(hid)
            for fl, r in node.flag_ops:
                if r is Role.CREATOR:
                    flag_changes.add((hid, fl, True))
                elif r is Role.ERASER:
                    flag_changes.add((hid, fl, False))
            for attr, c in node.attr_constraints.items():
                if c.kind is ConstraintKind.ASSIGN and c.value is not None:
                    attr_writes.add((hid, attr, c.value))
                elif c.kind is ConstraintKind.RENAME and c.new_name is not None:
                    if c.new_name == attr:
                        continue  # renaming to itself changes nothing
                    old = g.nodes[hid].attrs.get(attr)
                    if old is not None:
                        attr_deletions.add((hid, attr))
                        attr_writes.add((hid, c.new_name, old))
        for _, edge in rule.edges_at(level):
            if edge.is_path():
                continue
            if edge.role is Role.ERASER:
                src = match.assignment[edge.src]
                tgt = match.assignment[edge.tgt]
                edge_deletions.add((src, edge.label, tgt))
            elif edge.role is Role.CREATOR:
                src = ctx.get(edge.src, match.assignment.get(edge.src))
                tgt = ctx.get(edge.tgt, match.assignment.get(edge.tgt))
                triple = (src, edge.label, tgt)
                if triple not in seen_edge_creations:
                    seen_edge_creations.add(triple)
                    edge_creations.append(triple)
        contexts[id(match)] = ctx

    for qid, level_set in levels.items():
        for match in level_set.extensions:
            process(match, qid)

    # Deletion takes precedence over concurrent writes from other branches.
    attr_writes = {w for w in attr_writes if w[0] not in node_deletions}
    attr_deletions = {d for d in attr_deletions if d[0] not in node_deletions}
    flag_changes = {f for f in flag_changes if f[0] not in node_deletions}
    edge_creations = [
        (s, lbl, t) for s, lbl, t in edge_creations
        if not (isinstance(s, int) and s in node_deletions)
        and not (isinstance(t, int) and t in node_deletions)
    ]

    # Normalize to the exact delta against the pre-state: deleting and
    # recreating the same edge cancels out, creations the host already
    # satisfies vanish, and of several writes to one attribute only the
    # canonical last one survives.  This is what makes is_empty() mean
    # "application would be the identity".
    recreated = {t for t in edge_creations
                 if isinstance(t[0], int) and isinstance(t[2], int)}
    edge_deletions = {d for d in edge_deletions if d not in recreated}
    edge_creations = [
        (s, lbl, t) for s, lbl, t in edge_creations
        if isinstance(s, NewNodeRef) or isinstance(t, NewNodeRef)
        or not g.has_edge(s, lbl, t)
    ]

    flag_final = {}
    for nid, fl, add in sorted(flag_changes,
                               key=lambda f: (f[0], f[1].name, f[2])):
        # removal sorts before addition, so an add wins a conflict
        flag_final[(nid, fl)] = add
    flag_changes = {(nid, fl, add) for (nid, fl), add in flag_final.items()
                    if add != (fl in g.nodes[nid].flags)}

    write_winner: dict[tuple[int, str], Value] = {}
    for nid, attr, v in sorted(attr_writes,
                               key=lambda w: (w[0], w[1], w[2].sort_key())):
        write_winner[(nid, attr)] = v
    attr_deletions = {(nid, attr) for nid, attr in attr_deletions
                      if (nid, attr) not in write_winner
                      and attr in g.nodes[nid].attrs}
    attr_writes = {(nid, attr, v) for (nid, attr), v in write_winner.items()
                   if g.nodes[nid].attrs.get(attr) != v}

    counts = {qid: levels[qid].count for qid in levels if qid != ROOT_QUANT}
    param_values = dict(root_match.bound_params)
    for qid, idx in rule.count_params().items():
        param_values[idx] = Value.int_(levels[qid].count)

    return Effect(
        node_deletions=sorted(node_deletions),
        edge_deletions=sorted(edge_deletions,
                              key=lambda e: (e[0], e[1].name, e[2])),
        node_creations=node_creations,
        edge_creations=sorted(
            edge_creations,
            key=lambda e: (_endpoint_key(e[0]), e[1].name, _endpoint_key(e[2]))),
        attr_writes=sorted(attr_writes,
                           key=lambda w: (w[0], w[1], w[2].sort_key())),
        attr_deletions=sorted(attr_deletions),
        flag_changes=sorted(flag_changes,
                            key=lambda f: (f[0], f[1].name, f[2])),
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
    created: dict[NewNodeRef, int] = {}
    for creation in effect.node_creations:
        nid = out.add_node(creation.types, creation.flags)
        for attr, value in creation.attrs:
            out.set_attr(nid, attr, value)
        created[creation.ref] = nid
    for src, lbl, tgt in effect.edge_creations:
        src_id = created[src] if isinstance(src, NewNodeRef) else src
        tgt_id = created[tgt] if isinstance(tgt, NewNodeRef) else tgt
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
    ordered = [param_values[i] for i in sorted(param_values)]
    out: list[str] = []
    next_param = 0
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch != "%" or i + 1 >= len(fmt):
            out.append(ch)
            i += 1
            continue
        nxt = fmt[i + 1]
        if nxt == "s":
            if next_param >= len(ordered):
                raise FormatError(
                    f"format needs parameter #{next_param} but only "
                    f"{len(ordered)} are bound")
            out.append(ordered[next_param].to_text())
            next_param += 1
        elif nxt == "n":
            out.append("\n")
        elif nxt == "%":
            out.append("%")
        else:
            out.append(ch)
            out.append(nxt)
        i += 2
    return "".join(out)


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
