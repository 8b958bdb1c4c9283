"""Matching rule patterns into host graphs.

A match maps the positive (reader and eraser) rule nodes of one
quantification level to host nodes.  Matching is structure-preserving but
not injective by default; explicit ``neq`` pairs rule out sharing where the
rule asks for it.  Negative application conditions are checked per level:
a candidate match survives only if every lone NAC group is unmatchable and
every disjunction set has at least one unmatchable member group.

A search plan depends only on the rule, so each rule is compiled once, on
its first match, into one search per level, in tree order.  It first runs
:func:`validate_rule` without type graphs: on a violation it raises
:class:`InvalidRuleError` and compiles nothing, so the matcher and the
rewriter only see valid rules, and the next match raises again.  A level's
search also holds its NAC conditions.  A condition is a lone NAC group or a
disjunction set, with one search per group, and blocks a match when every
search in it succeeds.

A search first checks the edges between the nodes bound before it, then
runs depth first over one step per node to bind.  It runs in one plain
function that keeps one candidate iterator per bound step on an explicit
stack, so rule size is not bounded by the recursion limit, and returns
its full assignments as a list.  A level's search tests each assignment
against the level's NACs as it is found and keeps only those that pass; a
level with no NAC condition runs no NAC check, and a NAC search returns at
its first assignment.  Each search binds next a node that an edge or path
links to an already-bound node, preferring typed, attribute-constrained
and better-connected nodes among those.  Such a node's candidates are the
host nodes reached from the bound neighbours' images -- by
``successors``/``predecessors`` for a plain edge, or by evaluating the
path forward, or reversed when the bound end is the path's target --
intersected over all bound neighbours.  A typed node with no bound
neighbour takes its candidates from the host graph's type index: the
nodes of its type or, by the enabled type graphs, of a subtype.  Only an
untyped one is tried against every host node.  The images of bound
``neq`` partners are taken out of the candidates.  Every edge but a
self-loop then holds by construction, so per candidate a step tests only
what can still fail: its type when its candidates came from neighbours,
its required and forbidden flags, its matched and renamed attributes, and
its self-loops.  The plan records whether a step has any of these; a step
with none binds each candidate untested.  Candidates come in no set
order: the match lists are sorted, so results are deterministic for a
given host graph.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass, field

from .graph import HostGraph, HostNode, Label, Value
from .rules import (
    ConstraintKind,
    InvalidRuleError,
    POSITIVE_ROLES,
    RegexAtom,
    RegexPath,
    Role,
    ROOT_QUANT,
    Rule,
    RuleEdge,
    RuleNode,
    validate_rule,
)
from .typegraph import TypeGraph, is_subtype


@dataclass
class Match:
    """An assignment of rule node ids to host node ids."""

    assignment: dict[str, int]
    bound_params: dict[int, Value] = field(default_factory=dict)
    parent: Match | None = field(default=None, compare=False, repr=False)

    def sort_key(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self.assignment.items()))


@dataclass
class LevelMatchSet:
    """All matches of one quantification level, across all parent matches."""

    extensions: list[Match]

    @property
    def count(self) -> int:
        return len(self.extensions)


def evaluate_regex_path(g: HostGraph, path: RegexPath,
                        starts: set[int]) -> set[int]:
    """Nodes reachable from ``starts`` by the concatenation of atoms."""
    frontier = set(starts)
    for atom in path.atoms:
        nxt: set[int] = set()
        for nid in frontier:
            step = (g.predecessors(nid, atom.label) if atom.inverse
                    else g.successors(nid, atom.label))
            nxt |= step
        frontier = nxt
        if not frontier:
            break
    return frontier


def _type_matches(constraint: Label, types: Collection[Label],
                  tgs: list[TypeGraph] | None) -> bool:
    if constraint in types:
        return True
    if not tgs:
        return False
    for t in types:
        for tg in tgs:
            if (t.name in tg.types and constraint.name in tg.types
                    and is_subtype(tg, t, constraint)):
                return True
    return False


def _node_compatible(node: RuleNode, host: HostNode,
                     tgs: list[TypeGraph] | None) -> bool:
    if node.type_constraint is not None:
        if not _type_matches(node.type_constraint, host.types, tgs):
            return False
    for fl, role in node.flag_ops:
        if role in (Role.READER, Role.ERASER):
            if fl not in host.flags:
                return False
        elif role is Role.EMBARGO:
            if fl in host.flags:
                return False
    for attr, constraint in node.attr_constraints.items():
        if constraint.kind is ConstraintKind.MATCH:
            if host.attrs.get(attr) != constraint.value:
                return False
        elif constraint.kind is ConstraintKind.RENAME:
            if attr not in host.attrs:
                return False
    return True


def _reverse(path: RegexPath) -> RegexPath:
    """The path read backwards: ``t`` is reachable from ``s`` along ``path``
    exactly when ``s`` is reachable from ``t`` along the result."""
    return RegexPath(tuple(RegexAtom(a.label, not a.inverse)
                           for a in reversed(path.atoms)))


def _edge_holds(g: HostGraph, e: RuleEdge, src: int, tgt: int) -> bool:
    if e.is_path():
        return tgt in evaluate_regex_path(g, e.label, {src})
    return g.has_edge(src, e.label, tgt)


#: a way to reach a rule node from a bound one: the bound rule node, then
#: either a path oriented to start there, or a plain label and whether it
#: is followed against the edge direction
_Source = tuple[str, Label | RegexPath, bool]


def _far_ends(g: HostGraph, hid: int, label: Label | RegexPath,
              inverse: bool) -> set[int]:
    if isinstance(label, RegexPath):
        return evaluate_regex_path(g, label, {hid})
    return g.predecessors(hid, label) if inverse else g.successors(hid, label)


@dataclass
class _Step:
    """How the search binds one rule node."""

    node: RuleNode
    #: candidates are the host nodes every source reaches; with none, the
    #: nodes of the node's type, or all nodes for an untyped node
    sources: list[_Source]
    #: edges from the node to itself, checked per candidate
    loops: list[RuleEdge]
    #: other rule nodes, bound before it, that must map elsewhere
    distinct: list[str]
    #: whether a candidate can fail ``_node_compatible`` or a loop; if not,
    #: every candidate binds untested
    tested: bool


@dataclass
class _Search:
    """How to extend an assignment of the nodes bound before the search."""

    steps: list[_Step]
    #: edges between nodes bound before the search, checked first
    checks: list[RuleEdge]
    #: a level's NAC conditions; each blocks a result of the level's search
    #: when every search in it succeeds
    nacs: list[list[_Search]] = field(default_factory=list)


def _plan(rule: Rule, bound: set[str], new_nodes: list[str],
          edges: list[RuleEdge]) -> _Search:
    """The search that binds ``new_nodes`` on top of the ``bound`` ones."""
    checks = [e for e in edges if e.src in bound and e.tgt in bound]

    def key(nid: str) -> tuple:  # typed, constrained, connected first
        node = rule.nodes[nid]
        return (node.type_constraint is None, -len(node.attr_constraints),
                -sum(nid in (e.src, e.tgt) for e in rule.edges
                     if not e.is_path() and e.role in POSITIVE_ROLES), nid)

    remaining = sorted(new_nodes, key=key)
    bound = set(bound)
    steps: list[_Step] = []
    while remaining:
        nid = next((n for n in remaining
                    if any((e.src == n and e.tgt in bound)
                           or (e.tgt == n and e.src in bound)
                           for e in edges)),
                   remaining[0])
        remaining.remove(nid)
        sources: list[_Source] = []
        loops: list[RuleEdge] = []
        for e in edges:
            if e.src == nid and e.tgt == nid:
                loops.append(e)
            elif e.tgt == nid and e.src in bound:
                sources.append((e.src, e.label, False))
            elif e.src == nid and e.tgt in bound:
                if isinstance(e.label, RegexPath):
                    sources.append((e.tgt, _reverse(e.label), False))
                else:
                    sources.append((e.tgt, e.label, True))
        bound.add(nid)
        distinct = [b if a == nid else a
                    for a, b in sorted(rule.injectivity_pairs)
                    if nid in (a, b) and a in bound and b in bound]
        node = rule.nodes[nid]
        # a sourceless typed node's candidates already passed its type test
        tested = bool(
            loops or (sources and node.type_constraint is not None)
            or any(r in (Role.READER, Role.ERASER, Role.EMBARGO)
                   for _, r in node.flag_ops)
            or any(c.kind in (ConstraintKind.MATCH, ConstraintKind.RENAME)
                   for c in node.attr_constraints.values()))
        steps.append(_Step(node, sources, loops, distinct, tested))
    return _Search(steps, checks)


def _compile(rule: Rule) -> dict[str, _Search]:
    """The rule's levels in tree order, compiled on its first match."""
    if rule.compiled is not None:
        return rule.compiled
    violations = validate_rule(rule)
    if violations:
        raise InvalidRuleError(rule.name, violations)

    groups = rule.nac_groups

    def nac(gid: str, bound: set[str]) -> _Search:
        # an edge may end at an embargo node of another group: bind it too
        grp = groups[gid]
        edges = [rule.edges[i] for i in grp.edge_indexes]
        ends = {n for e in edges for n in (e.src, e.tgt)}
        return _plan(rule, bound, sorted({*grp.node_ids, *ends} - bound), edges)

    grouped = {gid for ds in rule.disjunction_sets for gid in ds}
    conditions = [(gid,) for gid in sorted(groups)
                  if gid not in grouped]
    conditions += rule.disjunction_sets
    levels: dict[str, _Search] = {}
    frontier: list[tuple[str, set[str]]] = [(ROOT_QUANT, set())]
    for qid, bound in frontier:  # grows while it is walked: breadth first
        nodes = [n.id for n in rule.positive_nodes_at(qid)]
        edges = [e for e in rule.edges_at(qid) if e.role in POSITIVE_ROLES]
        inner = bound | set(nodes)
        levels[qid] = search = _plan(rule, bound, nodes, edges)
        search.nacs = [[nac(gid, inner) for gid in c] for c in conditions
                       if groups[c[0]].level == qid]
        frontier += [(q.id, inner) for q in rule.children_of(qid)]
    rule.compiled = levels
    return levels


def _candidates(step: _Step, g: HostGraph, assignment: dict[str, int],
                tgs: list[TypeGraph] | None) -> Collection[int]:
    """The host nodes ``step`` may bind, before the per-candidate tests.
    The caller only iterates them: they may be the graph's own node dict."""
    if not step.sources:
        t = step.node.type_constraint
        if t is None:
            found: Collection[int] = g.nodes
        else:
            found = {h for u, ids in g.by_type().items()
                     if _type_matches(t, (u,), tgs) for h in ids}
    else:
        (other, label, inverse), *rest = step.sources
        found = _far_ends(g, assignment[other], label, inverse)
        for other, label, inverse in rest:
            if not found:
                break
            found &= _far_ends(g, assignment[other], label, inverse)
    if not step.distinct:
        return found
    taken = {assignment[m] for m in step.distinct}
    return [h for h in found if h not in taken]


def _extend(search: _Search, g: HostGraph, base: dict[str, int],
            tgs: list[TypeGraph] | None, first: bool = False,
            keep: Callable[[dict[str, int]], bool] | None = None,
            ) -> list[dict[str, int]]:
    """The full assignments of ``search`` on top of ``base``, depth first.
    Each is tested by ``keep`` as it is found, so only kept ones are held;
    with ``first``, the search returns at the first one kept."""
    for e in search.checks:
        if not _edge_holds(g, e, base[e.src], base[e.tgt]):
            return []
    steps = search.steps
    if not steps:
        full = dict(base)
        return [full] if keep is None or keep(full) else []
    kept: list[dict[str, int]] = []
    last = len(steps) - 1
    # only a step before the last writes to ``assignment``
    assignment = dict(base) if last else base
    # stack[k] iterates the candidates of steps[k].  A popped step's binding
    # stays in ``assignment``, but is overwritten before anything reads it.
    stack = [iter(_candidates(steps[0], g, assignment, tgs))]
    while stack:
        depth = len(stack) - 1
        step = steps[depth]
        if step.tested:
            for hid in stack[depth]:
                if _node_compatible(step.node, g.nodes[hid], tgs) and (
                        not step.loops or all(_edge_holds(g, e, hid, hid)
                                              for e in step.loops)):
                    break
            else:
                hid = None
        else:
            hid = next(stack[depth], None)
        if hid is None:
            stack.pop()
            continue
        if depth == last:
            full = {**assignment, step.node.id: hid}
            if keep is None or keep(full):
                kept.append(full)
                if first:
                    return kept
        else:
            assignment[step.node.id] = hid
            stack.append(iter(_candidates(steps[depth + 1], g, assignment,
                                          tgs)))
    return kept


def nacs_satisfied(rule: Rule, g: HostGraph, assignment: dict[str, int],
                   level: str, tgs: list[TypeGraph] | None = None) -> bool:
    """True if no forbidden pattern at ``level`` blocks this assignment.

    A condition blocks it when each of its searches has an extension, so
    each search stops at its first one."""
    for condition in _compile(rule)[level].nacs:
        for s in condition:
            if not _extend(s, g, assignment, tgs, first=True):
                break
        else:
            return False
    return True


def _bind_params(rule: Rule, g: HostGraph,
                 assignment: dict[str, int]) -> dict[int, Value] | None:
    """Values for declared parameters, or None if one cannot be produced."""
    out: dict[int, Value] = {}
    for idx in sorted(rule.params):
        nid, attr = rule.params[idx]
        if rule.nodes[nid].role is Role.CREATOR:
            value = rule.nodes[nid].attr_constraints[attr].value
        else:
            value = g.nodes[assignment[nid]].attrs.get(attr)
        if value is None:
            return None
        out[idx] = value
    return out


def _level_assignments(rule: Rule, g: HostGraph, qid: str,
                       base: dict[str, int],
                       tgs: list[TypeGraph] | None) -> list[dict[str, int]]:
    """The NAC-respecting assignments of level ``qid`` on top of ``base``;
    a level with no NAC condition tests none."""
    search = _compile(rule)[qid]
    if not search.nacs:
        return _extend(search, g, base, tgs)
    return _extend(search, g, base, tgs,
                   keep=lambda a: nacs_satisfied(rule, g, a, qid, tgs))


def find_root_matches(rule: Rule, g: HostGraph,
                      tgs: list[TypeGraph] | None = None) -> list[Match]:
    """All NAC-respecting matches of the root level, in canonical order."""
    matches: list[Match] = []
    for assignment in _level_assignments(rule, g, ROOT_QUANT, {}, tgs):
        params = _bind_params(rule, g, assignment)
        if params is not None:
            matches.append(Match(assignment, params))
    matches.sort(key=Match.sort_key)
    return matches


def collect_level_matches(
    rule: Rule, g: HostGraph, root_match: Match,
    tgs: list[TypeGraph] | None = None,
) -> dict[str, LevelMatchSet]:
    """Matches for every level under one root match, in tree order.

    Universal levels are matched against the unmodified host graph, parents
    before children; each extension records its parent match, and each
    level is sorted by :meth:`Match.sort_key`.  The rewriter does not call
    this: :func:`gtx.rewriter.plan_application` walks the levels itself.
    It is kept, with :class:`LevelMatchSet` and ``Match.parent``, for the
    level tests and for the benchmark's tracer, which times it by name and
    counts its extensions.
    """
    result = {ROOT_QUANT: LevelMatchSet([root_match])}
    for qid in list(_compile(rule))[1:]:
        parent = rule.quantifiers[qid].parent
        extensions = [
            Match(assignment, parent=pm)
            for pm in result[parent].extensions
            for assignment in _level_assignments(rule, g, qid,
                                                 pm.assignment, tgs)]
        extensions.sort(key=Match.sort_key)
        result[qid] = LevelMatchSet(extensions)
    return result
