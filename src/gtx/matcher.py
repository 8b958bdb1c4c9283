"""Matching rule patterns into host graphs.

A match maps the positive (reader and eraser) rule nodes of one
quantification level to host nodes.  Matching is structure-preserving but
not injective by default; explicit ``neq`` pairs rule out sharing where the
rule asks for it.  Negative application conditions are checked per level:
a candidate match survives only if every lone NAC group is unmatchable and
every disjunction set has at least one unmatchable member group.

A search plan depends only on the rule, so each rule is compiled once, on
its first match, into one search per level, in tree order.  A level's
search also holds its NAC conditions.  A condition is a lone NAC group or a
disjunction set, with one search per group, and blocks a match when every
search in it succeeds.

A search first checks the edges between the nodes bound before it, then
backtracks over one step per node to bind.  It binds next a node that an
edge or path links to an already-bound node, preferring typed,
attribute-constrained and better-connected nodes among those.  Such a
node's candidates are the host nodes reached from the bound neighbours'
images -- by ``successors``/``predecessors`` for a plain edge, or by
evaluating the path forward, or reversed when the bound end is the path's
target -- intersected over all bound neighbours.  Only a node with no bound
neighbour is tried against every host node.  The images of bound ``neq``
partners are taken out of the candidates, and only edges from the node to
itself remain to be checked per candidate; every other edge holds by
construction.  Candidates are tried in ascending id order and the final
match list is sorted, so results are deterministic for a given host graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import HostGraph, HostNode, Label, Value
from .rules import (
    ConstraintKind,
    POSITIVE_ROLES,
    RegexAtom,
    RegexPath,
    Role,
    ROOT_QUANT,
    Rule,
    RuleEdge,
    RuleNode,
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


def _type_matches(constraint: Label, host: HostNode,
                  tgs: list[TypeGraph] | None) -> bool:
    if constraint in host.types:
        return True
    if not tgs:
        return False
    for t in host.types:
        for tg in tgs:
            if (t.name in tg.types and constraint.name in tg.types
                    and is_subtype(tg, t, constraint)):
                return True
    return False


def _node_compatible(node: RuleNode, host: HostNode,
                     tgs: list[TypeGraph] | None) -> bool:
    if node.type_constraint is not None:
        if not _type_matches(node.type_constraint, host, tgs):
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
    #: candidates are the host nodes every source reaches; none: all nodes
    sources: list[_Source]
    #: edges from the node to itself, checked per candidate
    loops: list[RuleEdge]
    #: other rule nodes, bound before it, that must map elsewhere
    distinct: list[str]


@dataclass
class _Search:
    """How to extend an assignment of the nodes bound before the search."""

    #: None when a node to bind must differ from itself: it never succeeds
    steps: list[_Step] | None
    #: edges between nodes bound before the search, checked first
    checks: list[RuleEdge]
    #: a level's NAC conditions; each blocks a result of the level's search
    #: when every search in it succeeds
    nacs: list[list[_Search]] = field(default_factory=list)


def _plan(rule: Rule, bound: set[str], new_nodes: list[str],
          edges: list[RuleEdge]) -> _Search:
    """The search that binds ``new_nodes`` on top of the ``bound`` ones."""
    checks = [e for e in edges if e.src in bound and e.tgt in bound]
    if any((n, n) in rule.injectivity_pairs for n in new_nodes):
        return _Search(None, checks)

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
                    if nid in (a, b) and a != b
                    and a in bound and b in bound]
        steps.append(_Step(rule.nodes[nid], sources, loops, distinct))
    return _Search(steps, checks)


def _compile(rule: Rule) -> dict[str, _Search]:
    """The rule's levels in tree order, compiled on its first match."""
    if rule.compiled is not None:
        return rule.compiled

    def nac(gid: str, bound: set[str]) -> _Search:
        grp = rule.nac_groups[gid]
        return _plan(rule, bound, [n for n in grp.node_ids if n not in bound],
                     [rule.edges[i] for i in grp.edge_indexes])

    grouped = {gid for ds in rule.disjunction_sets for gid in ds.group_ids}
    conditions = [(gid,) for gid in sorted(rule.nac_groups)
                  if gid not in grouped]
    conditions += [ds.group_ids for ds in rule.disjunction_sets]
    levels: dict[str, _Search] = {}
    frontier: list[tuple[str, set[str]]] = [(ROOT_QUANT, set())]
    for qid, bound in frontier:  # grows while it is walked: breadth first
        nodes = [n.id for n in rule.positive_nodes_at(qid)]
        edges = [e for e in rule.edges_at(qid) if e.role in POSITIVE_ROLES]
        inner = bound | set(nodes)
        levels[qid] = search = _plan(rule, bound, nodes, edges)
        search.nacs = [[nac(gid, inner) for gid in c] for c in conditions
                       if rule.nac_groups[c[0]].level == qid]
        frontier += [(q.id, inner) for q in rule.children_of(qid)]
    rule.compiled = levels
    return levels


def _extend(search: _Search, g: HostGraph, base: dict[str, int],
            tgs: list[TypeGraph] | None,
            limit: int | None = None) -> list[dict[str, int]]:
    """All ways of running ``search`` on top of ``base``."""
    steps = search.steps
    if steps is None or not all(_edge_holds(g, e, base[e.src], base[e.tgt])
                                for e in search.checks):
        return []
    results: list[dict[str, int]] = []
    assignment = dict(base)
    host_ids = g.node_ids() if any(not s.sources for s in steps) else []

    def candidates(step: _Step) -> list[int]:
        taken = {assignment[m] for m in step.distinct}
        if not step.sources:
            return [h for h in host_ids if h not in taken]
        (other, label, inverse), *rest = step.sources
        found = _far_ends(g, assignment[other], label, inverse)
        for other, label, inverse in rest:
            if not found:
                break
            found &= _far_ends(g, assignment[other], label, inverse)
        return sorted(found - taken)

    def backtrack(k: int) -> bool:
        if limit is not None and len(results) >= limit:
            return True
        if k == len(steps):
            results.append(dict(assignment))
            return limit is not None and len(results) >= limit
        step = steps[k]
        for hid in candidates(step):
            if not _node_compatible(step.node, g.nodes[hid], tgs):
                continue
            if step.loops and not all(_edge_holds(g, e, hid, hid)
                                      for e in step.loops):
                continue
            assignment[step.node.id] = hid
            stop = backtrack(k + 1)
            del assignment[step.node.id]
            if stop:
                return True
        return False

    backtrack(0)
    return results


def nacs_satisfied(rule: Rule, g: HostGraph, assignment: dict[str, int],
                   level: str, tgs: list[TypeGraph] | None = None) -> bool:
    """True if no forbidden pattern at ``level`` blocks this assignment."""
    return not any(all(_extend(s, g, assignment, tgs, limit=1) for s in c)
                   for c in _compile(rule)[level].nacs)


def _bind_params(rule: Rule, g: HostGraph,
                 assignment: dict[str, int]) -> dict[int, Value] | None:
    """Values for declared parameters, or None if one cannot be produced."""
    out: dict[int, Value] = {}
    for idx in sorted(rule.params):
        nid, attr = rule.params[idx]
        node = rule.nodes[nid]
        if node.role is Role.CREATOR:
            constraint = node.attr_constraints.get(attr)
            if constraint is None or constraint.value is None:
                return None
            out[idx] = constraint.value
        else:
            hid = assignment.get(nid)
            if hid is None:
                return None
            value = g.nodes[hid].attrs.get(attr)
            if value is None:
                return None
            out[idx] = value
    return out


def _level_assignments(rule: Rule, g: HostGraph, qid: str,
                       base: dict[str, int],
                       tgs: list[TypeGraph] | None) -> list[dict[str, int]]:
    """The NAC-respecting assignments of level ``qid`` on top of ``base``."""
    return [a for a in _extend(_compile(rule)[qid], g, base, tgs)
            if nacs_satisfied(rule, g, a, qid, tgs)]


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
    before children; each extension records its parent match so rewrite
    planning can walk back up the tree.
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
