"""Matching rule patterns into host graphs.

A match maps the positive (reader and eraser) rule nodes of one
quantification level to host nodes.  Matching is structure-preserving but
not injective by default; explicit ``neq`` pairs rule out sharing where the
rule asks for it.  Negative application conditions are checked per level:
a candidate match survives only if every lone NAC group is unmatchable and
every disjunction set has at least one unmatchable member group.

The search is backtracking along a search plan, built per call of
:func:`_extend` from the rule nodes still to bind.  The plan binds next a
node that an edge or path links to an already-bound node, preferring
typed, attribute-constrained and better-connected nodes among those.  Such
a node's candidates are the host nodes reached from the bound neighbours'
images -- by ``successors``/``predecessors`` for a plain edge, or by
evaluating the path forward, or reversed when the bound end is the path's
target -- intersected over all bound neighbours.  Only a node with no
bound neighbour is tried against every host node.  The images of bound
``neq`` partners are taken out of the candidates, and only edges from the
node to itself remain to be checked per candidate; every other edge holds
by construction.  Root levels, ``forall`` levels and NAC probes all run on
this one search.  Candidates are tried in ascending id order and the
final match list is sorted, so results are deterministic for a given host
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import HostGraph, HostNode, Label, Value
from .rules import (
    ConstraintKind,
    NacGroup,
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


def _search_order(rule: Rule, node_ids: list[str]) -> list[str]:
    def degree(nid: str) -> int:
        return sum(1 for e in rule.edges
                   if not e.is_path() and e.role in POSITIVE_ROLES
                   and nid in (e.src, e.tgt))

    def key(nid: str) -> tuple:
        node = rule.nodes[nid]
        return (0 if node.type_constraint is not None else 1,
                -len(node.attr_constraints),
                -degree(nid),
                nid)

    return sorted(node_ids, key=key)


def _reverse(path: RegexPath) -> RegexPath:
    """The path read backwards: ``t`` is reachable from ``s`` along ``path``
    exactly when ``s`` is reachable from ``t`` along the result."""
    return RegexPath(tuple(RegexAtom(a.label, not a.inverse)
                           for a in reversed(path.atoms)))


def _edge_holds(g: HostGraph, e: RuleEdge, src: int, tgt: int) -> bool:
    if e.is_path():
        return tgt in evaluate_regex_path(g, e.label, {src})
    return g.has_edge(src, e.label, tgt)


def _base_holds(rule: Rule, g: HostGraph, base: dict[str, int],
                edges: list[RuleEdge]) -> bool:
    """The constraints among nodes that were bound before the search."""
    for a, b in rule.injectivity_pairs:
        if a in base and b in base and base[a] == base[b]:
            return False
    return all(_edge_holds(g, e, base[e.src], base[e.tgt]) for e in edges
               if e.src in base and e.tgt in base)


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

    nid: str
    #: candidates are the host nodes every source reaches; none: all nodes
    sources: list[_Source]
    #: edges from the node to itself, checked per candidate
    loops: list[RuleEdge]
    #: other rule nodes, bound before it, that must map elsewhere
    distinct: list[str]


def _plan(rule: Rule, base: dict[str, int], new_nodes: list[str],
          edges: list[RuleEdge]) -> list[_Step]:
    bound = set(base)
    remaining = _search_order(rule, new_nodes)
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
        steps.append(_Step(nid, sources, loops, distinct))
    return steps


def _extend(rule: Rule, g: HostGraph, base: dict[str, int],
            new_nodes: list[str], edges: list[RuleEdge],
            tgs: list[TypeGraph] | None,
            limit: int | None = None) -> list[dict[str, int]]:
    """All ways of assigning ``new_nodes`` consistently on top of ``base``."""
    if not _base_holds(rule, g, base, edges) or any(
            (n, n) in rule.injectivity_pairs for n in new_nodes):
        return []  # the latter: a node that must differ from itself
    steps = _plan(rule, base, new_nodes, edges)
    results: list[dict[str, int]] = []
    assignment = dict(base)
    host_ids = (g.node_ids() if any(not s.sources for s in steps)
                else [])

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
        node = rule.nodes[step.nid]
        for hid in candidates(step):
            if not _node_compatible(node, g.nodes[hid], tgs):
                continue
            if step.loops and not all(_edge_holds(g, e, hid, hid)
                                      for e in step.loops):
                continue
            assignment[step.nid] = hid
            stop = backtrack(k + 1)
            del assignment[step.nid]
            if stop:
                return True
        return False

    backtrack(0)
    return results


def _nac_matchable(rule: Rule, g: HostGraph, assignment: dict[str, int],
                   grp: NacGroup, tgs: list[TypeGraph] | None) -> bool:
    edges = [rule.edges[i] for i in grp.edge_indexes]
    new_nodes = [nid for nid in grp.node_ids if nid not in assignment]
    return bool(_extend(rule, g, assignment, new_nodes, edges, tgs, limit=1))


def nacs_satisfied(rule: Rule, g: HostGraph, assignment: dict[str, int],
                   level: str, tgs: list[TypeGraph] | None = None) -> bool:
    """True if no forbidden pattern at ``level`` blocks this assignment."""
    grouped = {gid for ds in rule.disjunction_sets for gid in ds.group_ids}
    for gid in sorted(rule.nac_groups):
        grp = rule.nac_groups[gid]
        if grp.level != level or gid in grouped:
            continue
        if _nac_matchable(rule, g, assignment, grp, tgs):
            return False
    for ds in rule.disjunction_sets:
        members = [rule.nac_groups[gid] for gid in ds.group_ids]
        if members[0].level != level:
            continue
        if all(_nac_matchable(rule, g, assignment, grp, tgs)
               for grp in members):
            return False
    return True


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


def find_root_matches(rule: Rule, g: HostGraph,
                      tgs: list[TypeGraph] | None = None) -> list[Match]:
    """All NAC-respecting matches of the root level, in canonical order."""
    node_ids = [n.id for n in rule.positive_nodes_at(ROOT_QUANT)]
    edges = [e for _, e in rule.edges_at(ROOT_QUANT)
             if e.role in POSITIVE_ROLES]
    matches: list[Match] = []
    for assignment in _extend(rule, g, {}, node_ids, edges, tgs):
        if not nacs_satisfied(rule, g, assignment, ROOT_QUANT, tgs):
            continue
        params = _bind_params(rule, g, assignment)
        if params is None:
            continue
        matches.append(Match(assignment, params))
    matches.sort(key=Match.sort_key)
    return matches


def _tree_order(rule: Rule) -> list[str]:
    order = [ROOT_QUANT]
    frontier = [ROOT_QUANT]
    while frontier:
        qid = frontier.pop(0)
        for child in rule.children_of(qid):
            order.append(child.id)
            frontier.append(child.id)
    return order


def collect_level_matches(
    rule: Rule, g: HostGraph, root_match: Match,
    tgs: list[TypeGraph] | None = None,
) -> dict[str, LevelMatchSet]:
    """Matches for every quantification level under one root match.

    Universal levels are matched against the unmodified host graph, parents
    before children; each extension records its parent match so rewrite
    planning can walk back up the tree.
    """
    result = {ROOT_QUANT: LevelMatchSet([root_match])}
    for qid in _tree_order(rule):
        if qid == ROOT_QUANT:
            continue
        parent = rule.quantifiers[qid].parent or ROOT_QUANT
        node_ids = [n.id for n in rule.positive_nodes_at(qid)]
        edges = [e for _, e in rule.edges_at(qid)
                 if e.role in POSITIVE_ROLES]
        extensions: list[Match] = []
        for pm in result[parent].extensions:
            for assignment in _extend(rule, g, pm.assignment, node_ids,
                                      edges, tgs):
                if nacs_satisfied(rule, g, assignment, qid, tgs):
                    extensions.append(Match(assignment, parent=pm))
        extensions.sort(key=Match.sort_key)
        result[qid] = LevelMatchSet(extensions)
    return result
