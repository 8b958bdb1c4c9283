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
search in it succeeds.  A level's search is the level's one record: it
also holds the level's parent, the rule nodes it matches or creates in id
order, its eraser and creator edges in rule order, and its count
parameter.  Compiling buckets the rule's nodes and edges by level in one
pass, so no later match or application scans them.

A search first checks the edges between the nodes bound before it, then
runs depth first over one step per node to bind.  A search of one step is
a plain loop over that step's candidates; a longer one runs in one plain
function that keeps one candidate iterator per bound step on an explicit
stack, so rule size is not bounded by the recursion limit.  Either returns
its full assignments as a list.  A level's search tests each assignment
against the level's NACs as it is found and keeps only those that pass; a
level with no NAC condition runs no NAC check, and a NAC search returns at
its first assignment.  Each search binds next a node that an edge or path
links to an already-bound node, preferring typed, attribute-constrained
and better-connected nodes among those.  Such a node's candidates are the
host nodes reached from the bound neighbours' images -- by the host
graph's adjacency index for a plain edge, or by evaluating the path
forward, or reversed when the bound end is the path's target --
intersected over all bound neighbours.  A typed node with no bound
neighbour takes its candidates from the host graph's type index: the
nodes of its type or, by the enabled type graphs, of a subtype.  Only an
untyped one is tried against every host node.  The images of bound
``neq`` partners are taken out of the candidates.  Every edge but a
self-loop then holds by construction, so per candidate a step tests only
what can still fail: its type when its candidates came from neighbours,
its required and forbidden flags, its matched and renamed attributes, and
its self-loops.

The plan compiles each step into two functions of its own.  Its candidate
function handles one case: the type index's own list when one host type
matches, the adjacency index's own list for one plain edge, a path
evaluation for one path, a fresh set intersected over several sources,
and a filter for ``neq`` partners.  So a search only iterates candidates
and never changes them: they may be the host graph's own indexes.  Its
test function checks only what the step needs, from tuples and frozensets
prepared once; a step with nothing to test has none and binds each
candidate untested.  Both look up :func:`evaluate_regex_path` and
:func:`~gtx.typegraph.is_subtype` by module name when called, so a
wrapper put in their place sees every call.  Candidates come in no set
order: the match lists are sorted, so results are deterministic for a
given host graph.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass, field

from .graph import HostGraph, Label, Value
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


def evaluate_regex_path(g: HostGraph, path: RegexPath,
                        starts: set[int]) -> set[int]:
    """Nodes reachable from ``starts`` by the concatenation of atoms."""
    frontier = set(starts)
    for atom in path.atoms:
        index, label = g.adjacency(atom.inverse), atom.label
        nxt: set[int] = set()
        for nid in frontier:
            nxt.update(index.get((nid, label), ()))
        frontier = nxt
        if not frontier:
            break
    return frontier


def _type_matches(constraint: Label, types: Collection[Label],
                  tgs: list[TypeGraph]) -> bool:
    """Whether one of ``types`` is ``constraint`` or, by one of the type
    graphs ``tgs``, a subtype of it."""
    if constraint in types:
        return True
    for t in types:
        for tg in tgs:
            if (t.name in tg.types and constraint.name in tg.types
                    and is_subtype(tg, t, constraint)):
                return True
    return False


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
#: a step's candidates: ``(host graph, assignment, type graphs)`` -> the
#: host nodes it may bind, which the caller only iterates
_Candidates = Callable[[HostGraph, dict[str, int], list[TypeGraph] | None],
                       Collection[int]]
#: a step's test: ``(host graph, candidate, type graphs)`` -> whether it binds
_Test = Callable[[HostGraph, int, list[TypeGraph] | None], bool]


@dataclass
class _Step:
    """How the search binds one rule node."""

    node: RuleNode
    #: candidates are the host nodes every source reaches; with none, the
    #: nodes of the node's type, or all nodes for an untyped node
    sources: list[_Source]
    #: edges from the node to itself, checked per candidate
    loops: list[RuleEdge]
    candidates: _Candidates
    #: None when every candidate binds untested
    test: _Test | None


def _compile_candidates(node: RuleNode, sources: list[_Source],
                        distinct: list[str]) -> _Candidates:
    """The candidate function of a step; it may return an index of the host
    graph itself, or its node dict, so its caller must not change them."""
    t = node.type_constraint
    if not sources and t is None:
        def candidates(g, assignment, tgs):
            return g.nodes
    elif not sources:
        def candidates(g, assignment, tgs):
            index = g.by_type()
            if not tgs:
                return index.get(t, ())
            found = [ids for u, ids in index.items()
                     if _type_matches(t, (u,), tgs)]
            if len(found) == 1:
                return found[0]
            return {h for ids in found for h in ids}
    elif len(sources) == 1 and isinstance(sources[0][1], RegexPath):
        ((other, path, _),) = sources

        def candidates(g, assignment, tgs):
            return evaluate_regex_path(g, path, {assignment[other]})
    elif len(sources) == 1:
        ((other, label, inverse),) = sources

        def candidates(g, assignment, tgs):
            return g.adjacency(inverse).get((assignment[other], label), ())
    else:
        def candidates(g, assignment, tgs):
            found: set[int] | None = None
            for other, label, inverse in sources:
                if isinstance(label, RegexPath):
                    ends = evaluate_regex_path(g, label, {assignment[other]})
                else:
                    ends = g.adjacency(inverse).get((assignment[other], label),
                                                    ())
                if found is None:
                    found = set(ends)
                else:
                    found.intersection_update(ends)
                if not found:
                    break
            return found
    if not distinct:
        return candidates
    unfiltered = candidates

    def candidates(g, assignment, tgs):
        taken = {assignment[m] for m in distinct}
        return [h for h in unfiltered(g, assignment, tgs) if h not in taken]
    return candidates


def _compile_test(node: RuleNode, typed: bool,
                  loops: list[RuleEdge]) -> _Test | None:
    """The test of a step's candidates: ``typed`` when its candidates may
    have another type.  None when no candidate can fail it."""
    t = node.type_constraint if typed else None
    required = frozenset(fl for fl, r in node.flag_ops
                         if r is Role.READER or r is Role.ERASER)
    forbidden = frozenset(fl for fl, r in node.flag_ops if r is Role.EMBARGO)
    matched = tuple((a, c.value) for a, c in node.attr_constraints.items()
                    if c.kind is ConstraintKind.MATCH)
    renamed = tuple(a for a, c in node.attr_constraints.items()
                    if c.kind is ConstraintKind.RENAME)
    plain_loops = tuple(e.label for e in loops if not e.is_path())
    path_loops = tuple(e.label for e in loops if e.is_path())
    if not (required or forbidden or matched or renamed or loops):
        if t is None:
            return None

        def test(g, hid, tgs):
            types = g.nodes[hid].types
            return t in types or bool(tgs) and _type_matches(t, types, tgs)
        return test

    def test(g, hid, tgs):
        host = g.nodes[hid]
        if t is not None and t not in host.types and not (
                tgs and _type_matches(t, host.types, tgs)):
            return False
        if required and not required <= host.flags:
            return False
        if forbidden and not forbidden.isdisjoint(host.flags):
            return False
        attrs = host.attrs
        for attr, value in matched:
            if attrs.get(attr) != value:
                return False
        for attr in renamed:
            if attr not in attrs:
                return False
        for label in plain_loops:
            if (hid, label, hid) not in g.edges:
                return False
        for path in path_loops:
            if hid not in evaluate_regex_path(g, path, {hid}):
                return False
        return True
    return test


@dataclass
class _Search:
    """How to extend an assignment of the nodes bound before the search;
    a level's search also holds what the rewriter reads of the level."""

    steps: list[_Step]
    #: edges between nodes bound before the search, checked first
    checks: list[RuleEdge]
    #: a level's NAC conditions; each blocks a result of the level's search
    #: when every search in it succeeds
    nacs: list[list[_Search]] = field(default_factory=list)
    #: a level's parent level, None at the root
    parent: str | None = None
    #: the rule nodes a level matches or creates, in id order
    nodes: list[RuleNode] = field(default_factory=list)
    #: a level's eraser and creator edges, in rule order
    changes: list[RuleEdge] = field(default_factory=list)
    count_param: int | None = None


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
        steps.append(_Step(node, sources, loops,
                           _compile_candidates(node, sources, distinct),
                           _compile_test(node, bool(sources), loops)))
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
    # per level: its non-embargo nodes in id order, and its edges
    nodes: dict[str, list[RuleNode]] = {qid: [] for qid in rule.quantifiers}
    for node in sorted(rule.nodes.values(), key=lambda n: n.id):
        if node.role is not Role.EMBARGO:
            nodes[node.level].append(node)
    edges: dict[str, list[RuleEdge]] = {qid: [] for qid in rule.quantifiers}
    for e in rule.edges:
        edges[e.level].append(e)
    levels: dict[str, _Search] = {}
    frontier: list[tuple[str, set[str]]] = [(ROOT_QUANT, set())]
    for qid, bound in frontier:  # grows while it is walked: breadth first
        matched = [n.id for n in nodes[qid] if n.role is not Role.CREATOR]
        inner = bound | set(matched)
        levels[qid] = search = _plan(
            rule, bound, matched,
            [e for e in edges[qid] if e.role in POSITIVE_ROLES])
        search.nacs = [[nac(gid, inner) for gid in c] for c in conditions
                       if groups[c[0]].level == qid]
        q = rule.quantifiers[qid]
        search.parent, search.nodes, search.count_param = (
            q.parent, nodes[qid], q.count_param)
        search.changes = [e for e in edges[qid]
                          if e.role is Role.ERASER or e.role is Role.CREATOR]
        frontier += [(child.id, inner) for child in rule.quantifiers.values()
                     if child.parent == qid]
    rule.compiled = levels
    return levels


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
    if len(steps) == 1:  # no stack: one loop over the step's candidates
        (step,) = steps
        nid, test = step.node.id, step.test
        for hid in step.candidates(g, base, tgs):
            if test is None or test(g, hid, tgs):
                full = {**base, nid: hid}
                if keep is None or keep(full):
                    kept.append(full)
                    if first:
                        break
        return kept
    last = len(steps) - 1
    assignment = dict(base)
    # stack[k] iterates the candidates of steps[k].  A popped step's binding
    # stays in ``assignment``, but is overwritten before anything reads it.
    stack = [iter(steps[0].candidates(g, assignment, tgs))]
    while stack:
        depth = len(stack) - 1
        step = steps[depth]
        test = step.test
        if test is None:
            hid = next(stack[depth], None)
        else:
            for hid in stack[depth]:
                if test(g, hid, tgs):
                    break
            else:
                hid = None
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
            stack.append(iter(steps[depth + 1].candidates(g, assignment,
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
    for qid, search in list(_compile(rule).items())[1:]:
        extensions = [
            Match(assignment, parent=pm)
            for pm in result[search.parent].extensions
            for assignment in _level_assignments(rule, g, qid,
                                                 pm.assignment, tgs)]
        extensions.sort(key=Match.sort_key)
        result[qid] = LevelMatchSet(extensions)
    return result
