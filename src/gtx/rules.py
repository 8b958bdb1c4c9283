"""Rule graphs.

A rule is a graph whose nodes and edges carry roles:

* ``reader``  -- must be present, survives the application,
* ``eraser``  -- must be present, is deleted,
* ``creator`` -- is created,
* ``embargo`` -- must be *absent* (negative application condition).

Embargo elements are partitioned into NAC groups, which a rule derives
from them on every read and never stores: by default a group is a
connected component of the embargo-only subgraph (reader/eraser endpoints
act as anchors and belong to no group).  A plain group forbids its pattern
outright; groups linked into a disjunction set only fail the match when
every one of them is matchable.

Rules are structured by a quantifier tree: the root is matched once
(existentially), ``forall`` levels are matched exhaustively and applied
simultaneously against the pre-state.  A ``forall`` may record its number
of matches in a count parameter, which is how the counting rules print
their results.

Attribute handling per node: ``match`` pins an exact value, ``assign``
writes one, and ``rename`` moves a present attribute to a new name while
keeping its value.  Matching is non-injective unless explicit injectivity
pairs say otherwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .graph import Label, Value, name_fault
from .source import SourceSpan, Violation
from .typegraph import TypeGraph, attr_licensed, edge_licensed

#: the id of the root quantifier; every other quantifier is a ``forall``
ROOT_QUANT = "root"

#: a print-format directive: ``%`` and the character after it
FORMAT_DIRECTIVE = re.compile(r"%(.)", re.DOTALL)


class InvalidRuleError(ValueError):
    """Raised on the first match of a rule that :func:`validate_rule`
    rejects, with what it found in ``violations``."""

    def __init__(self, name: str, violations: list[Violation]):
        super().__init__(f"rule {name!r}: "
                         + "; ".join(v.message for v in violations))
        self.violations = violations


class Role(Enum):
    READER = "reader"
    ERASER = "eraser"
    CREATOR = "creator"
    EMBARGO = "embargo"


POSITIVE_ROLES = frozenset({Role.READER, Role.ERASER})
#: the roles a path edge may take: a path is only ever tested, never changed
PATH_ROLES = frozenset({Role.READER, Role.EMBARGO})


@dataclass(frozen=True)
class RegexAtom:
    label: Label
    inverse: bool = False


@dataclass(frozen=True)
class RegexPath:
    """A concatenation of edge-label atoms; a ``-`` prefix on an atom means
    the hop follows the edge against its direction."""

    atoms: tuple[RegexAtom, ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("regex path needs at least one atom")

    def text(self) -> str:
        return ".".join(
            ("-" if a.inverse else "") + a.label.name for a in self.atoms
        )


class ConstraintKind(Enum):
    MATCH = "match"
    ASSIGN = "assign"
    RENAME = "rename"


@dataclass(frozen=True)
class AttrConstraint:
    kind: ConstraintKind
    value: Value | None = None
    new_name: str | None = None

    def __post_init__(self) -> None:
        if self.kind is ConstraintKind.RENAME and self.new_name is None:
            raise ValueError("a rename constraint needs a new name")
        if self.kind is not ConstraintKind.RENAME and self.value is None:
            raise ValueError(f"a {self.kind.value} constraint needs a value")


@dataclass
class RuleNode:
    id: str
    role: Role
    type_constraint: Label | None = None
    flag_ops: list[tuple[Label, Role]] = field(default_factory=list)
    attr_constraints: dict[str, AttrConstraint] = field(default_factory=dict)
    level: str = ROOT_QUANT
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class RuleEdge:
    src: str
    label: Label | RegexPath
    tgt: str
    role: Role
    level: str = ROOT_QUANT
    #: explicit NAC group requested in the source (embargo only)
    group: str | None = None
    span: SourceSpan | None = field(default=None, compare=False)

    def is_path(self) -> bool:
        return isinstance(self.label, RegexPath)

    def describe(self) -> str:
        lbl = self.label.text() if self.is_path() else self.label.name
        return f"{self.src} -{lbl}-> {self.tgt}"


@dataclass
class Quantifier:
    id: str
    parent: str | None = None
    count_param: int | None = None
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass(frozen=True)
class NacGroup:
    node_ids: tuple[str, ...]
    edge_indexes: tuple[int, ...]
    level: str


@dataclass
class Rule:
    """A rule graph; ``nac_groups`` is derived from it on every read.  Not
    changed after its first match, by the same convention as
    :class:`TypeGraph`: the matcher compiles a rule once and keeps the
    result in ``compiled``."""

    name: str
    nodes: dict[str, RuleNode] = field(default_factory=dict)
    edges: list[RuleEdge] = field(default_factory=list)
    quantifiers: dict[str, Quantifier] = field(default_factory=dict)
    disjunction_sets: list[tuple[str, ...]] = field(default_factory=list)
    injectivity_pairs: set[tuple[str, str]] = field(default_factory=set)
    #: parameter index -> (rule-node id, attribute name); count parameters
    #: live on their quantifier instead and do not appear here
    params: dict[int, tuple[str, str]] = field(default_factory=dict)
    print_format: str | None = None
    #: the matcher's record per level, in tree order: its search, parent,
    #: nodes, changing edges and count parameter; built on the first match
    compiled: dict | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if ROOT_QUANT not in self.quantifiers:
            self.quantifiers = {ROOT_QUANT: Quantifier(ROOT_QUANT),
                                **self.quantifiers}

    @property
    def nac_groups(self) -> dict[str, NacGroup]:
        """The embargo elements grouped by :func:`group_embargo_elements`,
        derived afresh on every read."""
        return group_embargo_elements(self.nodes, self.edges, self.quantifiers)

    def is_readonly(self) -> bool:
        """True when an application can never change the graph."""
        for n in self.nodes.values():
            if n.role in (Role.ERASER, Role.CREATOR):
                return False
            for _, role in n.flag_ops:
                if role in (Role.ERASER, Role.CREATOR):
                    return False
            for c in n.attr_constraints.values():
                if c.kind in (ConstraintKind.ASSIGN, ConstraintKind.RENAME):
                    return False
        return all(e.role not in (Role.ERASER, Role.CREATOR) for e in self.edges)


def parent_chain(quantifiers: dict[str, Quantifier],
                 qid: str) -> tuple[list[str], bool]:
    """The ids from ``qid`` up its parent links, ending at a quantifier
    without a parent, at an id that names no quantifier, or before the
    first id met twice; the flag says whether a repeat ended the walk."""
    chain: dict[str, None] = {}  # insertion-ordered, with set lookups
    current: str | None = qid
    while current is not None and current not in chain:
        chain[current] = None
        q = quantifiers.get(current)
        current = q.parent if q is not None else None
    return list(chain), current is not None


def expand_neq(ids: list[str]) -> set[tuple[str, str]]:
    """Pairwise expansion of an injectivity declaration."""
    pairs = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pairs.add((a, b) if a <= b else (b, a))
    return pairs


def group_embargo_elements(
    nodes: dict[str, RuleNode],
    edges: list[RuleEdge],
    quantifiers: dict[str, Quantifier],
) -> dict[str, NacGroup]:
    """Partition embargo elements into NAC groups.

    Connected components of the embargo-only subgraph, except that an
    explicit group label on an embargo edge pins its component: every
    embargo edge with one label joins one group, and a union that would
    merge two differently-labelled components is skipped, so explicit
    labels override connectivity.  Unlabelled components get synthesized
    ``nacN`` ids.
    """
    Key = tuple[int, object]  # (0, node id) | (1, edge index)
    parent: dict[Key, Key] = {}
    label: dict[Key, str] = {}
    labelled: dict[str, Key] = {}  # label -> its first edge

    def find(k: Key) -> Key:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    def union(a: Key, b: Key) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        la, lb = label.get(ra), label.get(rb)
        if la is not None and lb is not None and la != lb:
            return  # explicit labels override connectivity
        parent[rb] = ra
        if la is None and lb is not None:
            label[ra] = lb

    for nid, n in nodes.items():
        if n.role is Role.EMBARGO:
            k: Key = (0, nid)
            parent[k] = k
    for i, e in enumerate(edges):
        if e.role is not Role.EMBARGO:
            continue
        k = (1, i)
        parent[k] = k
        if e.group is not None:
            label[k] = e.group
            union(labelled.setdefault(e.group, k), k)
        for endpoint in (e.src, e.tgt):
            n = nodes.get(endpoint)
            if n is not None and n.role is Role.EMBARGO:
                union((0, endpoint), k)

    components: dict[Key, list[Key]] = {}
    for k in parent:
        components.setdefault(find(k), []).append(k)

    def depth(qid: str) -> int:
        chain, repeated = parent_chain(quantifiers, qid)
        return len(chain) - 1 + repeated

    taken = set(label.values())
    groups: dict[str, NacGroup] = {}
    counter = 0
    for root in sorted(components, key=lambda r: min(components[r])):
        members = components[root]
        gid = label.get(root)
        if gid is None:
            while f"nac{counter}" in taken:
                counter += 1
            gid = f"nac{counter}"
            counter += 1
        member_nodes = tuple(sorted(k[1] for k in members if k[0] == 0))  # type: ignore[misc]
        member_edges = tuple(sorted(k[1] for k in members if k[0] == 1))  # type: ignore[misc]
        levels = [nodes[n].level for n in member_nodes]
        levels += [edges[i].level for i in member_edges]
        level = max(levels, key=lambda lv: (depth(lv), lv)) if levels else ROOT_QUANT
        groups[gid] = NacGroup(member_nodes, member_edges, level)
    return groups


#: node role -> the one attribute-constraint kind it may carry, what its
#: violation says it cannot do, the one flag role it may carry, and what
#: its violation says it can
_ROLE_LIMITS = {
    Role.CREATOR: (ConstraintKind.ASSIGN, "match or rename", Role.CREATOR,
                   "carry creator flags"),
    Role.EMBARGO: (ConstraintKind.MATCH, "assign or rename", Role.READER,
                   "require flags"),
}

#: edge role -> the endpoint roles it may not touch, and its fault if it does
_EDGE_ENDS = {
    Role.READER: ({Role.EMBARGO, Role.CREATOR}, "needs present endpoints"),
    Role.ERASER: ({Role.EMBARGO, Role.CREATOR}, "needs present endpoints"),
    Role.CREATOR: ({Role.EMBARGO}, "cannot touch embargo nodes"),
    Role.EMBARGO: ({Role.CREATOR}, "cannot touch creator nodes"),
}


def validate_rule(r: Rule, tgs: list[TypeGraph] | None = None) -> list[Violation]:
    """Full structural validation; with type graphs, also checks that every
    typed element is licensable by at least one of them."""
    v: list[Violation] = []

    # Quantifier tree shape.
    root = r.quantifiers.get(ROOT_QUANT)
    if root is None or root.parent is not None:
        v.append(Violation(f"rule {r.name!r}: malformed quantifier root"))
    for q in r.quantifiers.values():
        if q.id != ROOT_QUANT:
            if q.parent is None or q.parent not in r.quantifiers:
                v.append(Violation(
                    f"quantifier {q.id!r} has unknown parent {q.parent!r}", q.span))
        elif q.count_param is not None:
            v.append(Violation(
                f"quantifier {q.id!r}: the root cannot carry a count parameter",
                q.span))
    for q in r.quantifiers.values():
        if parent_chain(r.quantifiers, q.id)[1]:
            v.append(Violation(
                f"quantifier {q.id!r} is part of a parent cycle", q.span))

    # Nodes.
    for nid in sorted(r.nodes):
        n = r.nodes[nid]
        if n.level not in r.quantifiers:
            v.append(Violation(
                f"node {nid!r} references unknown quantifier {n.level!r}", n.span))
        if n.role in _ROLE_LIMITS:
            kind, cannot, flag_role, can = _ROLE_LIMITS[n.role]
            for a in sorted(a for a, c in n.attr_constraints.items()
                            if c.kind is not kind):
                v.append(Violation(f"{n.role.value} node {nid!r} cannot "
                                   f"{cannot} attribute {a!r}", n.span))
            for f, role in n.flag_ops:
                if role is not flag_role:
                    v.append(Violation(
                        f"{n.role.value} node {nid!r} can only {can} "
                        f"(found {role.value} {f.name!r})", n.span))
        # a name the rule writes must be one the graph text can carry
        for a, c in sorted(n.attr_constraints.items()):
            if c.kind is ConstraintKind.MATCH:
                continue
            fault = name_fault(a if c.kind is ConstraintKind.ASSIGN
                               else c.new_name, what="attribute name")
            if fault:
                v.append(Violation(f"node {nid!r}: {fault}", n.span))

    # Edges.
    for e in r.edges:
        for endpoint in (e.src, e.tgt):
            if endpoint not in r.nodes:
                v.append(Violation(
                    f"edge {e.describe()} references unknown node {endpoint!r}",
                    e.span))
        if e.level not in r.quantifiers:
            v.append(Violation(
                f"edge {e.describe()} references unknown quantifier {e.level!r}",
                e.span))
        if e.is_path() and e.role not in PATH_ROLES:
            v.append(Violation(
                f"path edge {e.describe()} must be reader or embargo, "
                f"not {e.role.value}", e.span))
        if e.group is not None and e.role is not Role.EMBARGO:
            v.append(Violation(
                f"edge {e.describe()}: only embargo edges take a NAC group",
                e.span))
        endpoints = [r.nodes.get(e.src), r.nodes.get(e.tgt)]
        if any(n is None for n in endpoints):
            continue
        banned, fault = _EDGE_ENDS[e.role]
        if banned & {n.role for n in endpoints}:  # type: ignore[union-attr]
            v.append(Violation(f"{e.role.value} edge {e.describe()} {fault}",
                               e.span))
        elif e.role is not Role.EMBARGO and e.level in r.quantifiers:
            anc = set(parent_chain(r.quantifiers, e.level)[0])
            for n in endpoints:
                if n.level not in anc:  # type: ignore[union-attr]
                    v.append(Violation(
                        f"edge {e.describe()} sits above its endpoint "
                        f"{n.id!r}", e.span))  # type: ignore[union-attr]

    # NAC groups: each is level-uniform, and its anchors are bound.
    groups = r.nac_groups
    for gid in sorted(groups):
        g = groups[gid]
        levels = {r.nodes[n].level for n in g.node_ids}
        levels |= {r.edges[i].level for i in g.edge_indexes}
        if len(levels) > 1:
            v.append(Violation(
                f"NAC group {gid!r} mixes quantifier levels "
                f"({', '.join(sorted(levels))})"))
        # Positive anchors must already be bound when the group is checked.
        if len(levels) == 1 and g.level in r.quantifiers:
            anc = set(parent_chain(r.quantifiers, g.level)[0])
            for i in g.edge_indexes:
                e = r.edges[i]
                for endpoint in (e.src, e.tgt):
                    n = r.nodes.get(endpoint)
                    if n is not None and n.role in POSITIVE_ROLES and n.level not in anc:
                        v.append(Violation(
                            f"NAC group {gid!r}: anchor {endpoint!r} is not "
                            f"bound at level {g.level!r}", e.span))

    seen_in_set: dict[str, int] = {}
    for ds in r.disjunction_sets:
        if len(ds) < 2:
            v.append(Violation("a disjunction set needs at least two NAC groups"))
        levels = set()
        for gid in ds:
            if gid not in groups:
                v.append(Violation(f"disjunction references unknown NAC group {gid!r}"))
                continue
            seen_in_set[gid] = seen_in_set.get(gid, 0) + 1
            levels.add(groups[gid].level)
        if len(levels) > 1:
            v.append(Violation(
                f"disjunction set mixes NAC group levels ({', '.join(sorted(levels))})"))
    for gid, uses in sorted(seen_in_set.items()):
        if uses > 1:
            v.append(Violation(
                f"NAC group {gid!r} belongs to more than one disjunction set"))

    # Injectivity pairs.
    for a, b in sorted(r.injectivity_pairs):
        for nid in (a, b):
            if nid not in r.nodes:
                v.append(Violation(f"injectivity pair references unknown node {nid!r}"))
        if a == b:
            v.append(Violation(f"injectivity pair {a!r} != {a!r} is unsatisfiable"))

    # Parameters: bound params plus count params must be dense from 0.
    indices: dict[int, list[str]] = {}
    for idx, (nid, attr) in sorted(r.params.items()):
        indices.setdefault(idx, []).append(f"binding {nid}.{attr}")
        if idx < 0:
            v.append(Violation(f"parameter index {idx} is negative"))
        node = r.nodes.get(nid)
        if node is None:
            v.append(Violation(f"parameter {idx} references unknown node {nid!r}"))
            continue
        if node.role is Role.EMBARGO:
            v.append(Violation(f"parameter {idx} cannot bind an embargo node"))
        if node.level != ROOT_QUANT:
            v.append(Violation(
                f"parameter {idx} binds {nid}.{attr} inside a quantifier; "
                f"parameters need a single value"))
        if node.role is Role.CREATOR:
            c = node.attr_constraints.get(attr)
            if c is None or c.kind is not ConstraintKind.ASSIGN:
                v.append(Violation(
                    f"parameter {idx} binds unassigned attribute {attr!r} of "
                    f"creator node {nid!r}"))
    for q in r.quantifiers.values():
        if q.count_param is not None:
            indices.setdefault(q.count_param, []).append(f"count of {q.id}")
            if q.count_param < 0:
                v.append(Violation(
                    f"count parameter of {q.id!r} is negative", q.span))
    for idx, uses in sorted(indices.items()):
        if len(uses) > 1:
            v.append(Violation(
                f"parameter index {idx} is used more than once "
                f"({'; '.join(uses)})"))
    if indices and sorted(indices) != list(range(len(indices))):
        v.append(Violation(
            f"parameter indices must be dense from 0, got "
            f"{sorted(indices)}"))
    holes = FORMAT_DIRECTIVE.findall(r.print_format or "").count("s")
    if holes > len(indices):
        v.append(Violation(f"rule {r.name!r}: format has more %s holes "
                           f"({holes}) than parameters ({len(indices)})"))

    if tgs:
        v.extend(_validate_against_typegraphs(r, tgs))
    return v


def _validate_against_typegraphs(r: Rule, tgs: list[TypeGraph]) -> list[Violation]:
    v: list[Violation] = []
    for nid in sorted(r.nodes):
        n = r.nodes[nid]
        t = n.type_constraint
        if t is not None:
            declaring = [tg for tg in tgs if tg.declared(t.name)]
            if not declaring:
                v.append(Violation(
                    f"node {nid!r}: type {t.name!r} is not declared in any "
                    f"enabled type graph", n.span))
            elif n.role is Role.CREATOR and all(
                    tg.types[t.name].abstract for tg in declaring):
                v.append(Violation(
                    f"creator node {nid!r}: type {t.name!r} is abstract in "
                    f"every enabled type graph", n.span))
        if t is None:
            continue  # untyped rule nodes stay unchecked
        types = [t]
        for attr in sorted(n.attr_constraints):
            c = n.attr_constraints[attr]
            if c.kind is ConstraintKind.RENAME:
                ok = (attr_licensed(tgs, types, attr, None)
                      and attr_licensed(tgs, types, c.new_name, None))
            else:
                ok = attr_licensed(tgs, types, attr, c.value.kind)
            if not ok:
                v.append(Violation(
                    f"node {nid!r}: attribute constraint on {attr!r} is not "
                    f"licensed by any enabled type graph", n.span))
    for e in r.edges:
        if e.is_path():
            continue
        src = r.nodes.get(e.src)
        tgt = r.nodes.get(e.tgt)
        if src is None or tgt is None:
            continue
        if src.type_constraint is None or tgt.type_constraint is None:
            continue
        if not edge_licensed(tgs, [src.type_constraint],
                             e.label, [tgt.type_constraint]):  # type: ignore[list-item]
            v.append(Violation(
                f"edge {e.describe()} is not licensed by any enabled type graph",
                e.span))
    return v
