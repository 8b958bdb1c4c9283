"""Type graphs: node-type declarations with inheritance, attribute
declarations and edge declarations, plus conformance checking of host
graphs against any number of simultaneously enabled type graphs.

Conformance is disjunctive: an element is fine as soon as *one* enabled
type graph licenses it.  Flags are deliberately never checked.  With no
type graph enabled nothing is enforced at all, which is what makes
untyped scratch graphs legal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

from .graph import HostGraph, HostEdge, Label, ValueKind
from .source import SourceSpan, Violation


class UnknownTypeError(Exception):
    """A subtype query referenced a type the type graph does not declare."""


@dataclass
class TypeDecl:
    abstract: bool = False
    supertypes: set[Label] = field(default_factory=set)
    attr_decls: dict[str, ValueKind] = field(default_factory=dict)
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class EdgeDecl:
    src_type: Label
    label: Label
    tgt_type: Label
    span: SourceSpan | None = field(default=None, compare=False)


@dataclass
class TypeGraph:
    """Not changed after its first query, by convention: validators and
    the conformance check never modify it, and the first query computes
    the supertype closure of every declared type once, into
    ``_closures``."""

    name: str = "typegraph"
    types: dict[str, TypeDecl] = field(default_factory=dict)
    edge_decls: list[EdgeDecl] = field(default_factory=list)
    #: type name -> its supertype closure, filled on the first query
    _closures: dict[str, frozenset[str]] | None = field(
        default=None, init=False, repr=False, compare=False)

    def declared(self, type_name: str) -> bool:
        return type_name in self.types

    def supertype_closure(self, type_name: str) -> frozenset[str]:
        """All declared ancestors of a type, the type itself included.
        Tolerates cyclic hierarchies (they are reported by validation but
        must not hang the query)."""
        if self._closures is None:
            self._closures = {name: self._walk(name) for name in self.types}
        closure = self._closures.get(type_name)
        if closure is None:
            raise UnknownTypeError(f"type {type_name!r} is not declared in {self.name!r}")
        return closure

    def _walk(self, type_name: str) -> frozenset[str]:
        seen = {type_name}
        work = [type_name]
        while work:
            for sup in self.types[work.pop()].supertypes:
                if sup.name in self.types and sup.name not in seen:
                    seen.add(sup.name)
                    work.append(sup.name)
        return frozenset(seen)


def is_subtype(tg: TypeGraph, a: Label, b: Label) -> bool:
    """Reflexive-transitive subtype test within one type graph."""
    closure = tg.supertype_closure(a.name)
    if not tg.declared(b.name):
        raise UnknownTypeError(f"type {b.name!r} is not declared in {tg.name!r}")
    return b.name in closure


def _ancestors(tg: TypeGraph, types: Iterable[Label]) -> set[str]:
    """The supertype closures of those of ``types`` that ``tg`` declares."""
    return set().union(*(tg.supertype_closure(t.name)
                         for t in types if tg.declared(t.name)))


def validate_type_graph(tg: TypeGraph) -> list[Violation]:
    """Structural validation of a single type graph.  The violation set is
    independent of declaration order."""
    violations: list[Violation] = []

    for name in sorted(tg.types):
        decl = tg.types[name]
        for sup in sorted(decl.supertypes, key=lambda lb: lb.name):
            if not tg.declared(sup.name):
                violations.append(Violation(
                    f"type {name!r} extends undeclared type {sup.name!r}",
                    decl.span,
                ))

    # One violation per inheritance cycle, reported at its smallest member:
    # a type is on a cycle when a direct supertype's closure holds it, and
    # the cycle is the part of its closure whose closures hold it too.
    for name in sorted(tg.types):
        if any(name in tg.supertype_closure(s.name)
               for s in tg.types[name].supertypes if tg.declared(s.name)):
            members = sorted(t for t in tg.supertype_closure(name)
                             if name in tg.supertype_closure(t))
            if members[0] == name:
                violations.append(Violation(
                    f"inheritance cycle: {', '.join(members)}",
                    tg.types[name].span))

    # Attribute redeclaration with a different value type, own or inherited.
    for name in sorted(tg.types):
        decl = tg.types[name]
        kinds_by_attr: dict[str, dict[ValueKind, list[str]]] = {}
        for anc in sorted(tg.supertype_closure(name)):
            for attr, kind in tg.types[anc].attr_decls.items():
                kinds_by_attr.setdefault(attr, {}).setdefault(kind, []).append(anc)
        for attr in sorted(kinds_by_attr):
            if len(kinds_by_attr[attr]) > 1:
                where = ", ".join(
                    f"{k.value} in {sorted(v)[0]!r}"
                    for k, v in sorted(kinds_by_attr[attr].items(),
                                       key=lambda kv: kv[0].value)
                )
                violations.append(Violation(
                    f"type {name!r} sees attribute {attr!r} with conflicting "
                    f"value types ({where})",
                    decl.span,
                ))

    for ed in tg.edge_decls:
        for ref in (ed.src_type, ed.tgt_type):
            if not tg.declared(ref.name):
                violations.append(Violation(
                    f"edge declaration -{ed.label.name}-> references "
                    f"undeclared type {ref.name!r}",
                    ed.span,
                ))

    return violations


def attr_licensed(
    tgs: Sequence[TypeGraph],
    types: Collection[Label],
    attr: str,
    kind: ValueKind | None,
) -> bool:
    """True when some enabled type graph declares `attr` (of `kind`, if
    given) on one of the types or an ancestor of it."""
    for tg in tgs:
        for anc in _ancestors(tg, types):
            declared = tg.types[anc].attr_decls
            if attr in declared and (kind is None or declared[attr] is kind):
                return True
    return False


def edge_licensed(
    tgs: Sequence[TypeGraph],
    src_types: Collection[Label],
    label: Label,
    tgt_types: Collection[Label],
) -> bool:
    """True when some enabled type graph has an edge declaration covering
    the given endpoint types under its own subtype relation."""
    for tg in tgs:
        srcs = _ancestors(tg, src_types)
        tgts = _ancestors(tg, tgt_types)
        if any(ed.label.name == label.name and ed.src_type.name in srcs
               and ed.tgt_type.name in tgts for ed in tg.edge_decls):
            return True
    return False


def conforms(tgs: Sequence[TypeGraph], g: HostGraph) -> list[Violation]:
    """Check a host graph against the enabled type graphs.

    An empty ``tgs`` enables nothing and therefore reports nothing.
    Adding a type graph can only remove violations, never add one.
    """
    if not tgs:
        return []
    violations: list[Violation] = []

    for nid in g.node_ids():
        node = g.nodes[nid]
        label = g.display(nid)
        for t in sorted(node.types, key=lambda lb: lb.name):
            declaring = [tg for tg in tgs if tg.declared(t.name)]
            if not declaring:
                violations.append(Violation(
                    f"node {label}: type {t.name!r} is not declared in any "
                    f"enabled type graph"))
            elif all(tg.types[t.name].abstract for tg in declaring):
                violations.append(Violation(
                    f"node {label}: type {t.name!r} is abstract in every "
                    f"enabled type graph that declares it"))
        for attr in sorted(node.attrs):
            value = node.attrs[attr]
            if not attr_licensed(tgs, node.types, attr, value.kind):
                violations.append(Violation(
                    f"node {label}: attribute {attr!r} of type "
                    f"{value.kind.value} is not declared for its types in "
                    f"any enabled type graph"))

    for e in sorted(g.edges, key=HostEdge.key):
        src = g.nodes[e.src]
        tgt = g.nodes[e.tgt]
        if not edge_licensed(tgs, src.types, e.label, tgt.types):
            violations.append(Violation(
                f"edge {g.display(e.src)} -{e.label.name}-> "
                f"{g.display(e.tgt)} is not licensed by any enabled type graph"))

    return violations
