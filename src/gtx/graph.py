"""Simple labelled host graphs.

Nodes are immutable values that carry a set of node types, a set of
boolean flags and a map of typed attribute values.  Edges are directed,
labelled, and identified solely by their ``(source, label, target)``
triple: inserting the same triple twice is a no-op, there are no parallel
edges and edges cannot carry attributes.  Deleting a node drags every
incident edge with it, so the graph can never contain a dangling edge.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import copysign
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, NamedTuple

#: A character that may not appear in a name: whitespace, or one with
#: syntactic meaning in the textual formats.  For str patterns ``\s``
#: matches exactly the characters ``str.isspace`` accepts.
_RESERVED = r"\s.\-!+=:|"
RESERVED_RE = re.compile(f"[{_RESERVED}]")
#: ... or in a label or attribute name, which the text must carry: besides
#: those, "#" starts a comment, and a node type's "," would split a type list.
_LABEL_RESERVED_RE = re.compile(f"[{_RESERVED}#]")
_NODE_TYPE_RESERVED_RE = re.compile(f"[{_RESERVED}#,]")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class KindMismatchError(Exception):
    """A label was used in a position that requires a different kind."""


class MissingNodeError(Exception):
    """An operation referenced a node id that is not in the graph."""


class LabelKind(str, Enum):  # a str, so labels hash and sort as tuples
    NODE_TYPE = "node-type"
    FLAG = "flag"
    EDGE_LABEL = "edge-label"


def utf8_encodable(s: str) -> bool:
    """Whether UTF-8 can encode ``s``, that is, it holds no lone surrogate.
    Files, certificates and output are UTF-8."""
    try:
        s.encode()
    except UnicodeEncodeError:
        return False
    return True


def name_fault(name: str, reserved: re.Pattern[str] = _LABEL_RESERVED_RE,
               what: str = "label name") -> str | None:
    """What keeps ``name`` from being one word of a text that reads back,
    or None; the message calls it ``what``.  ``reserved`` defaults to a
    flag's, an edge label's or an attribute's."""
    if not name:
        return f"{what} must be non-empty"
    if found := reserved.search(name):
        return (f"{what} {name!r} contains reserved character "
                f"{found.group()!r}")
    if name[0] == '"':  # it would read back as a string
        return f"{what} {name!r} begins with '\"'"
    if not utf8_encodable(name):
        return f"{what} must be encodable as UTF-8"
    return None


class Label(NamedTuple("_Label", [("kind", LabelKind), ("name", str)])):
    """A name with a kind; the same name may exist in every kind.

    A label is the ``(kind, name)`` pair, so it hashes, compares and sorts
    as that tuple: labels of one kind sort by name."""

    __slots__ = ()

    def __new__(cls, kind: LabelKind, name: str) -> "Label":
        fault = name_fault(name, _NODE_TYPE_RESERVED_RE if kind is
                           LabelKind.NODE_TYPE else _LABEL_RESERVED_RE)
        if fault:
            raise ValueError(fault)
        return tuple.__new__(cls, (kind, name))

    @classmethod
    def _make(cls, iterable: Iterable) -> "Label":
        # the base builds through tuple.__new__; _replace calls this too
        return cls(*iterable)

    def __repr__(self) -> str:  # keep assertion output short
        return f"{self.kind.value}:{self.name}"


# Graphs repeat a few names thousands of times: one shared Label per name.
@lru_cache(maxsize=1024)
def node_type(name: str) -> Label:
    return Label(LabelKind.NODE_TYPE, name)


@lru_cache(maxsize=1024)
def flag(name: str) -> Label:
    return Label(LabelKind.FLAG, name)


@lru_cache(maxsize=1024)
def edge_label(name: str) -> Label:
    return Label(LabelKind.EDGE_LABEL, name)


class ValueKind(Enum):
    STRING = "string"
    INT = "int"
    BOOL = "bool"
    REAL = "real"


def format_real(x: float) -> str:
    """Render a float so it reads back as the identical float and always
    contains a decimal point (the textual form requires one)."""
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("non-finite reals have no textual form")
    s = repr(float(x))  # a finite float's repr has a "." or an "e"
    if "e" in s or "E" in s:
        mantissa, _, exp = s.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exp}"
    return s


@dataclass(frozen=True)
class Value:
    """A typed attribute value.  Equality is type-strict: the int 1, the
    real 1.0 and the bool true are three distinct values.  Two values are
    equal exactly when their kinds and printed forms are, so the reals
    0.0 and -0.0 differ."""

    kind: ValueKind
    raw: object

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Value):
            return NotImplemented
        if self.kind is not other.kind or self.raw != other.raw:
            return False
        # as floats 0.0 == -0.0, but they print differently
        return self.kind is not ValueKind.REAL or (
            copysign(1.0, self.raw) == copysign(1.0, other.raw))  # type: ignore[arg-type]

    @staticmethod
    def string(s: str) -> "Value":
        if not isinstance(s, str):
            raise TypeError("string value expected")
        if not utf8_encodable(s):
            raise ValueError("string value must be encodable as UTF-8")
        return Value(ValueKind.STRING, s)

    @staticmethod
    def int_(i: int) -> "Value":
        if not isinstance(i, int) or isinstance(i, bool):
            raise TypeError("int value expected")
        if not (INT64_MIN <= i <= INT64_MAX):
            raise ValueError("int value out of 64-bit signed range")
        return Value(ValueKind.INT, i)

    @staticmethod
    def bool_(b: bool) -> "Value":
        if not isinstance(b, bool):
            raise TypeError("bool value expected")
        return Value(ValueKind.BOOL, b)

    @staticmethod
    def real(x: float) -> "Value":
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise TypeError("real value expected")
        x = float(x)
        if x != x or x in (float("inf"), float("-inf")):
            # NaN would even break value equality (NaN != NaN), and neither
            # has a textual form
            raise ValueError("real value must be finite")
        return Value(ValueKind.REAL, x)

    def to_text(self) -> str:
        """Unquoted display form, as used in printed rule output."""
        if self.kind is ValueKind.STRING:
            return str(self.raw)
        if self.kind is ValueKind.BOOL:
            return "true" if self.raw else "false"
        if self.kind is ValueKind.REAL:
            return format_real(self.raw)  # type: ignore[arg-type]
        return str(self.raw)

    def sort_key(self) -> tuple[str, str]:
        return (self.kind.value, self.to_text())


class HostEdge(NamedTuple):
    """A named ``(src, label, tgt)`` triple, equal to the plain tuple."""

    src: int
    label: Label
    tgt: int


#: The attributes of a node that has none, shared by every such node.
NO_ATTRS: Mapping[str, Value] = MappingProxyType({})


class HostNode(NamedTuple):
    """A node value.  Fields cannot be assigned, ``types`` and ``flags``
    are frozensets and ``attrs`` is never changed after construction, so
    graphs and their copies share nodes; a change to a node puts a new one
    in its graph.  Equal to the plain tuple of its fields."""

    id: int
    types: frozenset[Label] = frozenset()
    flags: frozenset[Label] = frozenset()
    attrs: Mapping[str, Value] = NO_ATTRS
    #: Serialized name; kept through parse/serialize round trips, never
    #: consulted by matching, rewriting or isomorphism.
    name: str | None = None


def _check_attr_names(names: Iterable[str]) -> None:
    for name in names:
        fault = name_fault(name, what="attribute name")
        if fault:
            raise ValueError(fault)


def _check_kinds(labels: Iterable[Label], kind: LabelKind, what: str) -> None:
    for lb in labels:
        if lb.kind is not kind:
            raise KindMismatchError(
                f"{what} requires a {kind.value} label, got {lb.kind.value} {lb.name!r}"
            )


@dataclass
class HostGraph:
    """A mutable graph of immutable nodes.  ``copy()`` shares the nodes
    and the built indexes with its source, and each mutator changes only
    the graph it is called on.  The type is safe to share between threads
    only as long as each thread works on its own copy.  Raw ``==`` is
    id-sensitive -- use :func:`gtx.explorer.isomorphic` for equality up to
    node renaming.  ``nodes`` and ``edges`` are not constructor arguments,
    so ``add_node`` never hands out a taken id.

    ``edges`` is the source of truth, but it must change only through
    its mutators: ``add_edge`` and ``remove_edge`` one edge at a time,
    ``update_edges`` in bulk, and ``delete_node_spo``.  The first
    ``adjacency``, ``successors`` or ``predecessors`` query builds an
    adjacency index from it, keyed by node and label, and only those
    methods drop the index again.  ``adjacency`` hands out the index
    itself, read-only like the type index of ``by_type``; the other two
    copy one entry into a set the caller owns.  A label is a sortable
    ``(kind, name)`` pair, so a label of another kind finds no key, and
    edges sort as triples.  Likewise the node ids, and a node's types,
    change only through ``add_node`` and ``delete_node_spo``, which drop
    the type index of ``by_type``; ``set_attr`` puts a node with the same
    types in place of the old one."""

    name: str = "g"
    nodes: dict[int, HostNode] = field(default_factory=dict, init=False)
    edges: set[HostEdge] = field(default_factory=set, init=False)
    _next_id: int = field(default=0, init=False, repr=False, compare=False)
    #: (src, label) -> targets and (tgt, label) -> sources; None until a
    #: query needs them, and again after every edge change
    _out: dict[tuple[int, Label], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _in: dict[tuple[int, Label], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    #: node type -> ids of the nodes that have it; None until a query
    #: needs it, and again after every node change
    _by_type: dict[Label, list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)

    # -- construction -------------------------------------------------

    def add_node(
        self,
        types: Iterable[Label] = (),
        flags: Iterable[Label] = (),
        name: str | None = None,
        attrs: Mapping[str, Value] | None = None,
    ) -> int:
        """Add a fresh node, holding a copy of ``attrs``, and return its
        id.  Ids are never reused.  An attribute name that the text
        cannot carry (see ``name_fault``) raises ``ValueError``."""
        types = frozenset(types)
        flags = frozenset(flags)
        _check_kinds(types, LabelKind.NODE_TYPE, "node type")
        _check_kinds(flags, LabelKind.FLAG, "flag")
        if attrs:
            _check_attr_names(attrs)
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = tuple.__new__(HostNode, (
            nid, types, flags, dict(attrs) if attrs else NO_ATTRS, name))
        self._by_type = None
        return nid

    def _check_edge(self, src: int, label: Label, tgt: int) -> None:
        if src not in self.nodes:
            raise MissingNodeError(f"edge source {src} is not in the graph")
        if tgt not in self.nodes:
            raise MissingNodeError(f"edge target {tgt} is not in the graph")
        if label.kind is not LabelKind.EDGE_LABEL:
            raise KindMismatchError(
                f"edge requires an edge-label, got {label.kind.value} {label.name!r}"
            )

    def add_edge(self, src: int, label: Label, tgt: int) -> bool:
        """Insert an edge; returns False when the triple already exists."""
        self._check_edge(src, label, tgt)
        # tuple.__new__ skips HostEdge's generated, Python-level __new__
        edge = tuple.__new__(HostEdge, (src, label, tgt))
        if edge in self.edges:
            return False
        self.edges.add(edge)
        self._out = self._in = None
        return True

    def update_edges(self, removed: Collection[HostEdge] = (),
                     added: Collection[HostEdge] = ()) -> None:
        """Remove the ``removed`` edges, then insert the ``added`` ones, as
        two set updates, and drop the adjacency index once unless both are
        empty.  Each added edge must be a :class:`HostEdge`.  When one has
        an end outside the graph or a label of another kind, nothing
        changes and the error :meth:`add_edge` would raise for it is
        raised."""
        if added:
            # one check of all ends and labels; per edge only on failure
            srcs, labels, tgts = zip(*added)
            if (not self.nodes.keys() >= {*srcs, *tgts} or any(
                    lb.kind is not LabelKind.EDGE_LABEL for lb in set(labels))):
                for edge in added:
                    self._check_edge(*edge)
        if removed or added:
            self.edges.difference_update(removed)
            self.edges.update(added)
            self._out = self._in = None

    def remove_edge(self, src: int, label: Label, tgt: int) -> bool:
        edge = (src, label, tgt)
        if edge in self.edges:
            self.edges.remove(edge)
            self._out = self._in = None
            return True
        return False

    def set_attr(self, nid: int, name: str, value: Value) -> Value | None:
        """Set an attribute, returning the value it displaced (if any).
        A name that the text cannot carry raises ``ValueError``."""
        _check_attr_names((name,))
        node = self._node(nid)
        self.nodes[nid] = node._replace(attrs={**node.attrs, name: value})
        return node.attrs.get(name)

    def get_attr(self, nid: int, name: str) -> Value | None:
        return self._node(nid).attrs.get(name)

    def delete_node_spo(self, *nids: int) -> int:
        """Delete nodes plus every edge incident to one of them, in one pass
        over the edges; returns the number of edges removed.  An edge, a
        loop included, counts once however many of its ends are deleted."""
        dead = {self._node(nid).id for nid in nids}
        incident = {e for e in self.edges if e.src in dead or e.tgt in dead}
        if incident:
            self.edges -= incident
            self._out = self._in = None
        for nid in dead:
            del self.nodes[nid]
        self._by_type = None
        return len(incident)

    # -- queries ------------------------------------------------------

    @property
    def next_id(self) -> int:
        """The id the next ``add_node`` returns."""
        return self._next_id

    def _node(self, nid: int) -> HostNode:
        node = self.nodes.get(nid)
        if node is None:
            raise MissingNodeError(f"node {nid} is not in the graph")
        return node

    def has_edge(self, src: int, label: Label, tgt: int) -> bool:
        return (src, label, tgt) in self.edges

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def _build_index(self) -> None:
        # lists, not sets: ``edges`` has no duplicate triples, and lists
        # are cheaper to build and hold
        out: dict[tuple[int, Label], list[int]] = {}
        in_: dict[tuple[int, Label], list[int]] = {}
        for src, label, tgt in self.edges:
            out.setdefault((src, label), []).append(tgt)
            in_.setdefault((tgt, label), []).append(src)
        self._out, self._in = out, in_

    def adjacency(self, inverse: bool = False
                  ) -> dict[tuple[int, Label], list[int]]:
        """``(src, label)`` -> ids of the targets of those edges, or with
        ``inverse``, ``(tgt, label)`` -> ids of the sources.  Built on the
        first query and shared until an edge changes, so the caller must
        not change it."""
        if self._out is None:
            self._build_index()
        return self._in if inverse else self._out  # type: ignore[return-value]

    def successors(self, nid: int, label: Label) -> set[int]:
        """Targets of ``label`` edges leaving ``nid``; the caller owns the
        returned set."""
        return set(self.adjacency().get((nid, label), ()))

    def predecessors(self, nid: int, label: Label) -> set[int]:
        """Sources of ``label`` edges entering ``nid``; the caller owns the
        returned set."""
        return set(self.adjacency(True).get((nid, label), ()))

    def by_type(self) -> dict[Label, list[int]]:
        """Node type -> ids of the nodes that have it.  Built on the first
        call and shared until a node changes, so the caller must not change
        it."""
        if self._by_type is None:
            typed: dict[Label, list[int]] = {}
            for nid, node in self.nodes.items():
                for t in node.types:
                    typed.setdefault(t, []).append(nid)
            self._by_type = typed
        return self._by_type

    def display(self, nid: int) -> str:
        """Human-readable node reference for diagnostics."""
        node = self.nodes.get(nid)
        if node is not None and node.name:
            return node.name
        return f"#{nid}"

    def copy(self, nodes: dict[int, HostNode] | None = None) -> "HostGraph":
        """A copy that shares every node and the built indexes, but for
        ``nodes``: held in place of the nodes with their ids, which must
        keep their types, and as new nodes from ``next_id`` on."""
        nodes = nodes or {}
        g = HostGraph(name=self.name)
        g.nodes = {nid: nodes.get(nid, n) for nid, n in self.nodes.items()}
        g.edges = set(self.edges)
        g._next_id = self._next_id
        # indexes are replaced, never edited, so sharing them is safe
        g._out, g._in, g._by_type = self._out, self._in, self._by_type
        while g._next_id in nodes:
            g.nodes[g._next_id] = nodes[g._next_id]
            g._next_id += 1
            g._by_type = None
        return g
