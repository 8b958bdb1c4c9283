"""Simple labelled host graphs.

Nodes carry a set of node types, a set of boolean flags and a map of typed
attribute values.  Edges are directed, labelled, and identified solely by
their ``(source, label, target)`` triple: inserting the same triple twice
is a no-op, there are no parallel edges and edges cannot carry attributes.
Deleting a node drags every incident edge with it, so the graph can never
contain a dangling edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import copysign
from typing import Iterable

#: Characters that may not appear in label names (they have syntactic
#: meaning in the textual formats).  Whitespace is excluded as well.
RESERVED_LABEL_CHARS = frozenset(".-!+=:|")

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


class GraphError(Exception):
    """Base class for host-graph errors."""


class KindMismatchError(GraphError):
    """A label was used in a position that requires a different kind."""


class MissingNodeError(GraphError):
    """An operation referenced a node id that is not in the graph."""


class LabelKind(Enum):
    NODE_TYPE = "node-type"
    FLAG = "flag"
    EDGE_LABEL = "edge-label"


@dataclass(frozen=True)
class Label:
    """An interned name with a kind; the same name may exist in every kind."""

    kind: LabelKind
    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("label name must be non-empty")
        for ch in self.name:
            if ch.isspace() or ch in RESERVED_LABEL_CHARS:
                raise ValueError(
                    f"label name {self.name!r} contains reserved character {ch!r}"
                )

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
    s = repr(float(x))
    if "e" in s or "E" in s:
        mantissa, _, exp = s.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        return f"{mantissa}e{exp}"
    if "." not in s:
        s += ".0"
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


@dataclass(frozen=True)
class HostEdge:
    src: int
    label: Label
    tgt: int

    def key(self) -> tuple[int, str, int]:
        return (self.src, self.label.name, self.tgt)


@dataclass
class HostNode:
    id: int
    types: set[Label] = field(default_factory=set)
    flags: set[Label] = field(default_factory=set)
    attrs: dict[str, Value] = field(default_factory=dict)
    #: Serialized name; kept through parse/serialize round trips, never
    #: consulted by matching, rewriting or isomorphism.
    name: str | None = None

    def clone(self) -> "HostNode":
        return HostNode(
            id=self.id,
            types=set(self.types),
            flags=set(self.flags),
            attrs=dict(self.attrs),
            name=self.name,
        )


def _check_kinds(labels: Iterable[Label], kind: LabelKind, what: str) -> None:
    for lb in labels:
        if lb.kind is not kind:
            raise KindMismatchError(
                f"{what} requires a {kind.value} label, got {lb.kind.value} {lb.name!r}"
            )


@dataclass
class HostGraph:
    """A mutable graph value.  ``copy()`` is a deep copy; the type is safe
    to share between threads only as long as each thread works on its own
    copy.  Raw ``==`` is id-sensitive -- use :func:`gtx.explorer.isomorphic`
    for equality up to node renaming.

    ``edges`` is the source of truth, but it must change only through
    ``add_edge``, ``remove_edge`` and ``delete_node_spo``: the first
    ``successors``/``predecessors`` query builds a label-keyed adjacency
    index from it, and only those methods drop the index again."""

    name: str = "g"
    nodes: dict[int, HostNode] = field(default_factory=dict)
    edges: set[HostEdge] = field(default_factory=set)
    _next_id: int = field(default=0, repr=False, compare=False)
    #: (src, label name) -> targets and (tgt, label name) -> sources; None
    #: until a query needs them, and again after every edge change.  Every
    #: edge label is of the edge-label kind, so the name identifies it.
    _out: dict[tuple[int, str], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _in: dict[tuple[int, str], list[int]] | None = field(
        default=None, init=False, repr=False, compare=False)

    # -- construction -------------------------------------------------

    def add_node(
        self,
        types: Iterable[Label] = (),
        flags: Iterable[Label] = (),
        name: str | None = None,
    ) -> int:
        """Add a fresh node and return its id.  Ids are never reused."""
        types = set(types)
        flags = set(flags)
        _check_kinds(types, LabelKind.NODE_TYPE, "node type")
        _check_kinds(flags, LabelKind.FLAG, "flag")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = HostNode(id=nid, types=types, flags=flags, name=name)
        return nid

    def add_edge(self, src: int, label: Label, tgt: int) -> bool:
        """Insert an edge; returns False when the triple already exists."""
        if src not in self.nodes:
            raise MissingNodeError(f"edge source {src} is not in the graph")
        if tgt not in self.nodes:
            raise MissingNodeError(f"edge target {tgt} is not in the graph")
        if label.kind is not LabelKind.EDGE_LABEL:
            raise KindMismatchError(
                f"edge requires an edge-label, got {label.kind.value} {label.name!r}"
            )
        edge = HostEdge(src, label, tgt)
        if edge in self.edges:
            return False
        self.edges.add(edge)
        self._out = self._in = None
        return True

    def remove_edge(self, src: int, label: Label, tgt: int) -> bool:
        edge = HostEdge(src, label, tgt)
        if edge in self.edges:
            self.edges.remove(edge)
            self._out = self._in = None
            return True
        return False

    def set_attr(self, nid: int, name: str, value: Value) -> Value | None:
        """Set an attribute, returning the value it displaced (if any)."""
        node = self._node(nid)
        previous = node.attrs.get(name)
        node.attrs[name] = value
        return previous

    def get_attr(self, nid: int, name: str) -> Value | None:
        return self._node(nid).attrs.get(name)

    def delete_node_spo(self, nid: int) -> int:
        """Delete a node plus every incident edge; returns the number of
        edges removed.  A loop is one edge and counts once."""
        self._node(nid)
        incident = {e for e in self.edges if e.src == nid or e.tgt == nid}
        if incident:
            self.edges -= incident
            self._out = self._in = None
        del self.nodes[nid]
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
        return HostEdge(src, label, tgt) in self.edges

    def node_ids(self) -> list[int]:
        return sorted(self.nodes)

    def _build_index(self) -> None:
        # lists, not sets: ``edges`` has no duplicate triples, and lists
        # are cheaper to build and hold
        out: dict[tuple[int, str], list[int]] = {}
        in_: dict[tuple[int, str], list[int]] = {}
        for e in self.edges:
            name = e.label.name
            ends = out.get((e.src, name))
            if ends is None:
                out[(e.src, name)] = [e.tgt]
            else:
                ends.append(e.tgt)
            ends = in_.get((e.tgt, name))
            if ends is None:
                in_[(e.tgt, name)] = [e.src]
            else:
                ends.append(e.src)
        self._out, self._in = out, in_

    def successors(self, nid: int, label: Label) -> set[int]:
        """Targets of ``label`` edges leaving ``nid``; the caller owns the
        returned set."""
        if label.kind is not LabelKind.EDGE_LABEL:
            return set()
        if self._out is None:
            self._build_index()
        return set(self._out.get((nid, label.name), ()))  # type: ignore[union-attr]

    def predecessors(self, nid: int, label: Label) -> set[int]:
        """Sources of ``label`` edges entering ``nid``; the caller owns the
        returned set."""
        if label.kind is not LabelKind.EDGE_LABEL:
            return set()
        if self._in is None:
            self._build_index()
        return set(self._in.get((nid, label.name), ()))  # type: ignore[union-attr]

    def display(self, nid: int) -> str:
        """Human-readable node reference for diagnostics."""
        node = self.nodes.get(nid)
        if node is not None and node.name:
            return node.name
        return f"#{nid}"

    def copy(self) -> "HostGraph":
        g = HostGraph(name=self.name)
        g.nodes = {nid: n.clone() for nid, n in self.nodes.items()}
        g.edges = set(self.edges)
        g._next_id = self._next_id
        return g

    def integrity_errors(self) -> list[str]:
        """Full-scan structural check; the result is empty for every graph
        produced through the public operations."""
        problems = []
        for e in sorted(self.edges, key=HostEdge.key):
            if e.src not in self.nodes:
                problems.append(f"edge {e.key()} has a dangling source")
            if e.tgt not in self.nodes:
                problems.append(f"edge {e.key()} has a dangling target")
        return problems
