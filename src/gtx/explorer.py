"""State-space exploration.

States are host graphs up to isomorphism.  A successor's exact key, node
seeds and edge set, comes from its parent's key and the change that
:func:`effect_delta` reads from the effect.  A key met before, node ids
included, names its state: the identity map is an isomorphism.  Otherwise
colour refinement relabels the graph by its stable int colours, and equal
relabelled graphs merge: at once where each colour holds one node, since
the colour map is then an isomorphism, else after an exact backtracking
check.  Only a kept state's graph is built, by :func:`apply_effect`.

One run shares one signature table, so equal seeds mean equal node data.
Each distinct node seed or signature gets an int colour and is hashed
once, to a sha colour; a kept state's printed certificate is its
relabelled graph in sha colours.  A tag is a label name plus ``>`` at an
edge's source or ``<`` at its target, so a loop gives its node both.  Per
node, a record holds the node's arc tags, sorted, and the other end of
each arc, aligned with them; it also holds each edge as a (source,
out-tag, target) triple.  Refinement and the exact check read the same
arcs.  A signature pairs each tag with its end's colour and sorts the
colours only where a tag repeats; sha colours are hashed from the same
(colour, tag) multiset, so no certificate depends on how the record is
ordered.  The exact check is iterative, so
graph size is not bounded by the recursion limit, and neighbour-local:
extending the mapping by one node costs time in that node's degree.  A
successor that keeps its parent's nodes and edges, as a flag or attribute
change does, shares its parent's record; one that creates or deletes a
node, or adds or removes an edge, builds its own.

Exploration is breadth-first and deterministic: rules fire in name order,
matches in canonical match order, and states are numbered in discovery
order.  ``max_states``/``max_depth`` bound the search; the result is
flagged as truncated whenever either limit actually cut something off.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Collection
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import HostEdge, HostGraph, HostNode
# Not called here: perfbench's self-test pins this import as a binding site.
from .matcher import find_root_matches  # noqa: F401
from .rewriter import apply_effect, applications, effect_delta
from .rules import Rule
from .source import UsageError
from .typegraph import TypeGraph


def _h(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:16]


#: a node's arc tags, sorted; the other end of each arc, aligned with them;
#: and whether a tag repeats
_Arcs = tuple[tuple[str, ...], tuple[int, ...], bool]
#: node -> its arcs, and the graph's (source, out-tag, target) triples
_Record = tuple[dict[int, _Arcs], tuple[tuple[int, str, int], ...]]


class _Table:
    """The signature table of one run.  A node's seed key, and each
    signature, map to an int colour, whose chain of keys ends at a seed:
    equal ints mean equal node data.  A signature is a colour, then a node
    of that colour's sorted tags and its ends' colours, aligned with them
    and sorted within each run of equal tags.  That is the node's (tag,
    colour) pairs in sorted order, so it is a function of their multiset.
    Each int's sha colour is hashed once, for the certificates, from its
    key's sha colours and tags joined and sorted as strings: a function of
    the same multiset, whatever order the record holds."""

    def __init__(self) -> None:
        self.ints: dict[tuple, int] = {}
        self.sha: list[str] = []
        #: label name -> its (source, target) tags, shared by every record
        self.tags: dict[str, tuple[str, str]] = {}
        #: a node's (types, flags, attribute items) -> its seed
        self.seeded: dict[tuple, int] = {}

    def seed(self, node: HostNode) -> int:
        data = (node.types, node.flags, tuple(node.attrs.items()))
        if (seed := self.seeded.get(data)) is not None:
            return seed
        # Tuples, not joined strings: a name or a value may hold a separator.
        key = (tuple(sorted(t.name for t in node.types)),
               tuple(sorted(f.name for f in node.flags)),
               tuple(sorted(node.attrs.items())))
        if key not in self.ints:
            self.ints[key] = len(self.sha)
            self.sha.append(_h("node", ",".join(key[0]), ",".join(key[1]),
                               ";".join(f"{a}={v.kind.value}:{v.to_text()}"
                                        for a, v in key[2])))
        self.seeded[data] = seed = self.ints[key]
        return seed

    def seeds(self, g: HostGraph) -> dict[int, int]:
        return {nid: self.seed(node) for nid, node in g.nodes.items()}

    def sign(self, color: int,
             sig: tuple[tuple[str, ...], tuple[int, ...]]) -> int:
        key = (color, sig)  # a pair: never a three-part seed key
        if key not in self.ints:
            self.ints[key] = len(self.sha)
            # a sha has a fixed length, so each tag stays readable
            self.sha.append(_h(self.sha[color], ",".join(sorted(
                tag + self.sha[x] for tag, x in zip(*sig)))))
        return self.ints[key]

    def refine(self, colors: dict[int, int],
               arcs: dict[int, _Arcs]) -> dict[int, int]:
        """Colour refinement from ``colors`` until no cell splits.  A round
        signs, from the last round's colours, only the cells of two or more
        nodes next to a node that the last round recoloured; an unsplit
        cell keeps its colour, each part of a split one gets :meth:`sign`'s.
        A record sorts each node's tags once, so only a node with a repeated
        tag sorts its ends' colours, within each run of that tag."""
        colors, cells = dict(colors), {}
        for nid, c in colors.items():
            cells.setdefault(c, []).append(nid)
        work = [cell for cell in cells.values() if len(cell) > 1]
        while work:
            splits, moved = [], []
            for cell in work:
                parts: dict[tuple, list[int]] = {}
                for nid in cell:
                    tags, ends, repeats = arcs[nid]
                    cols = tuple([colors[m] for m in ends])
                    if repeats:
                        cols = tuple([c for _, c in sorted(zip(tags, cols))])
                    parts.setdefault((tags, cols), []).append(nid)
                if len(parts) > 1:
                    splits.append((colors[cell[0]], parts))
            for c, parts in splits:
                for sig, part in parts.items():
                    cells[new := self.sign(c, sig)] = part
                    colors.update(dict.fromkeys(part, new))
                    moved += part
            touched = {colors[m] for nid in moved for m in arcs[nid][1]}
            work = [cells[c] for c in touched if len(cells[c]) > 1]
        return colors

    def certificate(self, key: tuple) -> str:
        # in sha colours, sorted: any table gives isomorphic graphs one string
        sha = self.sha
        return _h("graph", ",".join(sorted(sha[c] for c in key[0])),
                  ",".join(sorted(sha[a] + tag + sha[b] for a, tag, b in key[1])))


class _Shape(NamedTuple):
    """One graph's key and what the exact check needs, computed once.
    Records are comparable only when one signature table made them."""

    #: node -> int seed; equal seeds mean equal types, flags and attributes
    seeds: dict[int, int]
    #: the graph relabelled by its colours, an isomorphism invariant: the
    #: sorted colours and (source colour, out-tag, target colour) triples
    key: tuple[tuple[int, ...], tuple[tuple[int, str, int], ...]]
    #: node -> stable int colour from the run's signature table
    colors: dict[int, int]
    #: the record; one object for a state and each successor that keeps
    #: its nodes and edges (a flag or attribute change)
    arcs: _Record
    #: whether each colour holds one node
    discrete: bool


def _shape(seeds: dict[int, int], edges: Collection[HostEdge],
           table: _Table, record: _Record | None = None) -> _Shape:
    """``record``, when given, must be the record of these nodes and edges."""
    if record is None:
        arcs: dict[int, list[tuple[str, int]]] = {nid: [] for nid in seeds}
        out = []
        for src, label, tgt in edges:
            name = label.name
            tag, into = table.tags.get(name) or table.tags.setdefault(
                name, (f"{name}>", f"{name}<"))
            arcs[src].append((tag, tgt))
            arcs[tgt].append((into, src))
            out.append((src, tag, tgt))
        nodes = {}
        for nid, node_arcs in arcs.items():
            node_arcs.sort()
            tags = tuple([tag for tag, _ in node_arcs])
            nodes[nid] = (tags, tuple([m for _, m in node_arcs]),
                          len(set(tags)) < len(tags))
        record = (nodes, tuple(out))
    colors = table.refine(seeds, record[0])
    key = (tuple(sorted(colors.values())), tuple(sorted([
        (colors[src], tag, colors[tgt]) for src, tag, tgt in record[1]])))
    return _Shape(seeds, key, colors, record, len(set(key[0])) == len(key[0]))


def certificate(g: HostGraph) -> str:
    """The hash of ``g`` relabelled by its stable colours, shared by
    isomorphic graphs and by graphs that refinement cannot tell apart (a
    6-cycle and two 3-cycles).  If each colour holds one node, only graphs
    isomorphic to ``g`` share it, up to hash collisions."""
    table = _Table()
    return table.certificate(_shape(table.seeds(g), g.edges, table).key)


def _isomorphic(gs: _Shape, hs: _Shape) -> bool:
    gc, hc = gs.colors, hs.colors
    if gs.key != hs.key:
        return False

    by_color: dict[int, list[int]] = {}
    for nid, c in hc.items():
        by_color.setdefault(c, []).append(nid)
    # Most-constrained first: smallest candidate classes early.
    g_order = sorted(gc, key=lambda nid: (len(by_color[gc[nid]]), nid))
    if not g_order:
        return True
    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def compatible(a: int, b: int) -> bool:
        if gs.seeds[a] != hs.seeds[b]:
            return False
        # The arcs between a and the mapped nodes, loops included, must map
        # onto the arcs between b and their images, and onto no more.
        tags, ends, _ = gs.arcs[0][a]
        h_tags, h_ends, _ = hs.arcs[0][b]
        return sorted([(tag, b if x == a else mapping[x]) for tag, x
                       in zip(tags, ends) if x == a or x in mapping]) \
            == sorted([(tag, y) for tag, y in zip(h_tags, h_ends)
                       if y == b or y in inverse])

    # Iterative backtracking: stack[k] iterates the candidates of g_order[k].
    stack = [iter(by_color[gc[g_order[0]]])]
    while stack:
        a = g_order[len(stack) - 1]
        if a in mapping:
            del inverse[mapping.pop(a)]
        for b in stack[-1]:
            if b not in inverse and compatible(a, b):
                mapping[a] = b
                inverse[b] = a
                if len(stack) == len(g_order):
                    return True
                stack.append(iter(by_color[gc[g_order[len(stack)]]]))
                break
        else:
            stack.pop()
    return False


def isomorphic(g: HostGraph, h: HostGraph) -> bool:
    """Exact isomorphism on node structure, labels, flags and attributes."""
    table = _Table()
    return _isomorphic(_shape(table.seeds(g), g.edges, table),
                       _shape(table.seeds(h), h.edges, table))


@dataclass
class LtsState:
    index: int
    graph: HostGraph
    cert: str
    depth: int


@dataclass
class Lts:
    """A labelled transition system over graph states.

    ``states[0]`` is the start state; transitions are (source index, rule
    name, target index) with at most one entry per triple.
    """

    states: list[LtsState] = field(default_factory=list)
    transitions: list[tuple[int, str, int]] = field(default_factory=list)
    truncated: bool = False


def explore(rules: list[Rule], start: HostGraph,
            max_states: int | None = None, max_depth: int | None = None,
            tgs: list[TypeGraph] | None = None) -> Lts:
    """Breadth-first state space of ``rules`` from ``start``.

    ``max_states`` must be at least 1: the start state is always kept.
    ``max_depth`` must be at least 0; depth 0 keeps the start state alone.
    Any other bound raises ``UsageError``.
    """
    if max_states is not None and max_states < 1:
        raise UsageError(f"max_states must be at least 1, not {max_states}")
    if max_depth is not None and max_depth < 0:
        raise UsageError(f"max_depth must be at least 0, not {max_depth}")
    ordered_rules = sorted(rules, key=lambda r: r.name)
    lts = Lts()
    table = _Table()
    #: exact key of every graph met so far -> its state
    by_graph: dict[tuple[tuple[int, ...], tuple[int, ...], frozenset],
                   int] = {}
    #: key -> its states; one state where each colour holds one node
    by_key: dict[tuple, list[int]] = {}
    #: per state: its record and edges, which its successors' keys start
    #: from; None once it is expanded, if each colour holds one node
    kept: list[tuple[_Shape, frozenset[HostEdge]] | None] = []
    #: each transition once, in the order it was first met
    transitions: dict[tuple[int, str, int], None] = {}

    def intern(seeds: dict[int, int], edges: frozenset[HostEdge], depth: int,
               build: Callable[[], HostGraph], record: _Record | None = None
               ) -> int | None:
        # The identity map is an isomorphism to an identical graph.  Equal
        # tuples mean an identical graph, and as seeds are in ascending id
        # order, an identical graph gives equal tuples.
        exact = (tuple(seeds), tuple(seeds.values()), edges)
        if exact in by_graph:
            return by_graph[exact]
        shape = _shape(seeds, edges, table, record)
        for idx in by_key.get(shape.key, []):
            # Distinct colours: the colour map is the isomorphism.  Else
            # the equal key gives state idx a repeated colour too, so its
            # record is kept.
            if shape.discrete or _isomorphic(kept[idx][0], shape):
                break
        else:
            if max_states is not None and len(lts.states) >= max_states:
                return None
            idx = len(lts.states)
            lts.states.append(LtsState(idx, build(), table.certificate(shape.key),
                                       depth))
            kept.append((shape, edges))
            by_key.setdefault(shape.key, []).append(idx)
        by_graph[exact] = idx
        return idx

    intern(table.seeds(start), frozenset(start.edges), 0, start.copy)
    for state in lts.states:  # grows while it is walked: breadth first
        idx = state.index
        shape, edges = kept[idx]
        for rule, effect in ((rule, effect) for rule in ordered_rules
                             for _, effect in applications(rule, state.graph, tgs)):
            if max_depth is not None and state.depth >= max_depth:
                lts.truncated = True  # the depth bound cut this successor off
                break
            dead, removed, added, nodes = effect_delta(state.graph, effect)
            seeds = shape.seeds | {k: table.seed(n) for k, n in nodes.items()}
            for nid in dead:
                del seeds[nid]
            after = edges if not (dead or removed or added) else (
                edges.difference(removed, [e for e in edges if e.src in dead
                                           or e.tgt in dead]).union(added))
            # The same nodes and edges: the parent's record is the successor's.
            same = after is edges and len(seeds) == len(shape.seeds)
            tgt = intern(seeds, after, state.depth + 1,
                         lambda: apply_effect(state.graph, effect),
                         shape.arcs if same else None)
            if tgt is None:
                lts.truncated = True
                continue
            transitions[(idx, rule.name, tgt)] = None
        if shape.discrete:  # no later step reads its record
            kept[idx] = None
    lts.transitions = list(transitions)
    return lts


def export_lts(lts: Lts) -> str:
    """Plain-text listing: one line per state, then one per transition."""
    lines = [f"state S{s.index} {s.cert}" for s in lts.states]
    for src, rule, tgt in sorted(lts.transitions):
        lines.append(f"trans S{src} -{rule}-> S{tgt}")
    if lts.truncated:
        lines.append("truncated")
    return "\n".join(lines) + "\n"
