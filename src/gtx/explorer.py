"""State-space exploration.

States are host graphs up to isomorphism.  Deduplication is two-tier: a
cheap refinement-based certificate buckets candidate states, and an exact
backtracking isomorphism check confirms hits inside a bucket, so hash
collisions can never merge genuinely different states.

The refined colours and the adjacency (labels between each pair of nodes,
and each node's neighbours) are computed once per state and kept with it.
The exact check is iterative, so graph size is not bounded by the
recursion limit, and neighbour-local: extending the mapping by one node
costs time in that node's degree, not in the size of the mapping.

Exploration is breadth-first and deterministic: rules fire in name order,
matches in canonical match order, and states are numbered in discovery
order.  ``max_states``/``max_depth`` bound the search; the result is
flagged as truncated whenever either limit actually cut something off.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .graph import HostGraph, HostNode
# Not called here: perfbench's self-test pins this import as a binding site.
from .matcher import find_root_matches  # noqa: F401
from .rewriter import apply_effect, applications
from .rules import Rule
from .typegraph import TypeGraph


def _h(*parts: str) -> str:
    digest = hashlib.sha256("\x1f".join(parts).encode()).hexdigest()
    return digest[:16]


def _node_seed(node: HostNode) -> str:
    types = ",".join(sorted(t.name for t in node.types))
    flags = ",".join(sorted(f.name for f in node.flags))
    attrs = ";".join(f"{a}={node.attrs[a].kind.value}:{node.attrs[a].to_text()}"
                     for a in sorted(node.attrs))
    return _h("node", types, flags, attrs)


def _refine_colors(g: HostGraph) -> dict[int, str]:
    colors = {nid: _node_seed(node) for nid, node in g.nodes.items()}
    out_adj: dict[int, list[tuple[str, int]]] = {nid: [] for nid in g.nodes}
    in_adj: dict[int, list[tuple[str, int]]] = {nid: [] for nid in g.nodes}
    for e in g.edges:
        out_adj[e.src].append((e.label.name, e.tgt))
        in_adj[e.tgt].append((e.label.name, e.src))

    distinct = len(set(colors.values()))
    for _ in range(max(1, len(g.nodes))):
        new = {}
        for nid in g.nodes:
            outs = ",".join(sorted(f"{lbl}>{colors[t]}"
                                   for lbl, t in out_adj[nid]))
            ins = ",".join(sorted(f"{lbl}<{colors[s]}"
                                  for lbl, s in in_adj[nid]))
            new[nid] = _h(colors[nid], outs, ins)
        colors = new
        now_distinct = len(set(colors.values()))
        if now_distinct == distinct:
            break
        distinct = now_distinct
    return colors


class _Shape(NamedTuple):
    """What the isomorphism check needs of one graph, computed once."""

    colors: dict[int, str]
    #: (src, tgt) -> sorted names of the labels of the edges from src to tgt
    labels: dict[tuple[int, int], tuple[str, ...]]
    #: node -> the other nodes it has an edge to or from
    nbrs: dict[int, tuple[int, ...]]


def _shape(g: HostGraph) -> _Shape:
    labels: dict[tuple[int, int], list[str]] = {}
    nbrs: dict[int, set[int]] = {nid: set() for nid in g.nodes}
    for e in g.edges:
        labels.setdefault((e.src, e.tgt), []).append(e.label.name)
        if e.src != e.tgt:
            nbrs[e.src].add(e.tgt)
            nbrs[e.tgt].add(e.src)
    # Every stored state keeps its record: tuples take a quarter of the
    # memory of small sets.
    return _Shape(_refine_colors(g),
                  {pair: tuple(sorted(names))
                   for pair, names in labels.items()},
                  {nid: tuple(ns) for nid, ns in nbrs.items()})


def _certificate(g: HostGraph, shape: _Shape) -> str:
    return _h("graph", ",".join(sorted(shape.colors.values())),
              str(len(g.edges)))


def certificate(g: HostGraph) -> str:
    """Isomorphism-invariant fingerprint (equal for isomorphic graphs;
    unequal graphs collide only with hash probability)."""
    return _certificate(g, _shape(g))


def _same_node_data(a: HostNode, b: HostNode) -> bool:
    return a.types == b.types and a.flags == b.flags and a.attrs == b.attrs


def _isomorphic(g: HostGraph, gs: _Shape, h: HostGraph, hs: _Shape) -> bool:
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    gc, hc = gs.colors, hs.colors
    if sorted(gc.values()) != sorted(hc.values()):
        return False

    by_color: dict[str, list[int]] = {}
    for nid, c in hc.items():
        by_color.setdefault(c, []).append(nid)
    # Most-constrained first: smallest candidate classes early.
    g_order = sorted(g.nodes, key=lambda nid: (len(by_color[gc[nid]]), nid))
    if not g_order:
        return True
    gl, hl = gs.labels, hs.labels
    mapping: dict[int, int] = {}
    inverse: dict[int, int] = {}

    def compatible(a: int, b: int) -> bool:
        if not _same_node_data(g.nodes[a], h.nodes[b]):
            return False
        if gl.get((a, a)) != hl.get((b, b)):
            return False
        # Each mapped neighbour of a must map to a neighbour of b with the
        # same labels both ways.  Equal counts mean b has no other mapped
        # neighbour; equal edge totals imply that for a complete mapping,
        # so the count only cuts dead branches early.
        mapped = 0
        for x in gs.nbrs[a]:
            y = mapping.get(x)
            if y is None:
                continue
            if gl.get((a, x)) != hl.get((b, y)) \
                    or gl.get((x, a)) != hl.get((y, b)):
                return False
            mapped += 1
        return mapped == sum(1 for y in hs.nbrs[b] if y in inverse)

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
    return _isomorphic(g, _shape(g), h, _shape(h))


@dataclass
class LtsState:
    index: int
    graph: HostGraph
    cert: str
    depth: int
    shape: _Shape | None = field(default=None, repr=False, compare=False)


@dataclass
class Lts:
    """A labelled transition system over graph states.

    ``states[0]`` is the start state; transitions are (source index, rule
    name, target index) with at most one entry per triple.
    """

    states: list[LtsState] = field(default_factory=list)
    transitions: list[tuple[int, str, int]] = field(default_factory=list)
    truncated: bool = False

    def final_states(self) -> list[int]:
        with_out = {src for src, _, _ in self.transitions}
        return [s.index for s in self.states if s.index not in with_out]


def explore(rules: list[Rule], start: HostGraph,
            max_states: int | None = None, max_depth: int | None = None,
            tgs: list[TypeGraph] | None = None) -> Lts:
    """Breadth-first state space of ``rules`` from ``start``.

    ``max_states`` must be at least 1: the start state is always kept.
    """
    if max_states is not None and max_states < 1:
        raise ValueError(f"max_states must be at least 1, not {max_states}")
    ordered_rules = sorted(rules, key=lambda r: r.name)
    lts = Lts()
    by_cert: dict[str, list[int]] = {}
    queue: deque[int] = deque()
    seen_transitions: set[tuple[int, str, int]] = set()

    def intern(g: HostGraph, depth: int) -> int | None:
        shape = _shape(g)
        cert = _certificate(g, shape)
        for idx in by_cert.get(cert, []):
            state = lts.states[idx]
            if _isomorphic(state.graph, state.shape, g, shape):
                return idx
        if max_states is not None and len(lts.states) >= max_states:
            return None
        idx = len(lts.states)
        lts.states.append(LtsState(idx, g, cert, depth, shape))
        by_cert.setdefault(cert, []).append(idx)
        queue.append(idx)
        return idx

    intern(start.copy(), 0)
    while queue:
        idx = queue.popleft()
        state = lts.states[idx]
        if max_depth is not None and state.depth >= max_depth:
            if any(True for rule in ordered_rules
                   for _ in applications(rule, state.graph, tgs)):
                lts.truncated = True
            continue
        for rule in ordered_rules:
            for _, effect in applications(rule, state.graph, tgs):
                successor = apply_effect(state.graph, effect)
                tgt = intern(successor, state.depth + 1)
                if tgt is None:
                    lts.truncated = True
                    continue
                key = (idx, rule.name, tgt)
                if key not in seen_transitions:
                    seen_transitions.add(key)
                    lts.transitions.append(key)
    return lts


def export_lts(lts: Lts) -> str:
    """Plain-text listing: one line per state, then one per transition."""
    lines = [f"state S{s.index} {s.cert}" for s in lts.states]
    for src, rule, tgt in sorted(lts.transitions):
        lines.append(f"trans S{src} -{rule}-> S{tgt}")
    if lts.truncated:
        lines.append("truncated")
    return "\n".join(lines) + "\n"
