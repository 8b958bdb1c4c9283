"""State-space exploration.

States are host graphs up to isomorphism, and each new graph meets three
tiers.  A graph identical to one met before, node ids included, is that
graph's state: the identity map is an isomorphism.  Otherwise integer
colour refinement buckets it with the states of equal colours and edge
count, and an exact backtracking check confirms any merge in the bucket,
so a colour collision can never merge genuinely different states.

One run shares one signature table.  Each distinct node seed or round
signature gets an int colour and is hashed once, to the sha colour that
the printed certificate of a kept state is made of.  A state keeps its
colours and adjacency.  The exact check is iterative, so graph size is
not bounded by the recursion limit, and neighbour-local: extending the
mapping by one node costs time in that node's degree.

Exploration is breadth-first and deterministic: rules fire in name order,
matches in canonical match order, and states are numbered in discovery
order.  ``max_states``/``max_depth`` bound the search; the result is
flagged as truncated whenever either limit actually cut something off.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
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


class _Table:
    """The signature table of one run.  A node's seed key, and each round's
    signature (own colour, then its sorted (neighbour colour, label code)
    pairs, flattened), map to an int colour.  When an int is made its sha
    colour is hashed once, from the sha colours the signature is built of,
    so equal ints mean equal sha colours in every graph of the run."""

    def __init__(self) -> None:
        self.ints: dict[tuple, int] = {}
        self.sha: list[str] = []
        #: label name -> out-edge code (even); the in-edge code is one more
        self.codes: dict[str, int] = {}

    def seed(self, node: HostNode) -> int:
        # Tuples, not joined strings: a name or a value may hold a separator.
        key = (tuple(sorted(t.name for t in node.types)),
               tuple(sorted(f.name for f in node.flags)),
               tuple(sorted(node.attrs.items())))
        if key not in self.ints:
            self.ints[key] = len(self.sha)
            self.sha.append(_h("node", ",".join(key[0]), ",".join(key[1]),
                               ";".join(f"{a}={v.kind.value}:{v.to_text()}"
                                        for a, v in key[2])))
        return self.ints[key]

    def refine(self, colors: dict[int, int],
               adj: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
        """Colour refinement from ``colors`` until no class splits."""
        ints, sha, names = self.ints, self.sha, list(self.codes)
        distinct = len(set(colors.values()))
        for _ in range(max(1, len(colors))):
            new = {}
            for nid, pairs in adj.items():
                sig = (colors[nid], *chain.from_iterable(
                    sorted([(colors[m], k) for m, k in pairs])))
                c = ints.get(sig)
                if c is None:
                    arcs = list(zip(sig[1::2], sig[2::2]))
                    outs = ",".join(sorted(f"{names[k >> 1]}>{sha[x]}"
                                           for x, k in arcs if not k & 1))
                    ins = ",".join(sorted(f"{names[k >> 1]}<{sha[x]}"
                                          for x, k in arcs if k & 1))
                    ints[sig] = c = len(sha)
                    sha.append(_h(sha[sig[0]], outs, ins))
                new[nid] = c
            colors, before, distinct = new, distinct, len(set(new.values()))
            if distinct == before:
                break
        return colors

    def certificate(self, shape: "_Shape", edges: int) -> str:
        colors = sorted(self.sha[c] for c in shape.colors.values())
        return _h("graph", ",".join(colors), str(edges))


class _Shape(NamedTuple):
    """What the isomorphism check needs of one graph, computed once."""

    #: node -> int colour from the run's signature table
    colors: dict[int, int]
    #: (src, tgt) -> sorted names of the labels of the edges from src to tgt
    labels: dict[tuple[int, int], tuple[str, ...]]
    #: node -> the other nodes it has an edge to or from
    nbrs: dict[int, tuple[int, ...]]


def _shape(g: HostGraph, table: _Table | None = None,
           seeds: dict[int, int] | None = None) -> _Shape:
    table = table or _Table()
    seeds = seeds or {nid: table.seed(node) for nid, node in g.nodes.items()}
    adj: dict[int, list[tuple[int, int]]] = {nid: [] for nid in g.nodes}
    labels: dict[tuple[int, int], list[str]] = {}
    nbrs: dict[int, set[int]] = {nid: set() for nid in g.nodes}
    for e in g.edges:
        code = table.codes.setdefault(e.label.name, 2 * len(table.codes))
        adj[e.src].append((e.tgt, code))
        adj[e.tgt].append((e.src, code + 1))
        labels.setdefault((e.src, e.tgt), []).append(e.label.name)
        if e.src != e.tgt:
            nbrs[e.src].add(e.tgt)
            nbrs[e.tgt].add(e.src)
    # Every stored state keeps its record: tuples take a quarter of the
    # memory of small sets.
    return _Shape(table.refine(seeds, adj),
                  {pair: tuple(sorted(names))
                   for pair, names in labels.items()},
                  {nid: tuple(ns) for nid, ns in nbrs.items()})


def certificate(g: HostGraph) -> str:
    """Isomorphism-invariant fingerprint (equal for isomorphic graphs;
    unequal graphs collide only with hash probability)."""
    table = _Table()
    return table.certificate(_shape(g, table), len(g.edges))


def _isomorphic(g: HostGraph, gs: _Shape, h: HostGraph, hs: _Shape) -> bool:
    if len(g.nodes) != len(h.nodes) or len(g.edges) != len(h.edges):
        return False
    gc, hc = gs.colors, hs.colors
    if sorted(gc.values()) != sorted(hc.values()):
        return False

    by_color: dict[int, list[int]] = {}
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
        na, nb = g.nodes[a], h.nodes[b]
        if na.types != nb.types or na.flags != nb.flags or na.attrs != nb.attrs:
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
    table = _Table()
    return _isomorphic(g, _shape(g, table), h, _shape(h, table))


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
    ``max_depth`` must be at least 0; depth 0 keeps the start state alone.
    """
    if max_states is not None and max_states < 1:
        raise ValueError(f"max_states must be at least 1, not {max_states}")
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, not {max_depth}")
    ordered_rules = sorted(rules, key=lambda r: r.name)
    lts = Lts()
    table = _Table()
    #: exact key of every graph met so far -> its state
    by_graph: dict[tuple[frozenset, frozenset], int] = {}
    by_bucket: dict[tuple[tuple[int, ...], int], list[int]] = {}
    queue: deque[int] = deque()
    seen_transitions: set[tuple[int, str, int]] = set()

    def intern(g: HostGraph, depth: int) -> int | None:
        seeds = {nid: table.seed(node) for nid, node in g.nodes.items()}
        # The identity map is an isomorphism to an identical graph.
        exact = (frozenset(seeds.items()), frozenset(g.edges))
        if exact in by_graph:
            return by_graph[exact]
        shape = _shape(g, table, seeds)
        bucket = (tuple(sorted(shape.colors.values())), len(g.edges))
        for idx in by_bucket.get(bucket, []):
            state = lts.states[idx]
            if _isomorphic(state.graph, state.shape, g, shape):
                break
        else:
            if max_states is not None and len(lts.states) >= max_states:
                return None
            idx = len(lts.states)
            lts.states.append(LtsState(idx, g, table.certificate(
                shape, len(g.edges)), depth, shape))
            by_bucket.setdefault(bucket, []).append(idx)
            queue.append(idx)
        by_graph[exact] = idx
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
