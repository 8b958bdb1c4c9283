"""Seeded inputs and their expected answers, computed without gtx.

Every answer here comes from the generator's own data: the edge list of a
nodified graph (a graph stored as data, where each edge is an ``Edge``
node pointing at its ends through ``src`` and ``trg``) or the bitmask of
marked ring positions.  Nothing in this module imports gtx, so an engine
bug cannot make its own check pass.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class NodifiedGraph:
    """Nodes ``n1..nN`` and edge nodes ``e1..eM``; ``ends[j-1]`` holds the
    node numbers that ``ej`` points at through src and trg (None when the
    reference is missing)."""

    name: str
    nodes: int
    ends: tuple[tuple[int | None, int | None], ...]


def random_nodified(rng: random.Random, nodes: int, edges: int,
                    p_missing: float = 0.0, name: str = "g") -> NodifiedGraph:
    """Uniformly random ends, loops allowed; with probability ``p_missing``
    an edge node lacks one of its two references."""
    ends = []
    for _ in range(edges):
        src: int | None = rng.randint(1, nodes)
        trg: int | None = rng.randint(1, nodes)
        if rng.random() < p_missing:
            if rng.random() < 0.5:
                src = None
            else:
                trg = None
        ends.append((src, trg))
    return NodifiedGraph(name, nodes, tuple(ends))


def nodified_gst(g: NodifiedGraph) -> str:
    """The ``.gst`` text of ``g``: a ``Graph`` node ``gr`` owning every node
    (``-nodes->``) and edge node (``-edges->``); each node's ``name``
    attribute equals its own name."""
    lines = [f"graph {g.name}", "node gr : Graph"]
    for i in range(1, g.nodes + 1):
        lines += [f"node n{i} : Node", f'attr n{i}.name = "n{i}"',
                  f"edge gr -nodes-> n{i}"]
    for j, (src, trg) in enumerate(g.ends, start=1):
        lines += [f"node e{j} : Edge", f"edge gr -edges-> e{j}"]
        if src is not None:
            lines.append(f"edge e{j} -src-> n{src}")
        if trg is not None:
            lines.append(f"edge e{j} -trg-> n{trg}")
    return "\n".join(lines) + "\n"


def count_answers(g: NodifiedGraph) -> dict[str, str]:
    """Printed output of each counting rule on ``g``.

    ``cycles3`` counts ordered three-cycles of distinct nodes over the
    linked relation (pairs joined by a complete edge node), so each cycle
    counts once per rotation and parallel edges do not multiply it.
    """
    complete = [(s, t) for s, t in g.ends if s is not None and t is not None]
    linked = set(complete)
    succ: dict[int, set[int]] = {}
    for s, t in linked:
        succ.setdefault(s, set()).add(t)
    cycles3 = sum(
        1
        for x, y in linked if x != y
        for z in succ.get(y, ()) if z not in (x, y) and (z, x) in linked)
    touched = {x for pair in g.ends for x in pair if x is not None}
    loops = sum(1 for s, t in complete if s == t)
    dangling = len(g.ends) - len(complete)
    isolated = g.nodes - len(touched)
    return {
        "countNodes": f"{g.nodes} nodes",
        "countLoopingEdges": f"{loops} looping edges",
        "countIsolatedNodes": f"{isolated} isolated nodes",
        "countDanglingEdges": f"{dangling} dangling edges",
        "countCyclesOfThree": f"{cycles3} cycles of three nodes",
    }


def migrated_lines(g: NodifiedGraph) -> Counter:
    """Lines of ``g`` after ``migrateToGraphComponent``, in any order.

    Every node and edge node hangs off ``gr`` through one ``-gcs->`` edge
    and no ``-nodes->`` or ``-edges->`` edge is left; each node's ``name``
    became ``text`` and each edge node gained ``text = ""``.
    """
    lines = [f"graph {g.name}", "node gr : Graph"]
    for i in range(1, g.nodes + 1):
        lines += [f"node n{i} : Node", f'attr n{i}.text = "n{i}"',
                  f"edge gr -gcs-> n{i}"]
    for j, (src, trg) in enumerate(g.ends, start=1):
        lines += [f"node e{j} : Edge", f'attr e{j}.text = ""',
                  f"edge gr -gcs-> e{j}"]
        if src is not None:
            lines.append(f"edge e{j} -src-> n{src}")
        if trg is not None:
            lines.append(f"edge e{j} -trg-> n{trg}")
    return Counter(lines)


def ring_gst(size: int, marks: set[int]) -> str:
    """A directed nodified ring ``v0 -> v1 -> ... -> v0`` owned by a
    ``Ring`` node; positions in ``marks`` carry the flag ``marked``."""
    lines = ["graph ring", "node r : Ring"]
    for i in range(size):
        flag = " flag marked" if i in marks else ""
        lines += [f"node v{i} : Node{flag}", f"edge r -nodes-> v{i}",
                  f"node a{i} : Edge", f"edge r -edges-> a{i}",
                  f"edge a{i} -src-> v{i}",
                  f"edge a{i} -trg-> v{(i + 1) % size}"]
    return "\n".join(lines) + "\n"


def necklace_lts(size: int, marks: set[int]) -> tuple[int, int]:
    """States and transitions of ``markOne`` explored from a ring.

    A state is a marking up to rotation, kept as its least rotation; each
    state has one transition per distinct state reached by marking one
    unmarked position.  Breadth-first over these canonical bitmasks.
    """
    full = (1 << size) - 1

    def canonical(mask: int) -> int:
        return min(((mask >> k) | (mask << (size - k))) & full
                   for k in range(size))

    start = canonical(sum(1 << i for i in marks))
    seen = {start}
    frontier = [start]
    transitions = 0
    while frontier:
        nxt = []
        for mask in frontier:
            targets = {canonical(mask | (1 << i))
                       for i in range(size) if not mask >> i & 1}
            transitions += len(targets)
            for t in targets - seen:
                seen.add(t)
                nxt.append(t)
        frontier = nxt
    return len(seen), transitions
