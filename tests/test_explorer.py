"""State-space exploration: certificates, isomorphism, BFS and dedup."""

from __future__ import annotations

import hashlib
import importlib
import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gtx
from gtx import cli, explorer
from gtx.dsl import load_grammar_dir, parse_graph, parse_rule, serialize_graph
from gtx.explorer import (
    _h,
    _isomorphic,
    _shape,
    _Table,
    certificate,
    explore,
    export_lts,
    isomorphic,
)
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
from gtx.source import UsageError
from gtx.suite import load_fixture_grammar

E = edge_label


def cycle(n: int, label: str = "e") -> HostGraph:
    g = HostGraph(f"c{n}")
    ids = [g.add_node() for _ in range(n)]
    for i, nid in enumerate(ids):
        g.add_edge(nid, E(label), ids[(i + 1) % n])
    return g


def two_three_cycles() -> HostGraph:
    g = HostGraph("c33")
    ids = [g.add_node() for _ in range(6)]
    for base in (0, 3):
        for i in range(3):
            g.add_edge(ids[base + i], E("e"), ids[base + (i + 1) % 3])
    return g


def relabelled(g: HostGraph, rng: random.Random) -> HostGraph:
    """The same graph rebuilt with node ids assigned in a shuffled order."""
    out = HostGraph(g.name)
    order = g.node_ids()
    rng.shuffle(order)
    mapping = {}
    for old in order:
        node = g.nodes[old]
        mapping[old] = out.add_node(node.types, node.flags, name=node.name)
        for attr, value in node.attrs.items():
            out.set_attr(mapping[old], attr, value)
    for e in g.edges:
        out.add_edge(mapping[e.src], e.label, mapping[e.tgt])
    return out


# -- certificates ------------------------------------------------------


ident = st.sampled_from(["a", "b", "c"])


@st.composite
def scrambled_pair(draw):
    g = HostGraph("g")
    n = draw(st.integers(1, 6))
    for _ in range(n):
        nid = g.add_node(
            types=[node_type(t.upper()) for t in draw(
                st.lists(ident, max_size=2, unique=True))],
            flags=[flag(f) for f in draw(
                st.lists(ident, max_size=1, unique=True))])
        if draw(st.booleans()):
            g.set_attr(nid, "v", Value.int_(draw(st.integers(0, 2))))
    ids = g.node_ids()
    for _ in range(draw(st.integers(0, 8))):
        g.add_edge(draw(st.sampled_from(ids)), E(draw(ident)),
                   draw(st.sampled_from(ids)))
    seed = draw(st.integers(0, 2**16))
    return g, relabelled(g, random.Random(seed))


@settings(max_examples=80, deadline=None)
@given(scrambled_pair())
def test_certificate_ignores_node_identity(pair):
    g, h = pair
    assert certificate(g) == certificate(h)
    assert isomorphic(g, h)


def test_certificate_separates_easy_cases():
    assert certificate(cycle(3)) != certificate(cycle(4))
    flagged = parse_graph("graph g\nnode a flag on\n")
    plain = parse_graph("graph g\nnode a\n")
    assert certificate(flagged) != certificate(plain)
    attred = parse_graph("graph g\nnode a\nattr a.v = 1\n")
    attred2 = parse_graph("graph g\nnode a\nattr a.v = 2\n")
    assert certificate(attred) != certificate(attred2)


# -- golden certificates: the printed form must not drift ----------------


GOLDEN_FIXTURE_CERTS = {
    "counting": "3ee0afce03476ff2",
    "deletion": "3ee0afce03476ff2",
    "greeting": "d0856170f6f1cc8c",
    "hello": "727ecf674a7231e6",
    "migration_gc": "3ee0afce03476ff2",
    "migration_topo": "1422980443a998a6",
    "reverse": "1aa73c0dd1ac8d69",
    "transitive": "ad55a5224edb74f1",
}

GOLDEN_GRAPH_CERTS = [
    ("graph g\nnode a : T flag f\nnode b flag f flag g\nedge a -e-> b\n"
     "edge b -e-> b\n", "24eb5bd5cd9a2031"),
    ('graph g\nnode a : T\nattr a.s = "hi there"\nattr a.i = -3\n'
     "attr a.b = true\nattr a.r = 2.5e-07\nnode b\nattr b.r = -0.0\n"
     "edge a -x-> b\nedge b -y-> a\n", "fab44c1a9a4af258"),
    ("graph g\nnode a\nattr a.r = 0.0\n", "0873f025182eaff4"),
    ("graph g\nnode a\nattr a.r = -0.0\n", "40879d987502f654"),
    # a label name may end in an arrow's direction character
    ("graph g\nnode a : A\nnode b : B\nedge a -x<-> b\nedge a -x-> b\n",
     "828f87be9d5b175f"),
]


def test_fixture_start_certificates_are_pinned():
    for name, cert in GOLDEN_FIXTURE_CERTS.items():
        assert certificate(load_fixture_grammar(name).start) == cert, name


@pytest.mark.parametrize("text, cert", GOLDEN_GRAPH_CERTS)
def test_flagged_and_attributed_certificates_are_pinned(text, cert):
    assert certificate(parse_graph(text)) == cert


@pytest.mark.parametrize("label, reversed_cert", [
    ("x<", "ec0a23f1e4223dd2"), ("x>", "59c7de7f07beba6a")], ids=["x<", "x>"])
def test_a_label_ending_in_a_direction_character_keeps_its_direction(
        label, reversed_cert):
    # a tag's direction is its last character, whatever the label name ends
    # in: the same edge reversed gives another graph
    def graph(src: str, tgt: str) -> HostGraph:
        return parse_graph(f"graph g\nnode a : A\nnode b : B\n"
                           f"edge {src} -{label}-> {tgt}\nedge a -x-> b\n")

    g, h = graph("a", "b"), graph("b", "a")
    assert certificate(h) == reversed_cert != certificate(g)
    assert not isomorphic(g, h)
    assert not _isomorphic(*uniform(g, h))


RING_GRAMMAR = (Path(__file__).resolve().parents[1]
                / "perfbench" / "grammars" / "ring")


def marked_ring(size: int, marks: set[int]) -> str:
    """A nodified ring as the ``ring`` grammar expects it."""
    lines = ["graph ring", "node r : Ring"]
    for i in range(size):
        mark = " flag marked" if i in marks else ""
        lines += [f"node v{i} : Node{mark}", f"edge r -nodes-> v{i}",
                  f"node a{i} : Edge", f"edge r -edges-> a{i}",
                  f"edge a{i} -src-> v{i}",
                  f"edge a{i} -trg-> v{(i + 1) % size}"]
    return "\n".join(lines) + "\n"


GOLDEN_RING_LTS = """\
state S0 dd8513ab37035aba
state S1 51be50c496aed866
state S2 7f414ee40b0e8458
state S3 3ac9682c93a6fbf7
state S4 d76f4d15c4dc6118
state S5 d739eafdf036c9be
state S6 2e4929b0bbe4c50e
state S7 6a14e44b76a0461a
state S8 304fb8aa56f93040
state S9 c524b84200cc6abf
state S10 b989e195bead5abb
state S11 a7913d75d2e867ba
state S12 73820cea6547139e
trans S0 -markOne-> S1
trans S0 -markOne-> S2
trans S0 -markOne-> S3
trans S1 -markOne-> S4
trans S1 -markOne-> S5
trans S1 -markOne-> S6
trans S2 -markOne-> S4
trans S2 -markOne-> S5
trans S2 -markOne-> S6
trans S2 -markOne-> S7
trans S3 -markOne-> S5
trans S3 -markOne-> S6
trans S4 -markOne-> S8
trans S4 -markOne-> S9
trans S5 -markOne-> S8
trans S5 -markOne-> S9
trans S5 -markOne-> S10
trans S6 -markOne-> S8
trans S6 -markOne-> S9
trans S6 -markOne-> S10
trans S7 -markOne-> S9
trans S8 -markOne-> S11
trans S9 -markOne-> S11
trans S10 -markOne-> S11
trans S11 -markOne-> S12
"""


def test_marked_ring_exploration_is_pinned():
    grammar = load_grammar_dir(str(RING_GRAMMAR))
    lts = explore(list(grammar.rules.values()),
                  parse_graph(marked_ring(6, {0})), tgs=grammar.type_graphs)
    assert export_lts(lts) == GOLDEN_RING_LTS


def test_explore_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the buckets hold run-local ints, the printed certs sorted shas
    ring = tmp_path / "ring7.gst"
    ring.write_text(marked_ring(7, {0, 3}), encoding="utf-8")
    src = str(Path(gtx.__file__).resolve().parents[1])
    fixture = Path(gtx.__file__).resolve().parent / "fixtures/helloworld/transitive"
    for args in (["explore", str(RING_GRAMMAR), "--graph", str(ring)],
                 ["explore", str(fixture)]):
        outs = set()
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), GTX_COLOR="never",
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-m", "gtx", *args],
                                 env=env, capture_output=True)
            assert run.returncode == 0, run.stderr
            outs.add(run.stdout)
        (out,) = outs
        assert out.startswith(b"state S0 ")


# -- exact isomorphism -------------------------------------------------


def test_regular_graphs_defeat_refinement_but_not_the_checker():
    # one 6-cycle vs two 3-cycles: every node looks identical locally,
    # so colour refinement alone cannot tell them apart
    c6 = cycle(6)
    c33 = two_three_cycles()
    assert len(c6.nodes) == len(c33.nodes)
    assert len(c6.edges) == len(c33.edges)
    assert not isomorphic(c6, c33)


def test_certificate_is_a_colour_refinement_invariant():
    # colour refinement cannot tell these two apart, so neither can the
    # certificate; explore never merges on the certificate alone
    c6, c33 = cycle(6), two_three_cycles()
    assert certificate(c6) == certificate(c33)
    assert not isomorphic(c6, c33)
    assert not _isomorphic(*uniform(c6, c33))


def test_isomorphism_is_exact_on_structure_and_data():
    base = "graph g\nnode a : T flag f\nnode b\nedge a -e-> b\n"
    g = parse_graph(base)
    assert isomorphic(g, parse_graph(base))
    assert not isomorphic(g, parse_graph(
        "graph g\nnode a : T flag f\nnode b\nedge b -e-> a\n"))
    assert not isomorphic(g, parse_graph(
        "graph g\nnode a : T\nnode b\nedge a -e-> b\n"))
    assert not isomorphic(g, parse_graph(
        "graph g\nnode a : T flag f\nnode b\nedge a -x-> b\n"))


def test_isomorphism_counts_parallel_structure():
    two_loops = parse_graph("graph g\nnode a\nedge a -e-> a\nedge a -f-> a\n")
    one_loop = parse_graph("graph g\nnode a\nedge a -e-> a\n")
    assert not isomorphic(two_loops, one_loop)


def test_names_do_not_matter_for_isomorphism():
    g = parse_graph("graph g\nnode alice\n")
    h = parse_graph("graph g\nnode bob\n")
    assert isomorphic(g, h)
    assert certificate(g) == certificate(h)


def test_isomorphism_scales_past_the_recursion_limit():
    g = HostGraph("g")
    for _ in range(2000):
        g.add_node()
    h = g.copy()
    started = time.monotonic()
    assert isomorphic(g, h)
    nid = h.node_ids()[1000]
    h.nodes[nid] = h.nodes[nid]._replace(flags=frozenset({flag("f")}))
    assert not isomorphic(g, h)
    assert time.monotonic() - started < 1.0


# -- brute-force differential test of the exact check --------------------


def brute_isomorphic(g: HostGraph, h: HostGraph) -> bool:
    """Try every bijection of node ids."""
    if len(g.nodes) != len(h.nodes):
        return False
    gids = g.node_ids()
    target = {(e.src, e.label, e.tgt) for e in h.edges}
    for image in itertools.permutations(h.node_ids()):
        m = dict(zip(gids, image))
        if all(g.nodes[a].types == h.nodes[b].types
               and g.nodes[a].flags == h.nodes[b].flags
               and g.nodes[a].attrs == h.nodes[b].attrs
               for a, b in m.items()) \
                and {(m[e.src], e.label, m[e.tgt]) for e in g.edges} == target:
            return True
    return False


def random_graph(rng: random.Random, n: int, labels: list[str],
                 plain: bool) -> HostGraph:
    """At most 6 nodes; ``plain`` graphs carry no node data, so colour
    refinement separates little and the backtracking does the work."""
    g = HostGraph("g")
    for _ in range(n):
        nid = g.add_node(
            types=[] if plain or rng.random() < 0.5
            else [node_type(rng.choice("AB"))],
            flags=[] if plain or rng.random() < 0.7 else [flag("f")])
        if not plain and rng.random() < 0.3:
            g.set_attr(nid, "v", Value.int_(rng.randint(0, 1)))
    ids = g.node_ids()
    for _ in range(rng.randint(0, 2 * n) if labels else 0):
        g.add_edge(rng.choice(ids), E(rng.choice(labels)), rng.choice(ids))
    return g


def perturbed(g: HostGraph, rng: random.Random, kind: str) -> HostGraph | None:
    """A copy of ``g`` with one change of the given kind, or None when
    ``g`` offers nothing to change.  A node is a value: a flag change puts
    a new node in its place, and a type change a new node under a new id,
    through ``add_node``, so that the copy's type index is rebuilt."""
    out = g.copy()
    nid = rng.choice(out.node_ids())
    node = out.nodes[nid]
    edges = sorted(out.edges)
    if kind == "flag":
        out.nodes[nid] = node._replace(flags=node.flags ^ {flag("f")})
    elif kind == "type":
        new = out.add_node(node.types ^ {node_type("A")}, node.flags,
                           node.name, node.attrs)
        for e in edges:
            if nid in (e.src, e.tgt):
                out.add_edge(new if e.src == nid else e.src, e.label,
                             new if e.tgt == nid else e.tgt)
        out.delete_node_spo(nid)
    elif kind == "attr":
        old = node.attrs.get("v")
        out.set_attr(nid, "v", Value.int_(2 if old is None else 1 - old.raw))
    elif not edges:
        return None
    else:
        e = rng.choice(edges)
        out.remove_edge(e.src, e.label, e.tgt)
        if kind == "retarget":
            out.add_edge(e.src, e.label, rng.choice(out.node_ids()))
        elif kind == "relabel":
            out.add_edge(e.src, E(e.label.name + "x"), e.tgt)
    return out


def differential_pairs():
    rng = random.Random(2006)
    for _ in range(150):
        n = rng.randint(1, 6)
        labels = ["e", "f", "g"][:rng.randint(0, 3)]
        plain = rng.random() < 0.5
        g = random_graph(rng, n, labels, plain)
        yield g, relabelled(g, rng)
        for kind in ("flag", "type", "attr", "remove", "retarget", "relabel"):
            h = perturbed(g, rng, kind)
            if h is not None:
                yield g, relabelled(h, rng)
        # an independent graph of the same size, often isomorphic when
        # there are few labels and no node data
        yield g, random_graph(rng, n, labels, plain)
    yield cycle(6), two_three_cycles()


def uniform(*graphs: HostGraph) -> list:
    """The records of ``graphs`` with every node given the same colour, as
    if every certificate collided: the exact check must not need
    refinement.  Each key is that colouring's, so it holds only the node
    count and the edge labels.  One signature table makes them all, since
    seeds from two tables are not comparable."""
    table = _Table()
    return [_shape(table.seeds(g), g.edges, table)._replace(
        colors=dict.fromkeys(g.nodes, ""),
        key=(("",) * len(g.nodes),
             tuple(sorted(("", e.label.name + ">", "") for e in g.edges))))
        for g in graphs]


def discrete(g: HostGraph) -> bool:
    """Whether colour refinement gives every node of ``g`` its own colour."""
    table = _Table()
    colors = _shape(table.seeds(g), g.edges, table).colors
    return len(set(colors.values())) == len(colors)


def test_isomorphic_agrees_with_brute_force():
    verdicts, named = [], 0
    for g, h in differential_pairs():
        expected = brute_isomorphic(g, h)
        assert isomorphic(g, h) == expected
        assert isomorphic(h, g) == expected
        assert _isomorphic(*uniform(g, h)) == expected
        if expected:
            assert certificate(g) == certificate(h)
        # one node per colour: the certificate names the graph
        if discrete(g) and discrete(h) and certificate(g) == certificate(h):
            assert expected
            named += 1
        verdicts.append(expected)
    # both answers are exercised, and not only by the relabelled copies
    assert verdicts.count(True) > 200
    assert verdicts.count(False) > 300
    assert named > 100


# -- differential test of the worklist refinement ------------------------


def reference_refine(g: HostGraph) -> tuple[dict[int, str], str]:
    """Round-by-round colour refinement with sha colours and no table:
    every node is re-signed each round from its own colour and its
    neighbours', until the number of colours stops growing.  Returns the
    last round's colours and the certificate made of them, which is the
    certificate gtx printed before it refined by worklist."""
    table = _Table()
    colors = {nid: table.sha[c] for nid, c in table.seeds(g).items()}
    arcs: dict[int, list[tuple[int, str]]] = {nid: [] for nid in g.nodes}
    for src, label, tgt in g.edges:
        arcs[src].append((tgt, label.name + ">"))
        arcs[tgt].append((src, label.name + "<"))
    distinct = len(set(colors.values()))
    while True:
        colors = {nid: _h(colors[nid], *(
            ",".join(sorted(tag + colors[m] for m, tag in node_arcs
                            if tag[-1] == end)) for end in "><"))
            for nid, node_arcs in arcs.items()}
        before, distinct = distinct, len(set(colors.values()))
        if distinct == before:
            return colors, _h("graph", ",".join(sorted(colors.values())),
                              str(len(g.edges)))


def partition(colors: dict) -> set[frozenset[int]]:
    cells: dict = {}
    for nid, c in colors.items():
        cells.setdefault(c, set()).add(nid)
    return {frozenset(cell) for cell in cells.values()}


def test_reference_refine_gives_the_certificates_printed_before():
    assert reference_refine(load_fixture_grammar("counting").start)[1] \
        == "3c6e87b6da81c0e1"
    assert reference_refine(load_fixture_grammar("transitive").start)[1] \
        == "e6d2bb678f4db404"


def test_worklist_refinement_agrees_with_round_by_round_refinement():
    rng = random.Random(2014)
    pool = [cycle(6), two_three_cycles(), cycle(4, "x<"), cycle(4, "x>")]
    while len(pool) < 1200:
        labels = [[], ["x<"], ["x>"], ["x<", "x>"]][rng.randint(0, 3)]
        g = random_graph(rng, rng.randint(1, 6), labels, rng.random() < 0.5)
        pool += [g, relabelled(g, rng)]
    new_to_old: dict[str, str] = {}
    old_to_new: dict[str, str] = {}
    for g in pool:
        table = _Table()
        shape = _shape(table.seeds(g), g.edges, table)
        colors, cert = reference_refine(g)
        assert partition(shape.colors) == partition(colors)
        new = table.certificate(shape.key)
        assert new_to_old.setdefault(new, cert) == cert
        assert old_to_new.setdefault(cert, new) == new
    # the pool holds classes of several graphs, and certificates that the
    # worklist changed
    assert len(new_to_old) < len(pool) / 2
    assert any(new != old for new, old in new_to_old.items())


# -- the tag-ordered record against the sorting signatures ----------------


class SortingTable:
    """The signature table before records were ordered by tag: a record
    holds each node's (other node, tag) arcs, and each signature sorts the
    node's (neighbour colour, tag) pairs afresh, every round.  The same
    graphs must get the same colour classes and certificates from both."""

    def __init__(self) -> None:
        self.ints: dict[tuple, int] = {}
        self.sha: list[str] = []

    def seed(self, node) -> int:
        key = (tuple(sorted(t.name for t in node.types)),
               tuple(sorted(f.name for f in node.flags)),
               tuple(sorted(node.attrs.items())))
        if key not in self.ints:
            self.ints[key] = len(self.sha)
            self.sha.append(_h("node", ",".join(key[0]), ",".join(key[1]),
                               ";".join(f"{a}={v.kind.value}:{v.to_text()}"
                                        for a, v in key[2])))
        return self.ints[key]

    def sign(self, color: int, sig: tuple[tuple[int, str], ...]) -> int:
        key = (color, sig)
        if key not in self.ints:
            self.ints[key] = len(self.sha)
            self.sha.append(_h(self.sha[color], ",".join(sorted(
                tag + self.sha[x] for x, tag in sig))))
        return self.ints[key]

    def refine(self, colors: dict[int, int],
               arcs: dict[int, tuple[tuple[int, str], ...]]) -> dict[int, int]:
        colors, cells = dict(colors), {}
        for nid, c in colors.items():
            cells.setdefault(c, []).append(nid)
        work = [cell for cell in cells.values() if len(cell) > 1]
        while work:
            splits, moved = [], []
            for cell in work:
                parts: dict[tuple, list[int]] = {}
                for nid in cell:
                    sig = tuple(sorted([(colors[m], tag) for m, tag in arcs[nid]]))
                    parts.setdefault(sig, []).append(nid)
                if len(parts) > 1:
                    splits.append((colors[cell[0]], parts))
            for c, parts in splits:
                for sig, part in parts.items():
                    cells[new := self.sign(c, sig)] = part
                    colors.update(dict.fromkeys(part, new))
                    moved += part
            touched = {colors[m] for nid in moved for m, _ in arcs[nid]}
            work = [cells[c] for c in touched if len(cells[c]) > 1]
        return colors


def sorting_shape(g: HostGraph) -> tuple[dict[int, int], str]:
    """The stable colours of ``g`` and its certificate, by the sorting
    signatures."""
    table = SortingTable()
    arcs: dict[int, list[tuple[int, str]]] = {nid: [] for nid in g.nodes}
    for src, label, tgt in g.edges:
        arcs[src].append((tgt, label.name + ">"))
        arcs[tgt].append((src, label.name + "<"))
    colors = table.refine(
        {nid: table.seed(node) for nid, node in g.nodes.items()},
        {nid: tuple(node_arcs) for nid, node_arcs in arcs.items()})
    sha = table.sha
    return colors, _h(
        "graph", ",".join(sorted(sha[c] for c in colors.values())),
        ",".join(sorted(sha[colors[src]] + label.name + ">" + sha[colors[tgt]]
                        for src, label, tgt in g.edges)))


def hub_graph(rng: random.Random) -> HostGraph:
    """Up to 12 nodes with little node data, so that many share a colour.
    One node is a hub with several ``e`` arcs out, and some nodes get an
    ``x`` loop, which gives a node both an ``x>`` and an ``x<`` arc."""
    g = HostGraph("g")
    for _ in range(rng.randint(1, 12)):
        nid = g.add_node(
            types=[node_type(rng.choice("AB"))] if rng.random() < 0.3 else [],
            flags=[flag("f")] if rng.random() < 0.3 else [])
        if rng.random() < 0.2:
            g.set_attr(nid, "v", Value.int_(rng.randint(0, 1)))
    ids = g.node_ids()
    hub = rng.choice(ids)
    for _ in range(rng.randint(0, len(ids))):
        g.add_edge(hub, E("e"), rng.choice(ids))
    for _ in range(rng.randint(0, len(ids))):
        g.add_edge(rng.choice(ids), E(rng.choice("ex")), rng.choice(ids))
    for nid in ids:
        if rng.random() < 0.1:
            g.add_edge(nid, E("x"), nid)
    return g


def test_tag_ordered_records_give_the_sorting_certificates():
    rng = random.Random(36)
    pool = [cycle(6), two_three_cycles(), cycle(5, "x<"), cycle(4, "x>"),
            parse_graph(marked_ring(6, {0, 2})),
            parse_graph(marked_ring(9, {0, 1, 5}))]
    while len(pool) < 1206:
        g = hub_graph(rng)
        pool += [g, relabelled(g, rng)]
    seen = dict.fromkeys(["sorted", "loop", "isolated", "flag", "attr"], 0)
    for g in pool:
        table = _Table()
        shape = _shape(table.seeds(g), g.edges, table)
        colors, cert = sorting_shape(g)
        assert partition(shape.colors) == partition(colors)
        assert table.certificate(shape.key) == cert == certificate(g)
        assert shape.discrete == (len(partition(colors)) == len(g.nodes))
        nodes, _ = shape.arcs
        # a node whose arcs of one tag reach more than one colour: there the
        # order of its ends is not the order of their colours
        seen["sorted"] += any(
            len({(tag, colors[m]) for tag, m in zip(tags, ends)})
            > len(set(tags)) for tags, ends, _ in nodes.values())
        seen["loop"] += any(e.src == e.tgt for e in g.edges)
        seen["isolated"] += any(not tags for tags, _, _ in nodes.values())
        seen["flag"] += any(node.flags for node in g.nodes.values())
        seen["attr"] += any(node.attrs for node in g.nodes.values())
    assert min(seen.values()) > 100, seen


def test_equal_node_data_and_only_that_shares_a_seed():
    def node(**attrs):
        g = HostGraph("g")
        return g.nodes[g.add_node(attrs=attrs)]

    data = [node(v=Value.int_(1)), node(v=Value.real(1.0)),
            node(v=Value.bool_(True)), node(v=Value.real(0.0)),
            node(v=Value.real(-0.0)), node(v=Value.int_(1), w=Value.int_(2)),
            node(w=Value.int_(2), v=Value.int_(1)), node(),
            parse_graph("graph g\nnode a : A flag f\n").nodes[0],
            parse_graph("graph g\nnode a : A\n").nodes[0],
            parse_graph("graph g\nnode a flag f\n").nodes[0]]
    for order in (data, data[::-1]):
        table = _Table()
        seeds = [table.seed(n) for n in order + order]
        assert seeds[:len(order)] == seeds[len(order):]
        # the two orders of one attribute map are the same data
        assert len(set(seeds)) == len(data) - 1


def test_the_12_ring_export_is_pinned():
    grammar = load_grammar_dir(str(RING_GRAMMAR))
    lts = explore(list(grammar.rules.values()),
                  parse_graph(marked_ring(12, {0})), tgs=grammar.type_graphs)
    assert (len(lts.states), len(lts.transitions)) == (351, 2003)
    assert hashlib.md5(export_lts(lts).encode()).hexdigest() \
        == "da3bbd1898b8460790db0c78c278bacd"


# -- exploration -------------------------------------------------------


def test_reverse_system_has_two_mutually_reachable_states():
    grammar = load_fixture_grammar("reverse")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    assert len(lts.states) == 2
    assert not lts.truncated
    assert set(lts.transitions) == {
        (0, "reverseEdges", 1), (1, "reverseEdges", 0)}
    assert {src for src, _, _ in lts.transitions} == {0, 1}  # none final


def test_greeting_system_reaches_a_terminal_state():
    grammar = load_fixture_grammar("greeting")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    # empty start, state with the greeting; the guard stops a second one
    assert len(lts.states) == 2
    assert {src for src, _, _ in lts.transitions} == {0}  # 1 is final
    assert lts.states[1].depth == 1


def test_print_rules_appear_as_self_loops():
    grammar = load_fixture_grammar("hello")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    assert len(lts.states) == 1
    assert lts.transitions == [(0, "helloMessage", 0)]


GROW = """
rule grow
node n role=reader
node c role=creator
edge n -e-> c role=creator
"""


def test_max_states_truncates_and_flags():
    start = parse_graph("graph g\nnode seed\n")
    lts = explore([parse_rule(GROW)], start, max_states=4)
    assert len(lts.states) == 4
    assert lts.truncated
    # every kept transition stays within the kept states
    assert all(0 <= s < 4 and 0 <= t < 4 for s, _, t in lts.transitions)


def test_max_states_below_one_is_rejected():
    start = parse_graph("graph g\nnode seed\n")
    for bad in (0, -3):
        with pytest.raises(ValueError, match="max_states"):
            explore([parse_rule(GROW)], start, max_states=bad)
    assert len(explore([parse_rule(GROW)], start, max_states=1).states) == 1


def test_a_bound_out_of_range_is_a_usage_error():
    start = parse_graph("graph g\nnode seed\n")
    with pytest.raises(UsageError, match="max_states must be at least 1"):
        explore([parse_rule(GROW)], start, max_states=0)
    with pytest.raises(UsageError, match="max_depth must be at least 0"):
        explore([parse_rule(GROW)], start, max_depth=-1)
    assert issubclass(UsageError, ValueError)


def test_negative_max_depth_is_rejected():
    start = parse_graph("graph g\nnode seed\n")
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="max_depth must be at least 0"):
            explore([parse_rule(GROW)], start, max_depth=bad)
    lts = explore([parse_rule(GROW)], start, max_depth=0)
    assert len(lts.states) == 1 and lts.truncated


def test_max_depth_probes_the_frontier():
    start = parse_graph("graph g\nnode seed\n")
    lts = explore([parse_rule(GROW)], start, max_depth=2)
    assert max(s.depth for s in lts.states) == 2
    assert lts.truncated  # depth-2 states still had successors
    full = explore([parse_rule(GROW)], start, max_states=3, max_depth=50)
    assert full.truncated


def test_isomorphic_states_are_merged():
    # growing from either of two twin seeds gives the same successor state
    start = parse_graph("graph g\nnode a\nnode b\n")
    rule = parse_rule("rule mark\nnode n role=reader\nflag n creator done\n"
                      "flag n embargo done\n")
    lts = explore([rule], start)
    # a+b unmarked, one marked, both marked: three states, no duplicates
    assert len(lts.states) == 3
    assert not lts.truncated
    assert [s.depth for s in lts.states] == [0, 1, 2]


def test_exploration_is_deterministic():
    grammar = load_fixture_grammar("counting")
    rules = list(grammar.rules.values())
    a = explore(rules, grammar.start, tgs=grammar.type_graphs)
    b = explore(rules, grammar.start, tgs=grammar.type_graphs)
    assert [s.cert for s in a.states] == [s.cert for s in b.states]
    assert a.transitions == b.transitions


def test_export_lists_states_then_sorted_transitions():
    grammar = load_fixture_grammar("reverse")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    text = export_lts(lts)
    lines = text.splitlines()
    assert lines[0].startswith("state S0 ")
    assert lines[1].startswith("state S1 ")
    assert lines[2:] == ["trans S0 -reverseEdges-> S1",
                         "trans S1 -reverseEdges-> S0"]
    assert "truncated" not in text
    truncated = explore([parse_rule(GROW)],
                        parse_graph("graph g\nnode seed\n"), max_states=2)
    assert export_lts(truncated).splitlines()[-1] == "truncated"


# -- the identical-graph shortcut and the exact check ----------------------


MARK = parse_rule("rule mark\nnode n role=reader\nflag n creator done\n"
                  "flag n embargo done\n")


def counting_exact_check(monkeypatch, verdict=None) -> list[int]:
    """Count the calls of ``explorer._isomorphic``; a ``verdict`` replaces
    its answer."""
    calls: list[int] = []
    real = explorer._isomorphic

    def counted(*args):
        calls.append(1)
        return real(*args) if verdict is None else verdict

    monkeypatch.setattr(explorer, "_isomorphic", counted)
    return calls


def test_confluent_diamond_merges_without_the_exact_check(monkeypatch):
    # a and b differ in type, so marking a then b and b then a give the
    # same graph, node ids included, and no bucket ever holds two states
    calls = counting_exact_check(monkeypatch)
    lts = explore([MARK], parse_graph("graph g\nnode a : A\nnode b : B\n"))
    assert len(lts.states) == 4
    assert sorted(lts.transitions) == [
        (0, "mark", 1), (0, "mark", 2), (1, "mark", 3), (2, "mark", 3)]
    assert calls == []


def test_isomorphic_successor_is_merged_by_the_exact_check(monkeypatch):
    # marking either of two twin nodes gives isomorphic, not identical,
    # graphs; refinement gives each node its own colour, so the equal keys
    # are the merge and the exact check has nothing to confirm
    twins = parse_graph("graph g\nnode a\nnode b\n")
    calls = counting_exact_check(monkeypatch)
    assert len(explore([MARK], twins).states) == 3
    assert calls == []
    # three disjoint untyped edges: marking keeps ties between the edges
    # that refinement cannot break, so the merge is the exact check's
    start = parse_graph("graph g\nnode a\nnode b\nnode c\nnode d\n"
                        "node e\nnode f\nedge a -e-> b\nedge c -e-> d\n"
                        "edge e -e-> f\n")
    calls = counting_exact_check(monkeypatch)
    assert len(explore([MARK], start).states) == 20
    assert len(calls) == 14
    calls = counting_exact_check(monkeypatch, verdict=False)
    assert len(explore([MARK], start).states) == 42


def test_states_that_differ_in_edge_labels_need_no_exact_check(monkeypatch):
    # one node whose a-loop becomes a b-loop: the colours are equal, the
    # keys are not, so the two states never meet in one bucket
    flip = parse_rule("rule flip\nnode n role=reader\n"
                      "edge n -a-> n role=eraser\nedge n -b-> n role=creator\n")
    calls = counting_exact_check(monkeypatch)
    lts = explore([flip], parse_graph("graph g\nnode n\nedge n -a-> n\n"))
    assert len(lts.states) == 2
    assert calls == []


def test_explore_builds_one_graph_per_kept_state(monkeypatch):
    # a successor's key comes from its parent's key and the effect, so a
    # duplicate is dropped before any graph is built for it
    copies: list[int] = []
    real = HostGraph.copy

    def counted(self, *args):
        copies.append(1)
        return real(self, *args)

    monkeypatch.setattr(HostGraph, "copy", counted)
    ring = load_grammar_dir(str(RING_GRAMMAR))
    swap = parse_rule("rule swap\nnode t role=eraser : T\n"
                      "node u role=creator : U\nedge u -e-> u role=creator\n")
    for rules, start, tgs in [
            (list(ring.rules.values()), parse_graph(marked_ring(7, {0, 3})),
             ring.type_graphs),
            ([swap, MARK], parse_graph("graph g\nnode a : T\nnode b : T\n"
                                       "node c : T\nedge a -e-> b\n"), None)]:
        copies.clear()
        lts = explore(rules, start, tgs=tgs)
        met = len(lts.transitions) + 1
        assert len(copies) == len(lts.states) < met


@pytest.mark.parametrize("rule, shared", [
    (MARK, True),
    (parse_rule("rule make\nnode n role=creator\n"), False),
    (parse_rule("rule drop\nnode n role=eraser\n"), False),
    (parse_rule("rule link\nnode n role=reader\nnode m role=reader\n"
                "edge n -f-> m role=creator\n"), False),
    (parse_rule("rule cut\nnode n role=reader\nnode m role=reader\n"
                "edge n -e-> m role=eraser\n"), False),
], ids=["flag", "create", "delete", "add-edge", "remove-edge"])
def test_a_successor_shares_its_parents_record_only_when_it_keeps_it(
        monkeypatch, rule, shared):
    # c is isolated: deleting it keeps the edge set, and a created node,
    # isolated too, shares its colour, so refinement reads its arcs
    calls: list[tuple] = []
    real = explorer._shape

    def logged(seeds, edges, table, record=None):
        shape = real(seeds, edges, table, record)
        calls.append((record, shape))
        return shape

    monkeypatch.setattr(explorer, "_shape", logged)
    start = parse_graph("graph g\nnode a\nnode b\nnode c\nedge a -e-> b\n")
    assert len(explore([rule], start, max_depth=1).states) > 1
    (given, parent), *successors = calls
    assert given is None and successors
    for record, shape in successors:
        assert (record is parent.arcs) is shared
        assert (shape.arcs is parent.arcs) is shared


def test_changing_one_states_graph_changes_no_other():
    ring = load_grammar_dir(str(RING_GRAMMAR))
    start = parse_graph(marked_ring(5, {0}))
    lts = explore(list(ring.rules.values()), start, tgs=ring.type_graphs)
    graphs = [start] + [s.graph for s in lts.states]
    # the states share nodes: the test would show nothing otherwise
    assert any(a is b for a, b in zip(graphs[1].nodes.values(),
                                      graphs[2].nodes.values()))
    texts = [serialize_graph(g) for g in graphs]
    for i, g in enumerate(graphs):
        for nid in g.node_ids():
            g.set_attr(nid, "seen", Value.int_(i))
        texts[i] = serialize_graph(g)
        assert [serialize_graph(h) for h in graphs] == texts


def test_every_exact_key_lists_its_seeds_in_ascending_id_order(monkeypatch):
    # so an identical graph always gives an equal key (see explore)
    orders: list[list[int]] = []
    real = explorer._shape

    def logged(seeds, edges, table, record=None):
        orders.append(list(seeds))
        return real(seeds, edges, table, record)

    monkeypatch.setattr(explorer, "_shape", logged)
    start = parse_graph("graph g\nnode a\nnode b\nnode c\nedge a -e-> b\n")
    make = parse_rule("rule make\nnode n role=creator\n")
    drop = parse_rule("rule drop\nnode n role=eraser\n")
    for rules in ([make], [drop], [make, drop]):
        orders.clear()
        explore(rules, start, max_depth=2)
        start_order, *successors = orders
        assert start_order == [0, 1, 2]
        assert any(max(o) > 2 for o in successors) is (make in rules)
        assert any(len(o) < 3 for o in successors) is (drop in rules)
        assert all(o == sorted(o) for o in orders)


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_the_compact_exact_key_misses_no_identical_graph(
        monkeypatch, tmp_path, capsys):
    # One pass of the benchmark's explore workload on seed 1.  With the
    # exact key (frozenset(seeds.items()), edges), which names a graph
    # whatever the order of its seeds, colour refinement ran 7 864 times.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    bench = workloads.Explore(1, tmp_path)
    calls = []
    real = _Table.refine

    def counted(self, colors, arcs):
        calls.append(None)
        return real(self, colors, arcs)

    monkeypatch.setattr(_Table, "refine", counted)
    for path, expected in zip(bench.files, bench.expected):
        assert cli.main(["explore", str(RING_GRAMMAR), "--graph", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert (sum(line.startswith("state ") for line in out),
                sum(line.startswith("trans ") for line in out)) == expected
    assert len(calls) == 7864


def test_marking_explorations_count_brute_force_classes():
    rng = random.Random(7)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 5), ["e", "f"], rng.random() < 0.5)
        unmarked = [nid for nid, node in g.nodes.items()
                    if flag("done") not in node.flags]
        reachable = []
        for k in range(len(unmarked) + 1):
            for chosen in itertools.combinations(unmarked, k):
                h = g.copy()
                for nid in chosen:
                    h.nodes[nid] = h.nodes[nid]._replace(
                        flags=h.nodes[nid].flags | {flag("done")})
                reachable.append(h)
        classes: list[HostGraph] = []
        for h in reachable:
            if not any(brute_isomorphic(h, rep) for rep in classes):
                classes.append(h)
        assert len(explore([MARK], g).states) == len(classes)


def test_signed_zeros_are_not_isomorphic():
    zero = parse_graph("graph g\nnode a\nattr a.r = 0.0\n")
    negzero = parse_graph("graph g\nnode a\nattr a.r = -0.0\n")
    assert not isomorphic(zero, negzero)
    assert not _isomorphic(*uniform(zero, negzero))
    assert not brute_isomorphic(zero, negzero)
