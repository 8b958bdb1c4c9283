"""State-space exploration: certificates, isomorphism, BFS and dedup."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gtx.dsl import parse_graph, parse_rule
from gtx.explorer import (
    _isomorphic,
    _shape,
    certificate,
    explore,
    export_lts,
    isomorphic,
)
from gtx.graph import HostGraph, Value, edge_label, flag, node_type
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


# -- exact isomorphism -------------------------------------------------


def test_regular_graphs_defeat_refinement_but_not_the_checker():
    # one 6-cycle vs two 3-cycles: every node looks identical locally,
    # so colour refinement alone cannot tell them apart
    c6 = cycle(6)
    c33 = two_three_cycles()
    assert len(c6.nodes) == len(c33.nodes)
    assert len(c6.edges) == len(c33.edges)
    assert not isomorphic(c6, c33)


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
    h.nodes[h.node_ids()[1000]].flags.add(flag("f"))
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
    ``g`` offers nothing to change."""
    out = g.copy()
    nid = rng.choice(out.node_ids())
    node = out.nodes[nid]
    edges = sorted(out.edges, key=lambda e: e.key())
    if kind == "flag":
        node.flags ^= {flag("f")}
    elif kind == "type":
        node.types ^= {node_type("A")}
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


def uniform(g: HostGraph):
    """The record of ``g`` with every node given the same colour, as if
    every certificate collided: the exact check must not need refinement."""
    return _shape(g)._replace(colors=dict.fromkeys(g.nodes, ""))


def test_isomorphic_agrees_with_brute_force():
    verdicts = []
    for g, h in differential_pairs():
        expected = brute_isomorphic(g, h)
        assert isomorphic(g, h) == expected
        assert isomorphic(h, g) == expected
        assert _isomorphic(g, uniform(g), h, uniform(h)) == expected
        if expected:
            assert certificate(g) == certificate(h)
        verdicts.append(expected)
    # both answers are exercised, and not only by the relabelled copies
    assert verdicts.count(True) > 200
    assert verdicts.count(False) > 300


# -- exploration -------------------------------------------------------


def test_reverse_system_has_two_mutually_reachable_states():
    grammar = load_fixture_grammar("reverse")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    assert len(lts.states) == 2
    assert not lts.truncated
    assert set(lts.transitions) == {
        (0, "reverseEdges", 1), (1, "reverseEdges", 0)}
    assert lts.final_states() == []


def test_greeting_system_reaches_a_terminal_state():
    grammar = load_fixture_grammar("greeting")
    lts = explore(list(grammar.rules.values()), grammar.start,
                  tgs=grammar.type_graphs)
    # empty start, state with the greeting; the guard stops a second one
    assert len(lts.states) == 2
    assert lts.final_states() == [1]
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
