"""Built-in demonstration suite over graphs-as-data models.

The fixture grammars under ``gtx/fixtures/helloworld`` encode classic
introductory transformation tasks on the "nodified" graph representation
(a Graph node containing Node and Edge nodes, edges realized as src/trg
references).  Every fixture's expectation is computed by an independent
oracle working directly on the host graph — counts, reversal, deletion
and closure are each implemented twice, once as a rule and once in plain
Python, and the suite cross-checks the two, on the fixed hosts and on
seeded random graphs.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from .dsl import Grammar, load_grammar_dir, parse_graph
from .explorer import isomorphic
from .graph import HostGraph, Value, edge_label, node_type
from .rewriter import apply_repeatedly, apply_rule
from .rules import Rule
from .typegraph import TypeGraph, conforms

GRAPH = node_type("Graph")
NODE = node_type("Node")
EDGE = node_type("Edge")
SRC = edge_label("src")
TRG = edge_label("trg")
NODES = edge_label("nodes")
EDGES = edge_label("edges")

FIXTURE_ROOT = "fixtures/helloworld"
_MAX_ITERATIONS = 10_000


class OracleError(Exception):
    """The host graph is not a well-formed nodified graph."""


# ---------------------------------------------------------------------------
# oracles


def _typed(g: HostGraph, t) -> list[int]:
    return [nid for nid in g.node_ids() if t in g.nodes[nid].types]


def _endpoint(g: HostGraph, edge_node: int, label) -> int | None:
    targets = g.successors(edge_node, label)
    if len(targets) > 1:
        raise OracleError(
            f"edge node {g.display(edge_node)} has several {label.name} ends")
    return next(iter(targets)) if targets else None


def oracle_counts(g: HostGraph) -> dict[str, int]:
    """Feature counts of a nodified graph, computed without any rules.

    Keys: ``nodes``, ``loops``, ``isolated``, ``cycles3`` (ordered
    three-node cycles over the "is linked to" relation, so every cycle
    appears once per rotation and parallel edges do not multiply) and
    ``dangling``.
    """
    node_objs = _typed(g, NODE)
    edge_objs = _typed(g, EDGE)
    ends = {e: (_endpoint(g, e, SRC), _endpoint(g, e, TRG))
            for e in edge_objs}

    touched: set[int] = set()
    for s, t in ends.values():
        touched.update(x for x in (s, t) if x is not None)

    linked = {(s, t) for s, t in ends.values()
              if s is not None and t is not None}

    cycles3 = sum(
        1
        for x in node_objs for y in node_objs for z in node_objs
        if len({x, y, z}) == 3
        and (x, y) in linked and (y, z) in linked and (z, x) in linked)

    return {
        "nodes": len(node_objs),
        "loops": sum(1 for s, t in ends.values()
                     if s is not None and s == t),
        "isolated": sum(1 for n in node_objs if n not in touched),
        "cycles3": cycles3,
        "dangling": sum(1 for s, t in ends.values()
                        if s is None or t is None),
    }


def label_swap_oracle(g: HostGraph) -> HostGraph:
    """Reverse every edge of a nodified graph by relabelling each src
    reference as trg and vice versa.  An edge node missing one end still
    gets its other end flipped."""
    out = g.copy()
    for e in _typed(out, EDGE):
        srcs = out.successors(e, SRC)
        trgs = out.successors(e, TRG)
        for s in srcs:
            out.remove_edge(e, SRC, s)
        for t in trgs:
            out.remove_edge(e, TRG, t)
        for t in trgs:
            out.add_edge(e, SRC, t)
        for s in srcs:
            out.add_edge(e, TRG, s)
    return out


def step_relation(g: HostGraph) -> set[tuple[int, int]]:
    """Pairs (s, t) connected by a complete edge node."""
    rel = set()
    for e in _typed(g, EDGE):
        s = _endpoint(g, e, SRC)
        t = _endpoint(g, e, TRG)
        if s is not None and t is not None:
            rel.add((s, t))
    return rel


def transitive_closure(rel: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closure = set(rel)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return closure


def random_nodified_graph(rng: random.Random, max_nodes: int = 8,
                          max_edges: int = 12,
                          p_dangling: float = 0.15) -> HostGraph:
    """A random well-formed nodified graph (danglers allowed, each edge
    node has at most one src and one trg reference)."""
    g = HostGraph(name="random")
    gr = g.add_node([GRAPH], name="gr")
    n_nodes = rng.randint(1, max_nodes)
    node_ids = []
    for i in range(1, n_nodes + 1):
        nid = g.add_node([NODE], name=f"n{i}")
        g.set_attr(nid, "name", Value.string(f"n{i}"))
        g.add_edge(gr, NODES, nid)
        node_ids.append(nid)
    n_edges = rng.randint(0, max_edges)
    for i in range(1, n_edges + 1):
        eid = g.add_node([EDGE], name=f"e{i}")
        g.add_edge(gr, EDGES, eid)
        drop = rng.random() < p_dangling
        drop_src = drop and rng.random() < 0.5
        drop_trg = drop and not drop_src
        if not drop_src:
            g.add_edge(eid, SRC, rng.choice(node_ids))
        if not drop_trg:
            g.add_edge(eid, TRG, rng.choice(node_ids))
    return g


# ---------------------------------------------------------------------------
# fixtures


@dataclass
class FixtureContext:
    grammar: Grammar
    rule: Rule
    start: HostGraph
    result: HostGraph
    outputs: list[str]
    applications: int


@dataclass(frozen=True)
class Fixture:
    """One demonstration task: a rule from a fixture grammar plus the
    oracle-backed expectations about what applying it does."""

    id: str
    grammar: str
    rule: str
    #: "once" applies the rule a single time; "fixpoint" reapplies it
    #: until it reports itself inapplicable
    mode: str = "fixpoint"
    expected_applications: int = 1
    #: the output expected from the start graph and the loaded rule
    expected_output: Callable[[HostGraph, Rule], str] | None = None
    check: Callable[[FixtureContext], list[str]] | None = None


@dataclass
class FixtureResult:
    fixture: Fixture
    applications: int
    output: str
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


@dataclass
class SuiteReport:
    results: list[FixtureResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)


def load_fixture_grammar(name: str) -> Grammar:
    return load_grammar_dir(
        resources.files("gtx").joinpath(FIXTURE_ROOT).joinpath(name))


def fixture_grammar_names() -> list[str]:
    root = resources.files("gtx").joinpath(FIXTURE_ROOT)
    return sorted(entry.name for entry in root.iterdir() if entry.is_dir())


def _isomorphic_to(expected_text: str) -> Callable[[FixtureContext], list[str]]:
    def check(ctx: FixtureContext) -> list[str]:
        expected = parse_graph(expected_text, "<expected>")
        if not isomorphic(ctx.result, expected):
            return ["result is not isomorphic to the expected graph"]
        return []
    return check


def _check_hello(ctx: FixtureContext) -> list[str]:
    if not isomorphic(ctx.result, ctx.start):
        return ["a read-only rule changed the graph"]
    return []


_GREETING_EXPECTED = """
graph expected
node g : Greeting
attr g.text = "Hello World"
"""


@lru_cache(maxsize=1)
def _counting_corpus() -> tuple[HostGraph, ...]:
    """200 seeded random graphs shared by all five counting checks."""
    rng = random.Random("helloworld-counting")
    return tuple(random_nodified_graph(rng) for _ in range(200))


def _counting_check(key: str) -> Callable[[FixtureContext], list[str]]:
    def check(ctx: FixtureContext) -> list[str]:
        problems = []
        if not isomorphic(ctx.result, ctx.start):
            problems.append("a counting rule changed the graph")
        for i, g in enumerate(_counting_corpus()):
            expected = oracle_counts(g)[key]
            res = apply_rule(ctx.rule, g, ctx.grammar.type_graphs)
            if res is None:
                problems.append(f"sample {i}: rule was inapplicable")
                continue
            want = _render_count(ctx.rule, expected)
            if res.output != want:
                problems.append(
                    f"sample {i}: rule said {res.output!r}, "
                    f"oracle says {want!r}")
        return problems
    return check


def _render_count(rule: Rule, count: int) -> str:
    assert rule.print_format is not None
    return rule.print_format.replace("%s", str(count), 1)


def _check_reverse(ctx: FixtureContext) -> list[str]:
    problems = []
    if not isomorphic(ctx.result, label_swap_oracle(ctx.start)):
        problems.append("result does not match the edge-swap oracle")
    again = apply_rule(ctx.rule, ctx.result, ctx.grammar.type_graphs)
    if again is None or not isomorphic(again.graph, ctx.start):
        problems.append("reversing twice did not restore the start graph")
    return problems


def _check_migration_gc(ctx: FixtureContext) -> list[str]:
    problems = []
    by_name = {tg.name: tg for tg in ctx.grammar.type_graphs}
    target = by_name["graphcomponent"]
    source = by_name["graph"]
    if conforms([target], ctx.result):
        problems.append("migrated graph does not conform to the target model")
    if not conforms([source], ctx.result):
        problems.append(
            "migrated graph still conforms to the source model alone")
    for e in ctx.result.edges:
        if e.label.name in ("nodes", "edges"):
            problems.append(f"stale containment reference {e.label.name}")
            break
    for nid in ctx.result.node_ids():
        node = ctx.result.nodes[nid]
        if NODE in node.types:
            if "name" in node.attrs or "text" not in node.attrs:
                problems.append(
                    f"node {ctx.result.display(nid)} kept its old attribute")
                break
        if EDGE in node.types and node.attrs.get("text") != Value.string(""):
            problems.append(
                f"edge node {ctx.result.display(nid)} lacks its empty text")
            break
    return problems


def _check_migration_topo(ctx: FixtureContext) -> list[str]:
    problems = []
    by_name = {tg.name: tg for tg in ctx.grammar.type_graphs}
    if conforms([by_name["graphnoedge"]], ctx.result):
        problems.append("migrated graph does not conform to the target model")
    expected_to = step_relation(ctx.start)
    links_to = edge_label("linksTo")
    actual_to = {(e.src, e.tgt) for e in ctx.result.edges
                 if e.label == links_to}
    if actual_to != expected_to:
        problems.append(
            f"linksTo edges {sorted(actual_to)} differ from the "
            f"represented relation {sorted(expected_to)}")
    if _typed(ctx.result, EDGE):
        problems.append("edge nodes survived the migration")
    return problems


def _deletion_expected(ctx: FixtureContext, with_edges: bool) -> HostGraph:
    expected = ctx.start.copy()
    victims = [nid for nid in expected.node_ids()
               if NODE in expected.nodes[nid].types
               and expected.get_attr(nid, "name") == Value.string("n1")]
    for victim in victims:
        if with_edges:
            for e in _typed(expected, EDGE):
                if (victim in expected.successors(e, SRC)
                        or victim in expected.successors(e, TRG)):
                    expected.delete_node_spo(e)
        expected.delete_node_spo(victim)
    return expected


def _check_delete_simple(ctx: FixtureContext) -> list[str]:
    if not isomorphic(ctx.result, _deletion_expected(ctx, with_edges=False)):
        return ["result differs from plain node deletion"]
    return []


def _check_delete_with_edges(ctx: FixtureContext) -> list[str]:
    if not isomorphic(ctx.result, _deletion_expected(ctx, with_edges=True)):
        return ["result differs from deletion with incident edge nodes"]
    return []


def _check_transitive(ctx: FixtureContext) -> list[str]:
    problems = []
    base = step_relation(ctx.start)
    closed = step_relation(ctx.result)
    if closed != transitive_closure(base):
        problems.append("resulting relation is not the transitive closure")
    if apply_rule(ctx.rule, ctx.result, ctx.grammar.type_graphs) is not None:
        problems.append("rule still applicable after reaching the closure")
    return problems


def fixtures() -> list[Fixture]:
    out = [
        Fixture(id="makeGreeting", grammar="greeting", rule="makeGreeting",
                expected_output=lambda start, rule: "Hello World\n",
                check=_isomorphic_to(_GREETING_EXPECTED)),
        Fixture(id="helloMessage", grammar="hello", rule="helloMessage",
                mode="once",
                expected_output=lambda start, rule:
                    "The output is Hello TTC Participants \n",
                check=_check_hello),
    ]
    for key, rule in [
        ("nodes", "countNodes"),
        ("loops", "countLoopingEdges"),
        ("isolated", "countIsolatedNodes"),
        ("cycles3", "countCyclesOfThree"),
        ("dangling", "countDanglingEdges"),
    ]:
        out.append(Fixture(
            id=rule, grammar="counting", rule=rule, mode="once",
            expected_output=_oracle_count_output(key),
            check=_counting_check(key)))
    out += [
        Fixture(id="reverseEdges", grammar="reverse", rule="reverseEdges",
                mode="once", check=_check_reverse),
        Fixture(id="migrateToGraphComponent", grammar="migration_gc",
                rule="migrateToGraphComponent", check=_check_migration_gc),
        Fixture(id="migrateTopologyChange", grammar="migration_topo",
                rule="migrateTopologyChange", check=_check_migration_topo),
        Fixture(id="deleteNodeN1", grammar="deletion", rule="deleteNodeN1",
                check=_check_delete_simple),
        Fixture(id="deleteNodeN1WithEdges", grammar="deletion",
                rule="deleteNodeN1WithEdges", check=_check_delete_with_edges),
        Fixture(id="insertTransitiveEdges", grammar="transitive",
                rule="insertTransitiveEdges", check=_check_transitive),
    ]
    return out


def _oracle_count_output(key: str) -> Callable[[HostGraph, Rule], str]:
    def expected(start: HostGraph, rule: Rule) -> str:
        return _render_count(rule, oracle_counts(start)[key])
    return expected


# ---------------------------------------------------------------------------
# runner


def _owner(element: TypeGraph | Rule | HostGraph) -> str:
    if isinstance(element, TypeGraph):
        return f"type graph {element.name}"
    if isinstance(element, Rule):
        return f"rule {element.name}"
    return "start graph"


def run_fixture(fixture: Fixture) -> FixtureResult:
    grammar = load_fixture_grammar(fixture.grammar)
    problems = [f"{_owner(element)}: {v.message}"
                for element, v in grammar.violations(grammar.start)]
    rule = grammar.rules.get(fixture.rule)
    if rule is None:
        problems.append(f"no rule named {fixture.rule!r}")
    if grammar.start is None:
        problems.append("fixture grammar has no start graph")
    if problems:
        return FixtureResult(fixture, 0, "", problems)

    start = grammar.start
    once = fixture.mode == "once"
    g, outputs, applications = apply_repeatedly(
        rule, start, grammar.type_graphs, 1 if once else _MAX_ITERATIONS)
    if once and applications == 0:
        problems.append("rule was inapplicable")
    elif not once and applications == _MAX_ITERATIONS:
        problems.append("rule did not reach a fixpoint")

    output = "".join(outputs)
    if applications != fixture.expected_applications:
        problems.append(
            f"expected {fixture.expected_applications} application(s), "
            f"got {applications}")
    if fixture.expected_output is not None and not problems:
        want = fixture.expected_output(start, rule)
        if output != want:
            problems.append(f"output {output!r}, expected {want!r}")
    if fixture.check is not None and not problems:
        ctx = FixtureContext(grammar, rule, start, g, outputs, applications)
        problems.extend(fixture.check(ctx))
    return FixtureResult(fixture, applications, output, problems)


def run_suite(filter_substring: str | None = None) -> SuiteReport:
    """Run every fixture (or the ones whose id contains the filter)."""
    report = SuiteReport()
    for fixture in fixtures():
        if filter_substring and filter_substring not in fixture.id:
            continue
        report.results.append(run_fixture(fixture))
    return report
