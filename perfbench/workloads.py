"""The three workloads: seeded inputs, one operation each, and its check.

Each workload is a closed loop (one process, one thread, one operation at
a time) over *rounds* of operations.  A round covers the whole size range
of the workload once, so every run measures the same mix of input sizes
and the seed only changes the random structure inside each size.  Where
that structure moves an operation's cost, round ``r`` uses input set
``r mod SETS``, so that a run's percentiles are taken over many
structures and do not hang on one graph.

A workload hands gtx nothing but graph text or files.  ``setup`` receives
freshly imported gtx modules and builds what operations reuse; ``call``
runs one operation and returns what gtx produced; ``check`` compares that
with the answer from :mod:`oracles` and returns the number of graph states
produced, or None on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import oracles

BENCH_DIR = Path(__file__).resolve().parent
FIXTURES = BENCH_DIR.parent / "src" / "gtx" / "fixtures" / "helloworld"
RING_GRAMMAR = BENCH_DIR / "grammars" / "ring"

COUNT_RULES = ("countNodes", "countLoopingEdges", "countIsolatedNodes",
               "countDanglingEdges", "countCyclesOfThree")


def _cli(gtx: SimpleNamespace, argv: list[str]) -> tuple[int, str]:
    """``gtx.cli.main(argv)`` in process, returning exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = gtx.cli.main(argv)
    return code, out.getvalue()


class Count:
    """Read-only matching: one counting rule applied to a parsed graph."""

    name = "count"
    #: one graph per node count and set; each has twice as many edge nodes
    SIZES = range(20, 41)
    SETS = 4
    P_MISSING = 0.05

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"count-{seed}")
        self.graphs = [oracles.random_nodified(rng, n, 2 * n, self.P_MISSING)
                       for _ in range(self.SETS) for n in self.SIZES]
        self.texts = [oracles.nodified_gst(g) for g in self.graphs]
        self.expected = [oracles.count_answers(g) for g in self.graphs]
        per_set = len(self.SIZES)
        self.rounds = [[(i, rule)
                        for i in range(k * per_set, (k + 1) * per_set)
                        for rule in COUNT_RULES]
                       for k in range(self.SETS)]

    def setup(self, gtx: SimpleNamespace) -> None:
        self.gtx = gtx
        grammar = gtx.cli.load_grammar_dir(str(FIXTURES / "counting"))
        self.rules = grammar.rules
        self.tgs = grammar.type_graphs
        self.hosts = [gtx.dsl.parse_graph(text) for text in self.texts]

    def call(self, op):
        i, rule = op
        return self.gtx.rewriter.apply_rule(self.rules[rule], self.hosts[i],
                                            self.tgs)

    def check(self, op, result) -> int | None:
        i, rule = op
        ok = result is not None and result.output == self.expected[i][rule]
        return 1 if ok else None


class Migrate:
    """The CLI ``apply`` path: one whole-model migration of a graph file."""

    name = "migrate"
    SIZES = range(100, 301, 10)
    RULE = "migrateToGraphComponent"
    GRAMMAR = FIXTURES / "migration_gc"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"migrate-{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        self.expected = []
        for n in self.SIZES:
            g = oracles.random_nodified(rng, n, 2 * n, name=f"g{n}")
            path = workdir / f"migrate{n}.gst"
            path.write_text(oracles.nodified_gst(g), encoding="utf-8")
            self.files.append(str(path))
            self.expected.append(oracles.migrated_lines(g))
        self.rounds = [list(range(len(self.files)))]

    def setup(self, gtx: SimpleNamespace) -> None:
        self.gtx = gtx
        gtx.cli.load_grammar_dir(str(self.GRAMMAR))

    def call(self, op):
        return _cli(self.gtx, ["apply", str(self.GRAMMAR), self.RULE,
                               "--graph", self.files[op]])

    def check(self, op, result) -> int | None:
        code, out = result
        ok = code == 0 and Counter(out.splitlines()) == self.expected[op]
        return 1 if ok else None


class Explore:
    """State-space exploration of ``markOne`` from marked rings."""

    name = "explore"
    SIZES = range(6, 10)
    MARKS = (0, 1, 2, 3)
    SETS = 8

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"explore-{seed}")
        workdir.mkdir(parents=True, exist_ok=True)
        self.files = []
        self.expected = []
        for k in range(self.SETS):
            for size in self.SIZES:
                for count in self.MARKS:
                    marks = set(rng.sample(range(size), count))
                    path = workdir / f"ring{k}-{size}-{count}.gst"
                    path.write_text(oracles.ring_gst(size, marks),
                                    encoding="utf-8")
                    self.files.append(str(path))
                    self.expected.append(oracles.necklace_lts(size, marks))
        per_set = len(self.files) // self.SETS
        self.rounds = [list(range(k * per_set, (k + 1) * per_set))
                       for k in range(self.SETS)]

    def setup(self, gtx: SimpleNamespace) -> None:
        self.gtx = gtx
        gtx.cli.load_grammar_dir(str(RING_GRAMMAR))

    def call(self, op):
        return _cli(self.gtx, ["explore", str(RING_GRAMMAR),
                               "--graph", self.files[op]])

    def check(self, op, result) -> int | None:
        code, out = result
        lines = out.splitlines()
        states = sum(1 for line in lines if line.startswith("state "))
        transitions = sum(1 for line in lines if line.startswith("trans "))
        ok = code == 0 and (states, transitions) == self.expected[op]
        return states if ok else None


WORKLOADS = {w.name: w for w in (Count, Migrate, Explore)}
