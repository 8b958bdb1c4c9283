"""Self-tests of the benchmark: its oracles, its tracer and its report.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

import oracles
import run
import tracer as tracing
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(n, k) == 1)


@pytest.mark.parametrize("size", range(1, 13))
def test_explore_oracle_counts_necklaces_by_burnside(size):
    burnside = sum(_phi(d) * 2 ** (size // d)
                   for d in range(1, size + 1) if size % d == 0) // size
    assert oracles.necklace_lts(size, set())[0] == burnside


def test_explore_oracle_on_the_unmarked_rings_of_8_and_12():
    assert oracles.necklace_lts(8, set())[0] == 36
    assert oracles.necklace_lts(12, set()) == (352, 2004)


def test_count_oracle_reproduces_the_counting_fixture():
    text = (workloads.FIXTURES / "counting" / "counting.gst").read_text()
    nodes = re.findall(r"^node n(\d+) : Node$", text, re.M)
    edges = re.findall(r"^node e(\d+) : Edge$", text, re.M)
    ends = {int(j): [None, None] for j in edges}
    for j, end, i in re.findall(r"^edge e(\d+) -(src|trg)-> n(\d+)$",
                                text, re.M):
        ends[int(j)][end == "trg"] = int(i)
    graph = oracles.NodifiedGraph(
        "counting", len(nodes), tuple(tuple(ends[j]) for j in sorted(ends)))
    assert oracles.count_answers(graph) == {
        "countNodes": "6 nodes",
        "countLoopingEdges": "1 looping edges",
        "countIsolatedNodes": "1 isolated nodes",
        "countDanglingEdges": "2 dangling edges",
        "countCyclesOfThree": "3 cycles of three nodes",
    }


def test_count_oracle_counts_each_three_cycle_once_per_rotation():
    triangle = oracles.NodifiedGraph("t", 3, ((1, 2), (2, 3), (3, 1), (3, 1)))
    assert oracles.count_answers(triangle)["countCyclesOfThree"] == \
        "3 cycles of three nodes"


def _nested_module() -> types.ModuleType:
    mod = types.ModuleType("nested")
    exec("import time\n"
         "def inner(x):\n"
         "    time.sleep(0.01)\n"
         "    return x\n"
         "def outer():\n"
         "    time.sleep(0.01)\n"
         "    return inner(1) + inner(2)\n", mod.__dict__)
    return mod


def test_self_times_of_nested_spans_sum_to_the_outer_span():
    mod = _nested_module()
    spans = tracing.Tracer()
    spans.install_functions({"m.outer": mod.outer, "m.inner": mod.inner},
                            [mod])
    assert mod.outer() == 3
    spans.uninstall()
    outer = spans.records[("m.outer", tracing.ROOT)]
    inner = spans.records[("m.inner", "m.outer")]
    assert outer[tracing.CALLS] == 1 and inner[tracing.CALLS] == 2
    self_sum = sum(rec[tracing.TOTAL] - rec[tracing.CHILD]
                   for rec in spans.records.values())
    assert self_sum == pytest.approx(outer[tracing.TOTAL], rel=1e-9)
    assert outer[tracing.TOTAL] - outer[tracing.CHILD] >= 0.01


def test_the_benchmark_time_closes_the_account():
    mod = _nested_module()
    spans = tracing.Tracer()
    spans.install_functions({"m.outer": mod.outer}, [mod])
    start = time.perf_counter()
    mod.outer()
    time.sleep(0.01)
    wall = time.perf_counter() - start
    spans.uninstall()
    metrics = spans.metrics(wall, 1.0)
    assert metrics["layer.bench.self_s"] >= 0.01
    assert spans.top_level_s() + metrics["layer.bench.self_s"] == \
        pytest.approx(wall, rel=1e-9)


def test_errors_are_counted_and_reraised():
    mod = types.ModuleType("failing")
    exec("def boom():\n    raise ValueError('x')\n", mod.__dict__)
    spans = tracing.Tracer()
    spans.install_functions({"m.boom": mod.boom}, [mod])
    with pytest.raises(ValueError):
        mod.boom()
    spans.uninstall()
    assert spans.records[("m.boom", tracing.ROOT)][tracing.ERRORS] == 1


def _bindings() -> dict[tuple[str, str], object]:
    out = {(name, attr): value
           for name, mod in sys.modules.items()
           if name == "gtx" or name.startswith("gtx.")
           for attr, value in vars(mod).items()}
    host_graph = sys.modules["gtx.graph"].HostGraph
    out.update((("HostGraph", attr), value)
               for attr, value in vars(host_graph).items())
    return out


def test_uninstall_restores_the_original_gtx_objects():
    run.import_gtx()
    before = _bindings()
    spans = tracing.Tracer()
    spans.install()
    assert spans.binding_sites("matcher.find_root_matches") == [
        "gtx.cli.find_root_matches", "gtx.explorer.find_root_matches",
        "gtx.find_root_matches", "gtx.matcher.find_root_matches",
        "gtx.rewriter.find_root_matches"]
    assert "gtx.matcher.is_subtype" in spans.binding_sites(
        "typegraph.is_subtype")
    assert _bindings() != before
    assert spans.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


class SmallCount(workloads.Count):
    SIZES = range(3, 7)
    SETS = 2


class SmallMigrate(workloads.Migrate):
    SIZES = (5, 8)


class SmallExplore(workloads.Explore):
    SIZES = (4, 5)
    MARKS = (0, 2)
    SETS = 2


SMALL = (SmallCount, SmallMigrate, SmallExplore)


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_oracles_agree_with_gtx_on_small_inputs(cls, tmp_path):
    workload = cls(3, tmp_path)
    workload.setup(run.import_gtx())
    phase = run.measure(workload, rounds=2)
    rounds = workload.rounds
    assert phase.attempted == sum(len(rounds[r % len(rounds)]) for r in (0, 1))
    assert phase.failed == 0


@pytest.mark.parametrize("cls", SMALL, ids=lambda c: c.name)
def test_a_planted_wrong_answer_counts_as_a_failure(cls, tmp_path):
    workload = cls(3, tmp_path)
    workload.setup(run.import_gtx())
    if cls is SmallCount:
        workload.expected[0]["countNodes"] = "-1 nodes"
    elif cls is SmallMigrate:
        workload.expected[0]["edge gr -gcs-> n1"] += 1
    else:
        states, transitions = workload.expected[0]
        workload.expected[0] = (states, transitions + 1)
    phase = run.measure(workload, rounds=1)
    assert phase.failed == 1
    assert max(phase.latencies_s) == phase.busy_s


def test_benchmark_json_declares_what_the_run_reports(tmp_path):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == dict(run.END_TO_END)
    layered = {m["name"]: (m["unit"], m["better"])
               for m in BENCHMARK["per_layer"]}
    assert layered == {n: (u, b) for n, u, b in tracing.CATALOGUE}
    assert {w["name"] for w in BENCHMARK["workloads"]} == \
        set(workloads.WORKLOADS)

    for trace, names in ((False, declared), (True, layered)):
        result = run.run(SmallExplore(5, tmp_path), 0, trace, min_ops=1)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(names)


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.Count(11, tmp_path)
    b = workloads.Count(11, tmp_path)
    c = workloads.Count(12, tmp_path)
    assert a.texts == b.texts != c.texts


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

