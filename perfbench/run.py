"""Benchmark of the gtx engine, run from the root of a source checkout.

    python3 perfbench/run.py --workload count|migrate|explore \\
        --seed N --seconds S --trace 0|1

It imports gtx from ``src/`` and needs no build.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured in a process that never wraps gtx.  With
``--trace 1`` they are the per-layer ones of :mod:`tracer`, from the same
rounds of operations run once untraced and then once traced; the span
table goes to standard error.  Inputs are written under ``.bench_work/`` and
removed on exit.

Times are scaled to a reference speed.  On a shared virtual machine
(measured on 2 vCPUs) the speed of Python code drifts by 10-30 % over
minutes, for gtx and for any other code alike.  So a fixed block of pure
Python that shares nothing with gtx is timed between every two
operations, and each operation's time is multiplied by ``REFERENCE_S``
over the mean time of the blocks on either side of it.  A change to gtx
moves the scaled times as it moves the raw ones; a change in machine
speed mostly does not.  The unscaled throughput goes to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: set-up is short, so it is repeated and its median reported
SETUP_REPEATS = 5
#: the 90th percentile needs at least ten samples beyond it
MIN_OPS = 100
#: nominal time of one reference block; scaled times are at this speed
REFERENCE_S = 0.002
_REFERENCE_EDGES = tuple((i % 97, "e", i * 7 % 97) for i in range(2000))

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"), ("states_per_s", "1/s"), ("peak_rss_mb", "MB"),
)


def reference_s() -> float:
    """Time one fixed block of set, dict and sort work unrelated to gtx."""
    start = time.perf_counter()
    edges = set(_REFERENCE_EDGES)
    for nid in range(97):
        {t for s, _, t in edges if s == nid}
    names = {f"n{i}": i for i in range(4000)}
    sorted(names, key=names.get)
    return time.perf_counter() - start


def import_gtx() -> SimpleNamespace:
    """Import gtx afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "gtx" or n.startswith("gtx.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"gtx.{name}")
            for name in ("cli", "dsl", "rewriter")}
    origin = Path(sys.modules["gtx"].__file__).resolve()
    if origin.parent != SRC / "gtx":
        raise ImportError(f"gtx was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


@dataclass
class Phase:
    """What a measured phase of whole rounds observed.  ``*_s`` times of
    operations are scaled to the reference speed; ``raw_busy_s`` is not."""

    rounds: int = 0
    elapsed_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    raw_busy_s: float = 0.0
    reference_s: list[float] = field(default_factory=list)
    failed: int = 0
    states: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def measure(workload, seconds: float | None = None, rounds: int | None = None,
            min_ops: int = MIN_OPS) -> Phase:
    """Run whole rounds of operations, one at a time, until ``seconds``
    have passed and ``min_ops`` were attempted, or for ``rounds`` rounds.

    An operation's latency is the gtx call alone, scaled by the reference
    blocks timed before and after it.  Its check runs outside the latency.
    A failed operation counts as slower than every latency: it is given
    the scaled time of all operations of the phase together.
    """
    phase = Phase()
    start = time.perf_counter()
    before = reference_s()
    phase.reference_s.append(before)
    while True:
        for op in workload.rounds[phase.rounds % len(workload.rounds)]:
            t0 = time.perf_counter()
            try:
                result = workload.call(op)
                spent = time.perf_counter() - t0
                produced = workload.check(op, result)
            except Exception:
                spent = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                produced = None
            after = reference_s()
            phase.reference_s.append(after)
            scaled = spent * 2 * REFERENCE_S / (before + after)
            before = after
            phase.busy_s += scaled
            phase.raw_busy_s += spent
            if produced is None:
                phase.failed += 1
                phase.latencies_s.append(math.inf)
            else:
                phase.states += produced
                phase.latencies_s.append(scaled)
        phase.rounds += 1
        phase.elapsed_s = time.perf_counter() - start
        if rounds is not None:
            if phase.rounds >= rounds:
                break
        elif phase.elapsed_s >= seconds and phase.attempted >= min_ops:
            break
    phase.latencies_s = [min(x, phase.busy_s) for x in phase.latencies_s]
    return phase


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    of the sample at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_s: float, phase: Phase) -> dict[str, float]:
    passed = phase.attempted - phase.failed
    return {
        "setup_s": setup_s,
        "ops_per_s": passed / phase.busy_s,
        "op_p50_ms": 1000 * statistics.median(phase.latencies_s),
        "op_p90_ms": 1000 * percentile(phase.latencies_s, 0.9),
        "states_per_s": phase.states / phase.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def set_up(workload) -> float:
    """Import gtx and build what operations reuse, several times over;
    returns the median scaled time.  The last set-up is the one kept."""
    times = []
    before = reference_s()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup(import_gtx())
        spent = time.perf_counter() - t0
        after = reference_s()
        times.append(spent * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(times)


def run(workload, seconds: float, trace: bool,
        min_ops: int = MIN_OPS) -> dict:
    """Set up, measure and report one run of ``workload``."""
    setup_s = set_up(workload)
    try:  # warm-up, untimed; a failure shows again in the measured phase
        workload.call(workload.rounds[0][0])
    except Exception:
        pass
    if not trace:
        phase = measure(workload, seconds, min_ops=min_ops)
        values = end_to_end(setup_s, phase)
        units = dict(END_TO_END)
        attempted, failed, correct = phase.attempted, phase.failed, True
        print(f"{workload.name}: {phase.attempted} ops in {phase.rounds} "
              f"rounds, {phase.failed} failed, error_rate "
              f"{phase.failed / phase.attempted:.4f}; unscaled "
              f"{(phase.attempted - phase.failed) / phase.raw_busy_s:.4f} "
              f"ops/s; reference block median "
              f"{1000 * statistics.median(phase.reference_s):.4f} ms",
              file=sys.stderr)
    else:
        untraced = measure(workload, seconds, min_ops=min_ops)
        spans = tracing.Tracer()
        spans.install()
        try:
            traced = measure(workload, rounds=untraced.rounds)
        finally:
            correct = spans.uninstall()
        values = spans.metrics(traced.elapsed_s,
                               traced.busy_s / untraced.busy_s)
        units = {name: unit for name, unit, _ in tracing.CATALOGUE}
        attempted = traced.attempted + untraced.attempted
        failed = traced.failed + untraced.failed
        print(spans.table(), file=sys.stderr)
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gtx" / "__init__.py").is_file():
        print(f"error: no gtx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
