"""Per-layer spans of gtx, recorded from outside the program.

The tracer replaces public functions of the gtx modules with timing
wrappers.  A name is looked up where it was imported, so each wrapper is
installed at every binding site: every attribute of every loaded gtx
module that holds the original function object.  ``HostGraph`` methods
are wrapped on the class.  ``uninstall`` puts every original object back.

Spans are aggregated in memory per (name, parent) rather than stored one
by one, since graph queries run 10^5 to 10^6 times per run.  A span's
self time is its duration minus the durations of the wrapped calls made
inside it, so the self times of all spans add up to the top-level spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections.abc import Callable

#: parent name of a span that no wrapped call encloses
ROOT = "bench"

#: public functions timed per gtx module
FUNCTIONS = {
    "dsl": ("parse_graph", "serialize_graph", "build_grammar"),
    "cli": ("main",),
    "typegraph": ("is_subtype",),
    "matcher": ("find_root_matches", "collect_level_matches",
                "evaluate_regex_path", "nacs_satisfied"),
    "rewriter": ("apply_rule", "plan_application", "apply_effect",
                 "is_effective"),
    "explorer": ("explore", "certificate", "isomorphic"),
}
#: HostGraph methods timed, reported as ``graph.<method>``
GRAPH_METHODS = ("successors", "predecessors", "has_edge", "node_ids",
                 "copy", "add_node", "add_edge", "remove_edge", "set_attr")
LAYERS = ("dsl", "cli", "graph", "typegraph", "matcher", "rewriter",
          "explorer")
GRAPH_QUERIES = ("graph.successors", "graph.predecessors", "graph.has_edge")

SPANS = tuple(f"{layer}.{fn}" for layer, fns in FUNCTIONS.items()
              for fn in fns) + tuple(f"graph.{m}" for m in GRAPH_METHODS)

# record fields
CALLS, TOTAL, CHILD, ERRORS, TRUES, ITEMS = range(6)


def _record() -> list:
    return [0, 0.0, 0.0, 0, 0, 0]


def _count_true(rec: list, result) -> None:
    rec[TRUES] += result is True


def _count_matches(rec: list, result) -> None:
    rec[ITEMS] += len(result)


def _count_extensions(rec: list, result) -> None:
    # one entry per level; the root level only holds the given root match
    rec[ITEMS] += sum(len(s.extensions) for s in result.values()) - 1


def _count_states(rec: list, result) -> None:
    rec[ITEMS] += len(result.states)


RESULT_HOOKS: dict[str, Callable[[list, object], None]] = {
    "matcher.nacs_satisfied": _count_true,
    "rewriter.is_effective": _count_true,
    "explorer.isomorphic": _count_true,
    "matcher.find_root_matches": _count_matches,
    "matcher.collect_level_matches": _count_extensions,
    "explorer.explore": _count_states,
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _lower(name: str, unit: str) -> tuple[str, str, str]:
    return (name, unit, "lower")


#: every per-layer metric: (name, unit, better)
CATALOGUE = tuple(
    m for span in SPANS for m in (_lower(f"{span}.calls", "count"),
                                  _lower(f"{span}.self_s", "s"),
                                  _lower(f"{span}.errors", "count"))
) + (
    _lower("matcher.matches", "count"),
    _lower("matcher.graph_queries_per_match", "ratio"),
    ("matcher.nacs_satisfied.pass_ratio", "ratio", "higher"),
    ("rewriter.effective_ratio", "ratio", "higher"),
    ("explorer.isomorphic.true_ratio", "ratio", "higher"),
    ("explorer.states", "count", "higher"),
    _lower("explorer.successors_per_state", "ratio"),
) + tuple(
    m for layer in LAYERS + (ROOT,)
    for m in (_lower(f"layer.{layer}.self_s", "s"),
              _lower(f"layer.{layer}.share", "ratio"))
) + (
    _lower("trace.wall_s", "s"),
    _lower("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self) -> None:
        #: (name, parent) -> [calls, total, child, errors, trues, items]
        self.records: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        records = self.records
        clock = time.perf_counter
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = records.get((name, parent))
                if rec is None:
                    rec = records[(name, parent)] = _record()
                rec[CALLS] += 1
                rec[TOTAL] += elapsed
                rec[CHILD] += frame[1]
                rec[ERRORS] += failed
            if hook is not None:
                hook(rec, result)
            return result

        self._wrappers[name] = wrapper
        return wrapper

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install_functions(self, targets: dict[str, Callable],
                          modules: list) -> None:
        """Wrap each ``name -> function`` wherever ``modules`` bind it."""
        for name, fn in targets.items():
            wrapper = self.wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the gtx functions and ``HostGraph`` methods in the gtx
        modules currently imported."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "gtx" or name.startswith("gtx.")]
        self.install_functions(
            {f"{layer}.{fn}": getattr(sys.modules[f"gtx.{layer}"], fn)
             for layer, fns in FUNCTIONS.items() for fn in fns},
            modules)
        host_graph = sys.modules["gtx.graph"].HostGraph
        for method in GRAPH_METHODS:
            self._patch(host_graph, method,
                        self.wrap(f"graph.{method}", vars(host_graph)[method]))

    def binding_sites(self, name: str) -> list[str]:
        """``owner.attr`` of every binding that wraps ``name``."""
        wrapper = self._wrappers[name]
        return sorted(f"{owner.__name__}.{attr}"
                      for owner, attr, _ in self._patches
                      if vars(owner)[attr] is wrapper)

    def uninstall(self) -> bool:
        """Restore every original; True when each binding holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches.clear()
        return restored

    def totals(self) -> dict[str, list]:
        """Records summed over parents, per span name."""
        out: dict[str, list] = {}
        for (name, _), rec in self.records.items():
            acc = out.setdefault(name, _record())
            for i, v in enumerate(rec):
                acc[i] += v
        return out

    def top_level_s(self) -> float:
        return sum(rec[TOTAL] for (_, parent), rec in self.records.items()
                   if parent == ROOT)

    def metrics(self, wall_s: float, overhead: float) -> dict[str, float]:
        """Every :data:`CATALOGUE` metric for a traced phase of ``wall_s``
        seconds whose operations took ``overhead`` times as long as
        without wrappers."""
        tot = self.totals()
        empty = _record()

        def get(name: str) -> list:
            return tot.get(name, empty)

        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for span in SPANS:
            rec = get(span)
            self_s = rec[TOTAL] - rec[CHILD]
            out[f"{span}.calls"] = rec[CALLS]
            out[f"{span}.self_s"] = self_s
            out[f"{span}.errors"] = rec[ERRORS]
            layer_self[span.partition(".")[0]] += self_s
        matches = (get("matcher.find_root_matches")[ITEMS]
                   + get("matcher.collect_level_matches")[ITEMS])
        queries = sum(get(q)[CALLS] for q in GRAPH_QUERIES)
        states = get("explorer.explore")[ITEMS]
        explored = self.records.get(("rewriter.apply_effect",
                                     "explorer.explore"), empty)[CALLS]
        out["matcher.matches"] = matches
        out["matcher.graph_queries_per_match"] = _ratio(queries, matches)
        for metric, span in (
                ("matcher.nacs_satisfied.pass_ratio", "matcher.nacs_satisfied"),
                ("rewriter.effective_ratio", "rewriter.is_effective"),
                ("explorer.isomorphic.true_ratio", "explorer.isomorphic")):
            out[metric] = _ratio(get(span)[TRUES], get(span)[CALLS])
        out["explorer.states"] = states
        out["explorer.successors_per_state"] = _ratio(explored, states)
        layer_self[ROOT] = wall_s - self.top_level_s()
        for layer, self_s in layer_self.items():
            out[f"layer.{layer}.self_s"] = self_s
            out[f"layer.{layer}.share"] = _ratio(self_s, wall_s)
        out["trace.wall_s"] = wall_s
        out["trace.overhead_ratio"] = overhead
        return out

    def table(self) -> str:
        """Per (name, parent) aggregate, largest self time first."""
        rows = sorted(self.records.items(),
                      key=lambda kv: kv[1][CHILD] - kv[1][TOTAL])
        lines = [f"{'span':<32} {'parent':<32} {'calls':>9} {'self_s':>9} "
                 f"{'total_s':>9} {'errors':>6}"]
        for (name, parent), rec in rows:
            lines.append(f"{name:<32} {parent:<32} {rec[CALLS]:>9} "
                         f"{rec[TOTAL] - rec[CHILD]:>9.4f} {rec[TOTAL]:>9.4f} "
                         f"{rec[ERRORS]:>6}")
        return "\n".join(lines)
