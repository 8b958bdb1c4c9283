"""gtx: an executable graph-transformation workbench.

Host graphs are simple labelled graphs with typed nodes, boolean flags
and scalar attributes.  Rules combine readers, erasers, creators and
embargo (forbidden) elements, nested universal quantifiers with optional
match counting, regular path constraints and printf-style output.  On
top of single-rule application sit a breadth-first state-space explorer
and a built-in, oracle-checked demonstration suite.
"""

from .dsl import (
    Grammar,
    build_grammar,
    parse_graph,
    parse_regex,
    parse_rule,
    parse_type_graph,
    serialize_graph,
)
from .explorer import Lts, certificate, explore, export_lts, isomorphic
from .graph import (
    HostEdge,
    HostGraph,
    HostNode,
    Label,
    Value,
    ValueKind,
    edge_label,
    flag,
    node_type,
)
from .matcher import Match, find_root_matches
from .rewriter import ApplicationResult, Effect, apply_effect, apply_rule, plan_application
from .rules import InvalidRuleError, Role, Rule, validate_rule
from .source import ParseError, SourceSpan, UsageError, Violation
from .suite import SuiteReport, run_suite
from .typegraph import TypeGraph, conforms, is_subtype, validate_type_graph

__version__ = "0.1.0"

__all__ = [
    "ApplicationResult",
    "Effect",
    "Grammar",
    "HostEdge",
    "HostGraph",
    "HostNode",
    "InvalidRuleError",
    "Label",
    "Lts",
    "Match",
    "ParseError",
    "Role",
    "Rule",
    "SourceSpan",
    "SuiteReport",
    "TypeGraph",
    "UsageError",
    "Value",
    "ValueKind",
    "Violation",
    "apply_effect",
    "apply_rule",
    "build_grammar",
    "certificate",
    "conforms",
    "edge_label",
    "explore",
    "export_lts",
    "find_root_matches",
    "flag",
    "is_subtype",
    "isomorphic",
    "node_type",
    "parse_graph",
    "parse_regex",
    "parse_rule",
    "parse_type_graph",
    "plan_application",
    "run_suite",
    "serialize_graph",
    "validate_rule",
    "validate_type_graph",
    "__version__",
]
