"""Textual formats: graphs, type graphs, rules, config, grammar assembly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gtx.dsl import (
    Token,
    _scan_line,
    _serialized_names,
    build_grammar,
    parse_config,
    parse_graph,
    parse_regex,
    parse_rule,
    parse_type_graph,
    parse_value,
    serialize_graph,
    serialize_value,
)
from gtx.explorer import isomorphic
from gtx.graph import HostGraph, Value, ValueKind, edge_label, flag, node_type
from gtx.rewriter import apply_rule
from gtx.rules import ConstraintKind, Role
from gtx.source import ParseError
from gtx.suite import fixture_grammar_names, load_fixture_grammar


def err(callable_, *args):
    with pytest.raises(ParseError) as exc_info:
        callable_(*args)
    return exc_info.value


# -- tokens ------------------------------------------------------------


def test_scanner_splits_on_whitespace_and_tracks_columns():
    toks = _scan_line("edge a -x-> b", "f", 3)
    assert [t.text for t in toks] == ["edge", "a", "-x->", "b"]
    assert toks[2].span.col == 8
    assert toks[2].span.line == 3


def test_scanner_quotes_and_escapes():
    toks = _scan_line(r'format "a\"b\\c\nd\te\rfg"', "f", 1)
    assert toks[1].quoted
    assert toks[1].text == 'a"b\\c\nd\te\rf\x85g'


def test_scanner_rejects_bad_escapes():
    for bad in (r'"\q"', r'"\u12"', r'"\uzzzz"'):
        e = err(_scan_line, f"x {bad}", "f", 1)
        assert "invalid string escape" in e.message


def test_scanner_comments_start_a_token():
    toks = _scan_line("node a # the rest is ignored", "f", 1)
    assert [t.text for t in toks] == ["node", "a"]
    # inside a quoted string a hash is just a character
    toks = _scan_line('assign a.b = "#1"', "f", 1)
    assert toks[-1].text == "#1"


def test_scanner_rejects_unterminated_string():
    e = err(_scan_line, 'format "oops', "f", 2)
    assert "unterminated" in e.message
    assert e.span.line == 2


# -- values ------------------------------------------------------------


def tok(text: str, quoted: bool = False) -> Token:
    return _scan_line(f'"{text}"' if quoted else text, "f", 1)[0]


@pytest.mark.parametrize("text, kind, py", [
    ("0", ValueKind.INT, 0),
    ("-17", ValueKind.INT, -17),
    ("3.5", ValueKind.REAL, 3.5),
    ("-0.25", ValueKind.REAL, -0.25),
    ("true", ValueKind.BOOL, True),
    ("false", ValueKind.BOOL, False),
])
def test_value_literals(text, kind, py):
    v = parse_value(tok(text))
    assert v.kind is kind
    assert v.raw == py


def test_quoted_token_is_always_a_string():
    v = parse_value(tok("true", quoted=True))
    assert v.kind is ValueKind.STRING
    assert v.raw == "true"


def test_bare_word_is_not_a_value():
    assert "invalid value literal" in err(parse_value, tok("banana")).message


@pytest.mark.parametrize("v", [
    Value.int_(41), Value.real(2.5), Value.bool_(True),
    Value.string('say "hi"\n'), Value.real(1e100), Value.int_(-(2**63)),
    Value.real(1e-320), Value.real(-0.0), Value.real(0.0),
])
def test_value_round_trips_through_text(v):
    text = serialize_value(v)
    toks = _scan_line(f"attr a.b = {text}", "f", 1)
    assert parse_value(toks[3]) == v


def test_serialized_strings_escape_only_line_breaking_characters():
    text = 'a b\té\u00a0\n\x85\u2028\u2029"\\'
    assert serialize_value(Value.string(text)) == \
        '"a b\\t\u00e9\u00a0\\n\\u0085\\u2028\\u2029\\"\\\\"'


def test_serialized_real_always_has_a_point():
    assert "." in serialize_value(Value.real(4.0)) or \
        "e" in serialize_value(Value.real(4.0)).lower()


# -- graphs ------------------------------------------------------------


GRAPH = """
graph demo
# leading comment
edge a -knows-> b
node b : Person
node a : Person,Agent flag happy
attr a.age = 34
attr a.name = "Ann"
node lone
"""


def test_parse_graph_allows_forward_references():
    g = parse_graph(GRAPH)
    assert g.name == "demo"
    assert len(g.nodes) == 3
    by_name = {n.name: n for n in g.nodes.values()}
    a = by_name["a"]
    assert {t.name for t in a.types} == {"Person", "Agent"}
    assert {f.name for f in a.flags} == {"happy"}
    assert a.attrs["age"] == Value.int_(34)
    assert len(g.edges) == 1


def test_type_lists_tolerate_spaces_around_commas():
    for spelling in ("A,B", "A, B", "A , B", "A ,B"):
        g = parse_graph(f"graph g\nnode n : {spelling} flag f\n")
        node = next(iter(g.nodes.values()))
        assert {t.name for t in node.types} == {"A", "B"}
        assert {f.name for f in node.flags} == {"f"}


def test_node_ids_follow_name_order():
    g = parse_graph(GRAPH)
    ordered = [g.nodes[i].name for i in g.node_ids()]
    assert ordered == sorted(ordered)


@pytest.mark.parametrize("body, needle", [
    ("node a\nnode a", "duplicate node"),
    ("node a\nattr a.x = 1\nattr a.x = 2", "duplicate attribute"),
    ("node a\nedge a -e-> a\nedge a -e-> a", "duplicate edge"),
    ("edge a -e-> b", "unknown node"),
    ("attr ghost.x = 1", "unknown node"),
    ("node a : bad.type", "label"),
    ("frobnicate a", "unknown declaration"),
])
def test_parse_graph_diagnostics(body, needle):
    e = err(parse_graph, f"graph g\n{body}\n")
    assert needle in e.message


def test_parse_error_spans_point_into_the_file():
    e = err(parse_graph, "graph g\nnode a\nnode a\n", "host.gst")
    assert e.span.file == "host.gst"
    assert e.span.line == 3
    assert e.span.col == 6
    assert str(e).startswith("host.gst:3:6: ")


def test_missing_header_is_an_error():
    assert "expected" in err(parse_graph, "node a\n").message


def test_serialize_is_stable_and_reparsable():
    g = parse_graph(GRAPH)
    text = serialize_graph(g)
    assert text == serialize_graph(parse_graph(text))
    assert text.endswith("\n")


def test_serialize_names_anonymous_nodes_without_clashes():
    g = HostGraph("g")
    g.add_node(name="x1")
    g.add_node()  # id 1 -> candidate "x1" is taken
    text = serialize_graph(g)
    assert "node _x1" in text
    reparsed = parse_graph(text)
    assert len(reparsed.nodes) == 2


BAD_NAMES = ["a b", "x.y", "h#i", '"q', "t\tu", "p:q", "r\u2028s"]


def test_serialize_renames_node_names_the_parser_would_reject():
    g = HostGraph("g")
    ids = [g.add_node([node_type("T")], name=name)
           for name in ["n", *BAD_NAMES, "n", None, "x9"]]
    for i, nid in enumerate(ids):
        g.set_attr(nid, "i", Value.int_(i))
        g.add_edge(nid, edge_label("next"), ids[(i + 1) % len(ids)])
    text = serialize_graph(g)
    reparsed = parse_graph(text)
    assert isomorphic(reparsed, g)
    assert serialize_graph(reparsed) == text
    kept = {n.name: n.attrs["i"] for n in reparsed.nodes.values()
            if not n.name.startswith(("x", "_x"))}
    # of the two nodes named n, the lower id keeps the name
    assert kept == {"n": Value.int_(0)}
    assert "node x9 : T" in text  # a valid name stays


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.none(), st.text(max_size=3),
                          st.sampled_from(["n", "x1", "_x1", *BAD_NAMES])),
                min_size=1, max_size=6))
def test_any_node_names_round_trip(names):
    g = HostGraph("g")
    ids = [g.add_node(name=name) for name in names]
    for i, nid in enumerate(ids):
        g.set_attr(nid, "i", Value.int_(i))
    text = serialize_graph(g)
    reparsed = parse_graph(text)
    assert isomorphic(reparsed, g)
    assert serialize_graph(reparsed) == text


def test_fixture_graphs_keep_their_node_names():
    for grammar_name in fixture_grammar_names():
        grammar = load_fixture_grammar(grammar_name)
        graphs = [grammar.start]
        for rule in grammar.rules.values():
            result = apply_rule(rule, grammar.start, grammar.type_graphs)
            graphs += [result.graph] if result is not None else []
        for g in graphs:
            names = _serialized_names(g)
            assert all(names[nid] == node.name
                       for nid, node in g.nodes.items() if node.name)


ident = st.from_regex(r"[a-z][a-z0-9]{0,3}", fullmatch=True)
value = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(Value.int_),
    st.booleans().map(Value.bool_),
    st.text(max_size=6).map(Value.string),
    st.floats(allow_nan=False, allow_infinity=False,
              width=32).map(Value.real),
)


@st.composite
def host_graphs(draw):
    g = HostGraph(draw(ident))
    names = draw(st.lists(ident, min_size=1, max_size=6, unique=True))
    for name in names:
        types = [node_type(t.capitalize()) for t in draw(
            st.lists(ident, max_size=2, unique=True))]
        flags = [flag(f) for f in draw(st.lists(ident, max_size=2, unique=True))]
        nid = g.add_node(types=types, flags=flags, name=name)
        for attr in draw(st.lists(ident, max_size=2, unique=True)):
            g.set_attr(nid, attr, draw(value))
    ids = g.node_ids()
    for _ in range(draw(st.integers(0, 6))):
        g.add_edge(draw(st.sampled_from(ids)),
                   edge_label(draw(ident)),
                   draw(st.sampled_from(ids)))
    return g


@settings(max_examples=60, deadline=None)
@given(host_graphs())
def test_serialization_round_trip(g):
    text = serialize_graph(g)
    reparsed = parse_graph(text)
    assert serialize_graph(reparsed) == text
    assert len(reparsed.nodes) == len(g.nodes)
    assert len(reparsed.edges) == len(g.edges)
    original = {g.nodes[i].name for i in g.node_ids()}
    assert {n.name for n in reparsed.nodes.values()} == original


# -- type graphs -------------------------------------------------------


def test_parse_type_graph_structure():
    tg = parse_type_graph("""
typegraph shapes
type Shape abstract
type Circle extends Shape
type Square extends Shape, Printable
type Printable
attr Shape.area : real
edge Shape -next-> Shape
""")
    assert tg.name == "shapes"
    assert tg.types["Shape"].abstract
    square = tg.types["Square"]
    assert {s.name for s in square.supertypes} == {"Shape", "Printable"}
    assert not square.abstract


@pytest.mark.parametrize("body, needle", [
    ("type A\ntype A", "duplicate type"),
    ("type A\nattr A.x : int\nattr A.x : int", "duplicate attribute"),
    ("type A\nattr A.x : complex", "value kind"),
    ("type A\nedge A -e-> A\nedge A -e-> A", "duplicate edge"),
    ("type A extends B,", "expected a supertype name"),
    ("type A extends ,B", "before ','"),
])
def test_parse_type_graph_diagnostics(body, needle):
    e = err(parse_type_graph, f"typegraph t\n{body}\n")
    assert needle in e.message


# -- regex paths -------------------------------------------------------


def test_parse_regex_atoms_and_inverses():
    p = parse_regex("-src.trg.-x")
    flags_ = [(a.label.name, a.inverse) for a in p.atoms]
    assert flags_ == [("src", True), ("trg", False), ("x", True)]
    assert p.text() == "-src.trg.-x"


@pytest.mark.parametrize("bad", ["", ".", "a..b", "-", "a.-"])
def test_parse_regex_rejects_empty_atoms(bad):
    assert "empty regex atom" in err(parse_regex, bad).message


@pytest.mark.parametrize("bad", ["src|trg", "-src.trg|x", "|"])
def test_parse_regex_rejects_alternation(bad):
    # no alternation yet: "|" must not read as part of one literal label
    assert "reserved character '|'" in err(parse_regex, bad).message


# -- rules -------------------------------------------------------------


RULE = """
rule demo
quant q forall count 1
quant inner forall in q
node g role=reader : Graph
node e role=reader : Edge in q
node x role=embargo : Node in q
node y role=embargo : Node in q
node c role=creator in inner
edge e -src-> x role=embargo in q group hasSrc
edge e -trg-> y role=embargo in q group hasTrg
path g ~-src.trg~> g role=reader
flag e reader marked
match g.kind == "demo"
bind 0 = g.kind
disjoin hasSrc hasTrg
format "%s of %s"
"""


def test_parse_rule_structure():
    r = parse_rule(RULE)
    assert r.name == "demo"
    assert r.quantifiers["q"].count_param == 1
    assert r.quantifiers["inner"].parent == "q"
    assert r.quantifiers["q"].parent == "root"
    assert r.nodes["e"].level == "q"
    assert r.nodes["c"].role is Role.CREATOR
    assert r.nodes["e"].flag_ops == [(flag("marked"), Role.READER)]
    assert r.nodes["g"].attr_constraints["kind"].kind is ConstraintKind.MATCH
    assert set(r.nac_groups) == {"hasSrc", "hasTrg"}
    assert r.disjunction_sets[0].group_ids == ("hasSrc", "hasTrg")
    assert r.params == {0: ("g", "kind")}
    assert r.print_format == "%s of %s"
    path_edges = [e for e in r.edges if e.is_path()]
    assert len(path_edges) == 1
    assert path_edges[0].label.text() == "-src.trg"


def test_parse_rule_line_order_is_free():
    shuffled = """
rule demo
match n.name == "n1"
edge e -src-> n role=reader in q
node n role=reader : Node
node e role=reader : Edge in q
quant q forall
"""
    r = parse_rule(shuffled)
    assert r.edges[0].level == "q"
    assert r.nodes["n"].attr_constraints["name"].value == Value.string("n1")


def test_rewrite_line_parses_to_a_rename_constraint():
    r = parse_rule("rule r\nnode n role=reader\nrewrite n.name -> text\n")
    c = r.nodes["n"].attr_constraints["name"]
    assert c.kind is ConstraintKind.RENAME
    assert c.new_name == "text"


def test_neq_expands_pairwise():
    r = parse_rule("rule r\nnode a role=reader\nnode b role=reader\n"
                   "node c role=reader\nneq a b c\n")
    assert r.injectivity_pairs == {("a", "b"), ("a", "c"), ("b", "c")}


@pytest.mark.parametrize("body, needle", [
    ("quant root forall", "reserved"),
    ("quant q forall\nquant q forall", "duplicate quantifier"),
    ("node a role=reader\nnode a role=reader", "duplicate rule node"),
    ("node a role=chef", "unknown role 'chef'"),
    ("node a reader", "expected role="),
    ("node a role=reader in ghost", "unknown quantifier 'ghost'"),
    ("edge a -e-> b role=reader", "unknown rule node"),
    ("node a role=reader\nedge a -e-> a role=reader\n"
     "edge a -e-> a role=reader", "duplicate edge"),
    ("node a role=reader\npath a ~x~> a role=creator", "reader or role=embargo"),
    ("node a role=reader\nedge a -e-> a role=reader group g",
     "only embargo edges"),
    ("node a role=reader\nmatch a.x == 1\nassign a.x = 2",
     "conflicting constraint"),
    ("node a role=reader\nbind 0 = a.x\nbind 0 = a.y",
     "duplicate parameter index"),
    ("node a role=reader\nneq a a", "repeated in injectivity"),
    ("disjoin g h", "unknown NAC group"),
    ('format "a"\nformat "b"', "duplicate format"),
    ("format bare", 'expected: format "FMT"'),
    ("paint a red", "unknown declaration"),
])
def test_parse_rule_diagnostics(body, needle):
    e = err(parse_rule, f"rule r\n{body}\n")
    assert needle in e.message, f"{needle!r} missing from {e.message!r}"


# -- config + grammar assembly ----------------------------------------


def test_parse_config_pairs_and_comments():
    pairs = parse_config("# banner\nstart = a.gst\n\ntypegraph = t.gty\n")
    assert [(k, v) for k, v, _ in pairs] == \
        [("start", "a.gst"), ("typegraph", "t.gty")]


def test_parse_config_rejects_malformed_lines():
    assert "expected" in err(parse_config, "start a.gst\n").message


TG_A = "typegraph a\ntype N\n"
TG_B = "typegraph b\ntype M\n"
RULE_OK = "rule one\nnode n role=reader\n"
GST = "graph h\nnode n\n"


def test_build_grammar_defaults():
    g = build_grammar({"r.gpr": RULE_OK, "a.gty": TG_A, "b.gty": TG_B,
                       "h.gst": GST, "notes.txt": "ignored"})
    assert list(g.rules) == ["one"]
    assert [t.name for t in g.type_graphs] == ["a", "b"]  # all, sorted by file
    assert g.start_file == "h.gst"
    assert g.start is not None and len(g.start.nodes) == 1


def test_build_grammar_config_selects_start_and_typegraphs():
    files = {
        "a.gty": TG_A, "b.gty": TG_B,
        "one.gst": GST, "two.gst": "graph k\n",
        "grammar.cfg": "start = two.gst\ntypegraph = b.gty\n",
    }
    g = build_grammar(files, name="pick")
    assert g.name == "pick"
    assert g.start_file == "two.gst"
    assert [t.name for t in g.type_graphs] == ["b"]


def test_build_grammar_without_any_graph_has_no_start():
    g = build_grammar({"r.gpr": RULE_OK})
    assert g.start is None and g.start_file is None


@pytest.mark.parametrize("files, needle", [
    ({"a.gst": GST, "b.gst": GST}, "several .gst files"),
    ({"grammar.cfg": "start = ghost.gst\n"}, "not found"),
    ({"a.gty": TG_A, "grammar.cfg": "typegraph = a.gty\ntypegraph = a.gty\n"},
     "enabled twice"),
    ({"a.gst": GST, "grammar.cfg": "start = a.gst\nstart = a.gst\n"},
     "duplicate config key"),
    ({"grammar.cfg": "flavour = mint\n"}, "unknown config key"),
    ({"a.gpr": RULE_OK, "b.gpr": RULE_OK}, "more than once"),
])
def test_build_grammar_diagnostics(files, needle):
    e = err(build_grammar, files)
    assert needle in e.message


# -- diagnostics table -------------------------------------------------


# One row per diagnostic the parsers report: the parser, its input, and
# the exact message and span (line, col, end_col).  Each parser and the
# scanner, value and regex readers, config and grammar assembly appear.
DIAGNOSTICS = [
    ('rule', 'rule r\nformat "oops',
     'unterminated string literal', 2, 8, 13),
    ('rule', 'rule r\nformat "a\\qb"',
     'invalid string escape', 2, 10, 12),
    ('rule', 'rule r\nformat "a\\u12"',
     'invalid string escape', 2, 10, 12),
    ('graph', 'graph g\nnode "a"',
     'expected node name', 2, 6, 9),
    ('graph', 'graph g\nnode a:b',
     "node name 'a:b' contains reserved character ':'", 2, 6, 9),
    ('graph', 'graph g\n\nnode a\nattr ab = 1',
     'expected attribute reference of the form A.B', 4, 6, 8),
    ('graph', 'graph g\nnode a\nattr a.b-c = 1',
     "attribute reference 'a.b-c' contains reserved character '-'", 3, 6, 11),
    ('graph', 'graph g\nnode a\nattr a.x = 99999999999999999999',
     'integer literal out of 64-bit range', 3, 12, 32),
    # a real literal that overflows to infinity
    ('graph', 'graph g\nnode a\nattr a.x = 1.0e999',
     'real literal out of range', 3, 12, 19),
    ('graph', 'graph g\nnode a\nattr a.x = -1.0e999',
     'real literal out of range', 3, 12, 20),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x == 1.0e999',
     'real literal out of range', 3, 14, 21),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x == -1.0e999',
     'real literal out of range', 3, 14, 22),
    ('rule', 'rule r\nnode a role=reader\nassign a.x = 1.0e999',
     'real literal out of range', 3, 14, 21),
    ('rule', 'rule r\nnode a role=reader\nassign a.x = -1.0e999',
     'real literal out of range', 3, 14, 22),
    # a real literal with a nonzero mantissa that underflows to zero
    ('graph', 'graph g\nnode a\nattr a.x = 1.0e-999',
     'real literal out of range', 3, 12, 20),
    ('graph', 'graph g\nnode a\nattr a.x = -1.0e-999',
     'real literal out of range', 3, 12, 21),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x == 1.0E-400',
     'real literal out of range', 3, 14, 22),
    ('rule', 'rule r\nnode a role=reader\nassign a.x = -0.001e-999',
     'real literal out of range', 3, 14, 25),
    ('graph', 'graph g\nnode a\nattr a.x = banana',
     "invalid value literal 'banana'", 3, 12, 18),
    ('graph', 'graph g\nnode a\nattr a.x : 1',
     "expected '='", 3, 10, 11),
    ('graph', 'graph g extra',
     "unexpected token 'extra'", 1, 9, 14),
    ('graph', '# nothing here\n',
     "empty file, expected a 'graph' header", 1, 1, 2),
    ('graph', 'node a\n',
     "expected 'graph'", 1, 1, 5),
    ('graph', 'graph g\nnode a : A,,B',
     'empty type name in list', 2, 10, 14),
    ('graph', 'graph g\nnode a :',
     'expected a type name', 2, 9, 10),
    ('graph', 'graph g\nnode a\nedge a =e=> a',
     'expected an edge arrow of the form -label->', 3, 8, 12),
    ('graph', 'graph g\nnode a\nedge a -e-f-> a',
     "label name 'e-f' contains reserved character '-'", 3, 8, 14),
    ('graph', 'graph g\nnode',
     'node line needs a name', 2, 5, 6),
    ('graph', 'graph g\nnode a\nnode a',
     "duplicate node 'a'", 3, 6, 7),
    ('graph', 'graph g\nnode a : bad.type',
     "label name 'bad.type' contains reserved character '.'", 2, 8, 9),
    ('graph', 'graph g\nnode a flog f',
     "expected 'flag'", 2, 8, 12),
    ('graph', 'graph g\nnode a flag',
     'expected a flag name', 2, 12, 13),
    ('graph', 'graph g\nnode a\nattr a.x =',
     'expected: attr ID.NAME = VALUE', 3, 11, 12),
    ('graph', 'graph g\nnode a\nattr a.x = 1 2',
     'expected: attr ID.NAME = VALUE', 3, 14, 15),
    ('graph', 'graph g\nedge a -e->',
     'expected: edge SRC -LABEL-> TGT', 2, 12, 13),
    ('graph', 'graph g\nedge a -e-> b c',
     'expected: edge SRC -LABEL-> TGT', 2, 15, 16),
    ('graph', 'graph g\nnode a\nedge a -e-> a\nedge a -e-> a',
     'duplicate edge a -e-> a', 4, 8, 12),
    ('graph', 'graph g\nfrobnicate a',
     "unknown declaration 'frobnicate'", 2, 1, 11),
    ('graph', 'graph g\n"node" a',
     'expected a declaration keyword', 2, 1, 7),
    ('graph', 'graph g\nattr ghost.x = 1',
     "attribute on unknown node 'ghost'", 2, 6, 13),
    ('graph', 'graph g\nnode a\nattr a.x = 1\nattr a.x = 2',
     'duplicate attribute a.x', 4, 6, 9),
    ('graph', 'graph g\nnode a\nedge a -e-> b',
     "edge references unknown node 'b'", 3, 13, 14),
    ('typegraph', 'typegraph',
     "'typegraph' header needs a name", 1, 10, 11),
    ('typegraph', 'typegraph t\ntype',
     'type line needs a name', 2, 5, 6),
    ('typegraph', 'typegraph t\ntype A\ntype A',
     "duplicate type 'A'", 3, 6, 7),
    ('typegraph', 'typegraph t\ntype A extends ,B',
     "expected a supertype name before ','", 2, 16, 18),
    ('typegraph', 'typegraph t\ntype A extends B,',
     'expected a supertype name', 2, 18, 19),
    ('typegraph', 'typegraph t\ntype A extends B.C',
     "label name 'B.C' contains reserved character '.'", 2, 8, 15),
    ('typegraph', 'typegraph t\ntype A abstract B',
     "expected 'extends'", 2, 17, 18),
    ('typegraph', 'typegraph t\ntype A extends B C',
     "unexpected token 'C'", 2, 18, 19),
    ('typegraph', 'typegraph t\ntype A\nattr A.x :',
     'expected: attr TYPE.NAME : KIND', 3, 11, 12),
    ('typegraph', 'typegraph t\ntype A\nattr A.x = int',
     "expected ':'", 3, 10, 11),
    ('typegraph', 'typegraph t\ntype A\nattr A.x : complex',
     'expected a value kind (string, int, bool or real)', 3, 12, 19),
    ('typegraph', 'typegraph t\ntype A\nedge A -e-> A A',
     'expected: edge TYPE -LABEL-> TYPE', 3, 15, 16),
    ('typegraph', 'typegraph t\nattr Ghost.x : int',
     "attribute on undeclared type 'Ghost'", 2, 6, 13),
    ('typegraph', 'typegraph t\ntype A\nattr A.x : int\nattr A.x : int',
     'duplicate attribute A.x', 4, 6, 9),
    ('typegraph', 'typegraph t\ntype A\nedge A -e-> A\nedge A -e-> A',
     'duplicate edge A -e-> A', 4, 8, 12),
    ('typegraph', 'typegraph t\nedge A -e-> B.C',
     "target type 'B.C' contains reserved character '.'", 2, 13, 16),
    ('regex', 'a..b',
     'empty regex atom', 1, 1, 5),
    ('regex', 'a.b-c',
     "label name 'b-c' contains reserved character '-'", 1, 1, 6),
    ('rule', 'rule r\nnode a reader',
     'expected role=READER|eraser|creator|embargo', 2, 8, 14),
    ('rule', 'rule r\nnode a role=chef',
     "unknown role 'chef'", 2, 8, 17),
    ('rule', 'rule r\nnode a role=reader in',
     'expected a quantifier id', 2, 22, 23),
    ('rule', 'rule r\nnode a role=reader\nedge a -e-> a role=embargo group',
     'expected a NAC group id', 3, 33, 34),
    ('rule', 'rule r\nnode a role=reader group g',
     "unexpected token 'group'", 2, 20, 25),
    ('rule', 'rule r\nquant q',
     'expected: quant QID forall ...', 2, 8, 9),
    ('rule', 'rule r\nquant root forall',
     "quantifier id 'root' is reserved", 2, 7, 11),
    ('rule', 'rule r\nquant q forall\nquant q forall',
     "duplicate quantifier 'q'", 3, 7, 8),
    ('rule', 'rule r\nquant q forall count',
     'expected a parameter index', 2, 21, 22),
    ('rule', 'rule r\nquant q forall count -1',
     'expected parameter index (a non-negative integer)', 2, 22, 24),
    # only ASCII digits: int() rejects superscripts, and other scripts'
    # digits are no parameter index either
    ('rule', 'rule r\nquant q forall count \u00b2',
     'expected parameter index (a non-negative integer)', 2, 22, 23),
    ('rule', 'rule r\nquant q forall count \u0663',
     'expected parameter index (a non-negative integer)', 2, 22, 23),
    ('rule', 'rule r\nquant q exists',
     "expected 'forall'", 2, 9, 15),
    ('rule', 'rule r\nquant q forall in ghost',
     "unknown quantifier 'ghost'", 2, 19, 24),
    ('rule', 'rule r\nquant q forall bogus',
     "unexpected token 'bogus'", 2, 16, 21),
    ('rule', 'rule r\nnode a',
     'expected: node ID role=ROLE ...', 2, 7, 8),
    ('rule', 'rule r\nnode a role=reader\nnode a role=reader',
     "duplicate rule node 'a'", 3, 6, 7),
    ('rule', 'rule r\nnode a role=reader :',
     'expected a type name', 2, 21, 22),
    ('rule', 'rule r\nnode a role=reader : T in ghost',
     "unknown quantifier 'ghost'", 2, 27, 32),
    ('rule', 'rule r\nnode a role=reader\nedge a -e-> a',
     'expected: edge SRC arrow TGT role=ROLE ...', 3, 14, 15),
    ('rule', 'rule r\nnode a role=reader\npath a -e-> a role=reader',
     'expected a path arrow of the form ~regex~>', 3, 8, 12),
    ('rule', 'rule r\nnode a role=reader\npath a ~e..f~> a role=reader',
     'empty regex atom', 3, 8, 15),
    ('rule', 'rule r\nnode a role=reader\npath a ~e~> a role=creator',
     'path edges must be role=reader or role=embargo', 3, 15, 27),
    ('rule', 'rule r\nnode a role=reader\nedge a -e-> a role=reader group g',
     'only embargo edges take a NAC group', 3, 15, 26),
    ('rule', 'rule r\nedge a -e-> b role=reader',
     "unknown rule node 'a'", 2, 6, 7),
    ('rule', 'rule r\nnode a role=reader\nedge a -e-> a role=reader in ghost',
     "unknown quantifier 'ghost'", 3, 30, 35),
    ('rule', 'rule r\nnode a role=reader\nedge a -e-> a role=reader\n'
             'edge a -e-> a role=reader',
     'duplicate edge a -e-> a', 4, 8, 12),
    ('rule', 'rule r\nnode a role=reader\nflag a reader',
     'expected: flag ID ROLE FLAGNAME', 3, 14, 15),
    ('rule', 'rule r\nnode a role=reader\nflag a chef f',
     "unknown role 'chef'", 3, 8, 12),
    ('rule', 'rule r\nflag a reader f',
     "unknown rule node 'a'", 2, 6, 7),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x ==',
     'expected: match ID.NAME == VALUE', 3, 13, 14),
    ('rule', 'rule r\nnode a role=reader\nassign a.x =',
     'expected: assign ID.NAME = VALUE', 3, 13, 14),
    ('rule', 'rule r\nnode a role=reader\nrewrite a.x ->',
     'expected: rewrite ID.OLD -> NEW', 3, 15, 16),
    ('rule', 'rule r\nnode a role=reader\nbind 0 =',
     'expected: bind PIDX = ID.NAME', 3, 9, 10),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x = 1',
     "expected '=='", 3, 11, 12),
    ('rule', 'rule r\nnode a role=reader\nassign a.x == 1',
     "expected '='", 3, 12, 14),
    ('rule', 'rule r\nnode a role=reader\nrewrite a.x => y',
     "expected '->'", 3, 13, 15),
    ('rule', 'rule r\nnode a role=reader\nbind 0 == a.x',
     "expected '='", 3, 8, 10),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x == 1\nassign a.x = 2',
     'conflicting constraint for attribute a.x', 4, 8, 11),
    ('rule', 'rule r\nmatch a.x == 1',
     "unknown rule node 'a'", 2, 7, 10),
    ('rule', 'rule r\nnode a role=reader\nrewrite a.x -> y.z',
     "attribute name 'y.z' contains reserved character '.'", 3, 16, 19),
    ('rule', 'rule r\nnode a role=reader\nbind 0 = a.x\nbind 0 = a.y',
     'duplicate parameter index 0', 4, 6, 7),
    ('rule', 'rule r\nbind 0 = a.x',
     "unknown rule node 'a'", 2, 10, 13),
    ('rule', 'rule r\nnode a role=reader\nbind \u00b2 = a.x',
     'expected parameter index (a non-negative integer)', 3, 6, 7),
    ('rule', 'rule r\nnode a role=reader\nbind \u0661\u0662 = a.x',
     'expected parameter index (a non-negative integer)', 3, 6, 8),
    ('rule', 'rule r\nnode a role=reader\nneq a',
     'expected: neq ID ID ...', 3, 6, 7),
    ('rule', 'rule r\nnode a role=reader\nneq a a',
     "node 'a' repeated in injectivity declaration", 3, 7, 8),
    ('rule', 'rule r\nnode a role=reader\nneq a b',
     "unknown rule node 'b'", 3, 7, 8),
    ('rule', 'rule r\ndisjoin g',
     'expected: disjoin GID GID ...', 2, 10, 11),
    ('rule', 'rule r\ndisjoin g h',
     "unknown NAC group 'g'", 2, 9, 10),
    ('rule', 'rule r\nformat bare',
     'expected: format "FMT"', 2, 8, 12),
    ('rule', 'rule r\nformat "a" "b"',
     'expected: format "FMT"', 2, 8, 11),
    ('rule', 'rule r\nformat "a"\nformat "b"',
     'duplicate format line', 3, 1, 7),
    ('rule', 'rule r\npaint a red',
     "unknown declaration 'paint'", 2, 1, 6),
    ('rule', 'rule r\n"node" a',
     'expected a declaration keyword', 2, 1, 7),
    # the three diagnostics the shared line readers mend
    ('rule', 'rule r\nquant q forall in a in b count 0 count 1',
     "unexpected token 'in'", 2, 21, 23),
    ('rule', 'rule r\nquant q forall count 0 count 1',
     "unexpected token 'count'", 2, 24, 29),
    ('rule', 'rule r\nnode a role=reader\nnode b role=reader\n'
             'edge a -e-> b role=embargo in zz group g',
     "unknown quantifier 'zz'", 4, 31, 33),
    ('rule', 'rule r\nnode a role=reader\nflag a reader f extra',
     'expected: flag ID ROLE FLAGNAME', 3, 17, 22),
    ('rule', 'rule r\nnode a role=reader\nmatch a.x == 1 extra',
     'expected: match ID.NAME == VALUE', 3, 16, 21),
    ('rule', 'rule r\nnode a role=reader\nassign a.x = 1 extra',
     'expected: assign ID.NAME = VALUE', 3, 16, 21),
    ('rule', 'rule r\nnode a role=reader\nrewrite a.x -> y extra',
     'expected: rewrite ID.OLD -> NEW', 3, 18, 23),
    ('rule', 'rule r\nnode a role=reader\nbind 0 = a.x extra',
     'expected: bind PIDX = ID.NAME', 3, 14, 19),
    ('config', 'start a.gst',
     'expected KEY = VALUE', 1, 1, 12),
    ('config', 'two words = x',
     'malformed config key', 1, 1, 14),
    ('config', 'start =',
     "config key 'start' has no value", 1, 1, 8),
    ('grammar', {'a.gpr': 'rule one\n', 'b.gpr': 'rule one\n'},
     "rule 'one' is defined more than once", 1, 1, 2),
    ('grammar', {'a.gst': 'graph h\n',
                 'grammar.cfg': 'start = a.gst\nstart = a.gst\n'},
     "duplicate config key 'start'", 2, 1, 14),
    ('grammar', {'grammar.cfg': 'start = ghost.gst\n'},
     "start graph 'ghost.gst' not found", 1, 1, 18),
    ('grammar', {'grammar.cfg': 'typegraph = t.gty\n'},
     "type graph 't.gty' not found", 1, 1, 18),
    ('grammar', {'t.gty': 'typegraph t\n',
                 'grammar.cfg': 'typegraph = t.gty\ntypegraph = t.gty\n'},
     "type graph 't.gty' enabled twice", 2, 1, 18),
    ('grammar', {'grammar.cfg': 'flavour = mint\n'},
     "unknown config key 'flavour'", 1, 1, 15),
    ('grammar', {'a.gst': 'graph h\n', 'b.gst': 'graph k\n'},
     "several .gst files; pick one with 'start = FILE' in grammar.cfg",
     1, 1, 2),

]

PARSERS = {"graph": parse_graph, "typegraph": parse_type_graph,
           "rule": parse_rule, "regex": parse_regex, "config": parse_config,
           "grammar": build_grammar}


def test_diagnostics_table():
    actual = []
    for parser, source, *_ in DIAGNOSTICS:
        e = err(PARSERS[parser], source)
        actual.append((parser, source, e.message,
                       e.span.line, e.span.col, e.span.end_col))
    assert actual == DIAGNOSTICS


def test_quant_suffixes_may_not_repeat():
    for line, repeated, col in [("quant q forall in a in b", "in", 21),
                                ("quant q forall count 0 count 1", "count",
                                 24)]:
        e = err(parse_rule, f"rule r\nquant a forall\nquant b forall\n{line}")
        assert e.message == f"unexpected token {repeated!r}"
        assert (e.span.line, e.span.col) == (4, col)


def test_unknown_edge_quantifier_points_at_its_id():
    e = err(parse_rule, "rule r\nnode a role=reader\n"
                        "edge a -e-> a role=embargo in zz group g\n")
    assert e.message == "unknown quantifier 'zz'"
    assert (e.span.col, e.span.end_col) == (31, 33)


@pytest.mark.parametrize("line", [
    "flag a reader f", "match a.x == 1", "assign a.x = 1",
    "rewrite a.x -> y", "bind 0 = a.x",
])
def test_overlong_rule_line_points_at_the_first_extra_token(line):
    e = err(parse_rule, f"rule r\nnode a role=reader\n{line} extra more\n")
    assert e.message.startswith(f"expected: {line.split()[0]} ")
    assert (e.span.col, e.span.end_col) == (len(line) + 2, len(line) + 7)
