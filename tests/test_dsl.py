"""Textual formats: graphs, type graphs, rules, config, grammar assembly."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gtx.dsl import (
    Token,
    _scan_line,
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
from gtx.graph import HostGraph, Value, ValueKind, edge_label, flag, node_type
from gtx.rules import ConstraintKind, QuantKind, Role
from gtx.source import ParseError


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
])
def test_value_round_trips_through_text(v):
    text = serialize_value(v)
    toks = _scan_line(f"attr a.b = {text}", "f", 1)
    assert parse_value(toks[3]) == v


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
    assert r.quantifiers["q"].kind is QuantKind.FORALL
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
