"""Textual formats: graphs, type graphs, rules, config, grammar assembly."""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import gtx.dsl
from gtx.dsl import (
    Token,
    _declarations,
    _dotted,
    _edge_label_token,
    _end_span,
    _expect,
    _ident,
    _keyword,
    _scan_line,
    _serialized_names,
    _shape,
    _type_list,
    _words,
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
from gtx.graph import (HostEdge, HostGraph, Label, Value, ValueKind,
                       edge_label, flag, node_type)
from gtx.rewriter import apply_rule
from gtx.rules import ConstraintKind, Role
from gtx.source import ParseError, SourceSpan
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


def test_a_surrogate_escape_is_invalid():
    for bad in (r'"\ud800"', r'"\uDBFF"', r'"\udc00"', r'"\uDfFf"'):
        e = err(_scan_line, f"x {bad}", "f", 1)
        assert (e.message, e.span.col) == ("invalid string escape", 4)
    toks = _scan_line(r'x "\ud7ff\ue000"', "f", 1)
    assert toks[1].text == "\ud7ff\ue000"


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


_REF_ESCAPE = r'[\\"nrt]|u(?![dD][89a-fA-F])[0-9a-fA-F]{4}'
_REF_TOKEN_RE = re.compile(
    rf'"((?:[^"\\]|\\(?:{_REF_ESCAPE}))*)("?)|#|[^ \t\r#]+')
_REF_ESCAPE_RE = re.compile(rf'\\({_REF_ESCAPE})')
_REF_NAMED = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def reference_scan(text: str, file: str, lineno: int) -> list[Token]:
    """The scanner as one regex loop over every line: each match is a
    string (its well-formed body and its closing quote, if any), a comment
    or a bare word."""
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        body, closed = m.group(1, 2)
        start, end = m.span()
        if body is None and m.group() == "#":
            break
        if body is None or closed:
            word = m.group() if body is None else _REF_ESCAPE_RE.sub(
                lambda e: (_REF_NAMED.get(e.group(1))
                           or chr(int(e.group(1)[1:], 16))), body)
            tokens.append(Token(word, file, lineno, start + 1, end + 1,
                                body is not None))
        elif end == len(text):
            raise ParseError("unterminated string literal",
                             SourceSpan(file, lineno, start + 1, end + 1))
        else:
            raise ParseError("invalid string escape",
                             SourceSpan(file, lineno, end + 1, end + 3))
    return tokens


def scan_outcome(scan, text: str):
    try:
        return scan(text, "f", 7)
    except ParseError as e:
        return e.message, e.span


#: separators, comments, quotes, good and bad escapes, Unicode spaces and
#: control characters that are word characters, and empty words
SCAN_PIECES = [" ", "  ", "\t", "\r", "#", '"', '"', "\\", "\\u00e9",
               "\\ud800", "\\u12", "\\q", "\\n", '\\"', "\xa0", "\u3000",
               "\x1f", "\x0b", "a", "bc", "-x->", "é", ""]


def reference_words(text: str) -> list[str] | None:
    """The words the graph reader may take from a line without scanning
    it: its token texts, an ``attr`` line's string value as its text, and
    None for any other line with a string."""
    tokens = reference_scan(text, "f", 7)
    quoted = [t.quoted for t in tokens]
    if any(quoted) and (quoted != [False, False, False, True]
                        or tokens[0].text != "attr"):
        return None
    return [t.text for t in tokens]


def test_scanner_agrees_with_the_reference_regex_loop(monkeypatch):
    def no_scan(*args):
        raise AssertionError("_words scanned a line")

    # the names imported above keep the real scanner for the comparison
    monkeypatch.setattr(gtx.dsl, "_scan_line", no_scan)
    seen = Counter()
    for seed in range(4000):
        rng = random.Random(seed)
        text = "".join(rng.choice(SCAN_PIECES)
                       for _ in range(rng.randint(0, 12)))
        expected = scan_outcome(reference_scan, text)
        assert scan_outcome(_scan_line, text) == expected, repr(text)
        # the graph reader's words, where it takes a line without scanning:
        # the reference scanner reads the same words there, with no error
        words = _words(text)
        assert words is None or words == reference_words(text), repr(text)
        seen["error" if isinstance(expected, tuple) else
             "string" if '"' in text else "plain"] += 1
    assert min(seen.values()) >= 300, seen


def test_parsing_a_valid_graph_builds_no_source_span(monkeypatch):
    built = []

    class CountingSpan(SourceSpan):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(gtx.dsl, "SourceSpan", CountingSpan)
    lines = ["graph g", "node gr : Graph"]
    for i in range(50):
        lines += [f"node n{i} : Node flag seen", f'attr n{i}.name = "n{i}"',
                  f"edge gr -nodes-> n{i}", f"node e{i} : Edge",
                  f"edge gr -edges-> e{i}", f"edge e{i} -src-> n{i}",
                  f"edge e{i} -trg-> n{(i + 1) % 50}"]
    g = parse_graph("\n".join(lines))
    assert (len(g.nodes), len(g.edges)) == (101, 200)
    assert built == []
    # an error still builds its span
    assert err(parse_graph, "graph g\nnode a : bad.type").span.col == 8
    assert built == [("<graph>", 2, 8, 9)]


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


def _reference_serialized_string(text: str) -> str:
    """The escaping one character at a time, as the serializer did before
    it used one regex."""
    named = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
             "\t": "\\t"}
    out = []
    for ch in text:
        o = ord(ch)
        if ch in named:
            out.append(named[ch])
        elif (o < 0x20 or o == 0x7F or 0x80 <= o <= 0x9F
              or ch in "\u2028\u2029"):
            out.append(f"\\u{o:04x}")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


def test_serialized_strings_match_the_per_character_escaping():
    every = "".join(map(chr, range(0x3000)))
    assert serialize_value(Value.string(every)) == \
        _reference_serialized_string(every)
    pool = [*map(chr, range(0x20)), *map(chr, range(0x7F, 0xA0)),
            "\u2028", "\u2029", '"', "\\", "a", " ", "é", "中", "😀"]
    rng = random.Random(11)
    for _ in range(2000):
        text = "".join(rng.choices(pool, k=rng.randint(0, 12)))
        assert serialize_value(Value.string(text)) == \
            _reference_serialized_string(text), repr(text)


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


def test_a_bad_node_line_is_reported_before_an_earlier_bad_edge_line():
    # node lines are read first: the graph's nodes are known before any
    # attr or edge line is applied to it
    e = err(parse_graph, "graph g\nedge a =e=> b\nnode b :")
    assert e.message == "expected a type name"
    assert (e.span.line, e.span.col, e.span.end_col) == (3, 9, 10)


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


@pytest.mark.parametrize("name, written", [
    ("demo", "demo"), ("a#b", "g"), ("my graph", "g"), ("", "g"),
    ('"q', "g"), ("a.b", "g")])
def test_a_graph_name_the_parser_would_reject_is_written_as_g(name, written):
    text = serialize_graph(HostGraph(name))
    reparsed = parse_graph(text)
    assert reparsed.name == written
    assert serialize_graph(reparsed) == text


def test_a_name_utf8_cannot_encode_is_renamed():
    g = HostGraph("g\ud800")
    g.add_node(name="a\ud800")
    text = serialize_graph(g)
    assert text == "graph g\nnode x0\n"
    text.encode()


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


#: plain characters, and ones that a name may not hold or begin with
odd_name = st.one_of(st.text(st.sampled_from(
    [*"ab_1", *" \t.#,-:=|\"\\", "\xa0", "\u2028", "\ud800", "é"]),
    max_size=4), st.text(max_size=3))


@st.composite
def api_graphs(draw):
    """A graph built through the public API from arbitrary names and
    strings.  Each call is made; one that raises ValueError is refused
    and leaves the graph as it was."""
    def refused(call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except ValueError:
            return None

    def labels(make):
        made = [refused(make, name) for name in draw(
            st.lists(odd_name, max_size=2))]
        return [label for label in made if label is not None]

    def value():
        return draw(st.one_of(
            st.builds(refused, st.just(Value.string), odd_name),
            st.integers(-(2**63), 2**63 - 1).map(Value.int_),
            st.floats(allow_nan=False, allow_infinity=False).map(Value.real),
            st.booleans().map(Value.bool_)))

    g = HostGraph(draw(odd_name))
    for _ in range(draw(st.integers(1, 4))):
        attrs = {name: v for name in draw(st.lists(odd_name, max_size=2))
                 if (v := value()) is not None}
        refused(g.add_node, labels(node_type), labels(flag),
                name=draw(st.none() | odd_name), attrs=attrs)
    ids = g.node_ids()
    for _ in range(draw(st.integers(0, 3)) if ids else 0):
        v = value()
        if v is not None:
            refused(g.set_attr, draw(st.sampled_from(ids)), draw(odd_name), v)
    for label in labels(edge_label) if ids else []:
        g.add_edge(draw(st.sampled_from(ids)), label,
                   draw(st.sampled_from(ids)))
    return g


def named_form(g: HostGraph, names: dict[int, str]):
    """``g``'s nodes and edges, with each node called by ``names``."""
    return sorted((names[nid], sorted(n.types), sorted(n.flags),
                   sorted(n.attrs.items())) for nid, n in g.nodes.items()), \
        sorted((names[s], label, names[t]) for s, label, t in g.edges)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(api_graphs())
def test_a_graph_the_api_accepts_reads_back_from_its_text(g):
    # the serializer renames a node or graph name that would not read back
    text = serialize_graph(g)
    reparsed = parse_graph(text)
    assert reparsed.name in (g.name, "g")
    assert named_form(reparsed, {nid: n.name for nid, n in
                                 reparsed.nodes.items()}) \
        == named_form(g, _serialized_names(g))
    text.encode()


def reads_back(name: str | None) -> bool:
    """Whether ``name`` reads back as itself as a graph and a node name."""
    try:
        g = parse_graph(f"graph {name}\nnode {name}\n") if name else None
        return g is not None and g.name == name == g.nodes[0].name \
            and bool(name.encode())
    except (ParseError, UnicodeEncodeError):
        return False


def reference_serialize(g: HostGraph) -> str:
    """The documented form: nodes by name, each followed by its attributes
    by name, then edges by (source, label, target) name.  A node name that
    does not read back, or that a lower id kept, becomes the first of
    ``x<id>``, ``_x<id>``, ... that no node has."""
    used = {n.name for n in g.nodes.values()}
    names: dict[int, str] = {}
    for nid in sorted(g.nodes):
        name = g.nodes[nid].name
        if not reads_back(name) or name in names.values():
            name = f"x{nid}"
            while name in used:
                name = "_" + name
            used.add(name)
        names[nid] = name
    lines = [f"graph {g.name if reads_back(g.name) else 'g'}"]
    for nid in sorted(g.nodes, key=names.get):
        node = g.nodes[nid]
        words = [f"node {names[nid]}"]
        if node.types:
            words.append(": " + ",".join(sorted(t.name for t in node.types)))
        words += [f"flag {f}" for f in sorted(f.name for f in node.flags)]
        lines.append(" ".join(words))
        lines += [f"attr {names[nid]}.{attr} = {serialize_value(v)}"
                  for attr, v in sorted(node.attrs.items())]
    lines += [f"edge {src} -{label}-> {tgt}" for src, label, tgt in sorted(
        (names[e.src], e.label.name, names[e.tgt]) for e in g.edges)]
    return "\n".join(lines) + "\n"


ORACLE_NAMES = [None, "", "n", "m", "é", "x0", "x3", "_x3", *BAD_NAMES,
                "a\ud800"]
ORACLE_STRINGS = ["", "plain", 'say "hi"', "back\\slash", "line\nbreak",
                  "tab\there\r", "\x01ctl\x7f\x85", "\u2028sep", "é中😀",
                  "\\u0041"]


def random_host(seed: int) -> HostGraph:
    """Several types and flags, every value kind with escapes, unnamed
    nodes, names that must be replaced and ids with gaps."""
    rng = random.Random(seed)
    g = HostGraph(rng.choice(["g", "demo", "my graph", "a#b", "x1"]))
    for _ in range(rng.randint(0, 9)):
        nid = g.add_node(
            [node_type(t) for t in rng.sample(["A", "B", "Cé", "D1"],
                                              rng.randint(0, 2))],
            [flag(f) for f in rng.sample(["hot", "cold", "z"],
                                         rng.randint(0, 2))],
            rng.choice(ORACLE_NAMES) if rng.random() < 0.5
            else f"{rng.choice('anx')}{rng.randint(0, 3)}")
        for attr in rng.sample(["name", "k", "w2", "é"], rng.randint(0, 3)):
            g.set_attr(nid, attr, rng.choice([
                Value.string(rng.choice(ORACLE_STRINGS)),
                Value.int_(rng.choice([0, -1, 2**63 - 1, -2**63,
                                       rng.randint(-99, 99)])),
                Value.bool_(rng.random() < 0.5),
                Value.real(rng.choice([0.0, -0.0, 1.5, -2.5e-300, 1e300,
                                       1 / 3]))]))
    for nid in rng.sample(g.node_ids(), len(g.nodes) // 4):
        g.delete_node_spo(nid)
    ids = g.node_ids()
    for _ in range(rng.randint(0, 12) if ids else 0):
        g.add_edge(rng.choice(ids), edge_label(rng.choice(["e", "f", "ä"])),
                   rng.choice(ids))
    return g


def test_serialize_graph_agrees_with_a_reference_serializer():
    for seed in range(300):
        g = random_host(seed)
        text = serialize_graph(g)
        assert text == reference_serialize(g), seed
        assert serialize_graph(g) == text
        reparsed = parse_graph(text)
        assert serialize_graph(reparsed) == text
        assert isomorphic(reparsed, g)


def reference_parse_graph(text: str, filename: str = "<graph>") -> HostGraph:
    """The token reader that reading lines as words replaced, as it was:
    every line is scanned into Tokens, and the dsl helpers check them."""
    name, lines = _declarations(text, filename, "graph")

    node_specs: dict[str, tuple[list[Label], list[Label]]] = {}
    for tokens in lines:
        if _keyword(tokens) != "node":
            continue
        if len(tokens) < 2:
            raise ParseError("node line needs a name", _end_span(tokens))
        nid = _ident(tokens[1], "node name")
        if nid in node_specs:
            raise ParseError(f"duplicate node {nid!r}", tokens[1].span)
        types: list[Label] = []
        flags: list[Label] = []
        i = 2
        if i < len(tokens) and not tokens[i].quoted and tokens[i].text == ":":
            types, i = _type_list(tokens, i, "type name")
        while i < len(tokens):
            _expect(tokens[i], "flag")
            if i + 1 >= len(tokens):
                raise ParseError("expected a flag name", _end_span(tokens))
            flags.append(flag(_ident(tokens[i + 1], "flag name")))
            i += 2
        node_specs[nid] = (types, flags)

    ids = dict(zip(sorted(node_specs), range(len(node_specs))))
    attrs: dict[str, dict[str, Value]] = {}
    edges: set[HostEdge] = set()
    arrows: dict[str, Label] = {}
    for tokens in lines:
        keyword = _keyword(tokens)
        if keyword == "attr":
            if len(tokens) != 4:
                _shape(tokens, "attr ID.NAME = VALUE")
            owner, attr = _dotted(tokens[1], "attribute reference")
            _expect(tokens[2], "=")
            value = parse_value(tokens[3])
            if owner not in node_specs:
                raise ParseError(f"attribute on unknown node {owner!r}",
                                 tokens[1].span)
            owned = attrs.setdefault(owner, {})
            if attr in owned:
                raise ParseError(f"duplicate attribute {owner}.{attr}",
                                 tokens[1].span)
            owned[attr] = value
        elif keyword == "edge":
            if len(tokens) != 4:
                _shape(tokens, "edge SRC -LABEL-> TGT")
            _, src_tok, arrow, tgt_tok = tokens
            src = None if src_tok.quoted else ids.get(src_tok.text)
            if src is None:
                _ident(src_tok, "edge source")
            lbl = None if arrow.quoted else arrows.get(arrow.text)
            if lbl is None:
                lbl = arrows[arrow.text] = _edge_label_token(arrow)
            tgt = None if tgt_tok.quoted else ids.get(tgt_tok.text)
            if tgt is None:
                _ident(tgt_tok, "edge target")
            if src is None or tgt is None:
                tok = src_tok if src is None else tgt_tok
                raise ParseError(
                    f"edge references unknown node {tok.text!r}", tok.span)
            edge = tuple.__new__(HostEdge, (src, lbl, tgt))
            if edge in edges:
                raise ParseError(f"duplicate edge {src_tok.text} "
                                 f"-{lbl.name}-> {tgt_tok.text}", arrow.span)
            edges.add(edge)
        elif keyword != "node":
            raise ParseError(f"unknown declaration {keyword!r}", tokens[0].span)

    g = HostGraph(name=name)
    for nid in ids:
        g.add_node(*node_specs[nid], name=nid, attrs=attrs.get(nid))
    g.update_edges(added=edges)
    return g


def graph_outcome(parse, text: str):
    """The graph's name, nodes and edges as plain data, or the error."""
    try:
        g = parse(text, "f.gst")
    except ParseError as e:
        return e.message, e.span
    return g.name, sorted(g.edges), [
        (nid, n.name, sorted(n.types), sorted(n.flags), sorted(n.attrs.items()))
        for nid, n in sorted(g.nodes.items())]


def respell(text: str, rng: random.Random) -> str:
    """``text`` with the same tokens written another way: tabs and runs of
    spaces around words, ``: A, B`` and ``: A , B`` type lists, comments,
    blank lines and CRLF line ends."""
    lines = []
    for line in text.splitlines():
        words = [m.group() for m in _REF_TOKEN_RE.finditer(line)]
        if len(words) > 3 and words[2] == ":":
            first, *more = words[3].split(",")
            words[3] = first + "".join(
                rng.choice([",", ", ", " ,", " , "]) + name for name in more)
        seps = ["", *(rng.choice([" ", "  ", "\t", " \t "])
                      for _ in words[1:]), ""]
        if rng.random() < 0.2:
            seps[0], seps[-1] = rng.choice(["", " ", "\t"]), rng.choice(
                ["", " ", "\t", " # a note", "\t#-x-> y", "#"])
        lines.append("".join(sep + word for sep, word in zip(seps, words))
                     + seps[-1])
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "# comment", " \t", "#"]))
    return rng.choice(["\n", "\r\n"]).join(lines) + "\n"


def mutate(text: str, rng: random.Random) -> str:
    """``text`` with one to three faults: a scanner piece put into a line,
    a line duplicated, dropped or swapped, a word quoted, a bad arrow or
    an unknown or malformed edge end."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        line = lines[i]
        fault = rng.randrange(7)
        if fault == 0:
            at = rng.randint(0, len(line))
            lines[i] = line[:at] + rng.choice(SCAN_PIECES) + line[at:]
        elif fault == 1:
            lines.insert(rng.randint(0, len(lines)), line)
        elif fault == 2 and len(lines) > 1:
            del lines[i]
        elif fault == 3:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], line
        elif fault == 4 and line.split():
            word = rng.choice(line.split())
            lines[i] = line.replace(word, f'"{word}"', 1)
        elif fault == 5 and "->" in line:
            lines[i] = re.sub(r"-(\S*)->", rng.choice(
                ["=\\1=>", "-\\1-x->", "--->", "-\\1-", "->", "-.->", '-"\\1->',
                 "-\\1,y->", "-\\1->->"]), line, count=1)
        elif fault == 6 and line.split()[:1] == ["edge"]:
            words = line.split()
            words[rng.choice([1, -1])] = rng.choice(
                ["zz", "a:b", "n.1", "x\xa0y", "-", "a#", '"n0"'])
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def test_parse_graph_agrees_with_the_token_reader():
    seen = Counter()
    for seed in range(2400):
        rng = random.Random(seed)
        g = random_host(seed)
        for nid in rng.sample(g.node_ids(), min(2, len(g.nodes))):
            # Unicode spaces are word characters, in a string too
            g.set_attr(nid, "u", Value.string("a\xa0b\u3000c"))
        text = respell(serialize_graph(g), rng)
        if seed % 3:
            text = mutate(text, rng)
        expected = graph_outcome(reference_parse_graph, text)
        assert graph_outcome(parse_graph, text) == expected, (seed, text)
        seen["error" if len(expected) == 2 else "graph"] += 1
        seen["spaced type list"] += len(expected) == 3 and bool(
            re.search(r": [^ ,]+ ,? ?\S", text))
    assert min(seen.values()) >= 300, seen


def nodified_text(n: int, seed: int) -> str:
    """A graph shaped like the benchmark's migration inputs: a ``Graph``
    node owning ``n`` named nodes and ``2 n`` edge nodes, whose ``src``
    and ``trg`` edges point at random nodes."""
    rng = random.Random(seed)
    lines = ["graph g", "node gr : Graph"]
    for i in range(1, n + 1):
        lines += [f"node n{i} : Node", f'attr n{i}.name = "n{i}"',
                  f"edge gr -nodes-> n{i}"]
    for j in range(1, 2 * n + 1):
        lines += [f"node e{j} : Edge", f"edge gr -edges-> e{j}",
                  f"edge e{j} -src-> n{rng.randint(1, n)}",
                  f"edge e{j} -trg-> n{rng.randint(1, n)}"]
    return "\n".join(lines) + "\n"


def test_valid_graph_files_build_no_token_for_a_quote_free_line(monkeypatch):
    # a valid line is read as words: only a line with a string may be
    # scanned into Tokens, and one whose string has no escape is not
    scanned = []

    def counting_scan(text, file, lineno):
        scanned.append(text)
        return _scan_line(text, file, lineno)

    monkeypatch.setattr(gtx.dsl, "_scan_line", counting_scan)
    g = parse_graph(nodified_text(300, 1))
    assert (len(g.nodes), len(g.edges), scanned) == (901, 2100, [])
    for seed in range(300):
        parse_graph(serialize_graph(random_host(seed)))
    # only the lines whose string has an escape
    assert scanned and all('"' in line and "\\" in line for line in scanned)


def test_a_graph_line_is_scanned_at_most_once(monkeypatch):
    scanned = Counter()

    def counting_scan(text, file, lineno):
        scanned[text] += 1
        return _scan_line(text, file, lineno)

    monkeypatch.setattr(gtx.dsl, "_scan_line", counting_scan)
    lines = ["graph g", 'node a : A, B  # "x"', 'node b # a "quoted" note',
             'attr a.s = "tab\\there"', 'attr b.n = 1  # "one"',
             'attr b.s = "plain"', 'edge a -e-> b # "c"', "edge b -e-> a"]
    g = parse_graph("\n".join(lines))
    # each line with a quote but the escape-free string is scanned, once
    assert scanned == Counter(line for line in lines
                              if '"' in line and "plain" not in line)
    expected = HostGraph(name="g")
    a = expected.add_node([node_type("A"), node_type("B")], name="a",
                          attrs={"s": Value.string("tab\there")})
    b = expected.add_node(name="b", attrs={"n": Value.int_(1),
                                           "s": Value.string("plain")})
    expected.add_edge(a, edge_label("e"), b)
    expected.add_edge(b, edge_label("e"), a)
    assert g == expected


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


def test_comma_lists_agree_with_splitting_the_joined_tokens():
    """A type list and a supertype list parse exactly when joining their
    tokens and splitting on commas leaves no empty name, and then they
    hold those names; otherwise the error is one of the list errors."""
    rng = random.Random(5)
    for _ in range(3000):
        parts = [rng.choice("ABC")]
        for _ in range(rng.randint(0, 3)):
            parts += [rng.choice([",", ", ", " ,", " , "]), rng.choice("ABC")]
        for _ in range(rng.randint(0, 2)):
            fault = rng.randrange(4)
            if fault < 2 and len(parts) > 1:
                parts[rng.randrange(1, len(parts), 2)] = (",,", ", ,")[fault]
            elif fault == 2:
                parts.insert(0, rng.choice([",", ", "]))
            elif fault == 3:
                parts.append(rng.choice([",", " ,"]))
        text = "".join(parts)
        names = "".join(text.split()).split(",")
        # no flag word after the list: a trailing comma reads it as a name
        for parse, source, what, read in [
                (parse_graph, f"graph g\nnode x : {text}\n", "type name",
                 lambda g: next(iter(g.nodes.values())).types),
                (parse_type_graph, f"typegraph t\ntype X extends {text}\n",
                 "supertype name", lambda tg: tg.types["X"].supertypes)]:
            if all(names):
                assert {t.name for t in read(parse(source))} == set(names), text
            else:
                assert err(parse, source).message in (
                    f"expected a {what} before ','", f"empty {what} in list",
                    f"expected a {what}"), text


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
    assert r.disjunction_sets[0] == ("hasSrc", "hasTrg")
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
    # the empty name lies between two tokens
    ('graph', 'graph g\nnode x : A, ,B',
     'empty type name in list', 2, 13, 15),
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
    # a quoted end is not a name, even when its text names a node
    ('graph', 'graph g\nnode a\nedge "a" -e-> a',
     'expected edge source', 3, 6, 9),
    ('graph', 'graph g\nnode a\nedge a -e-> "a"',
     'expected edge target', 3, 13, 16),
    # the source is checked before the arrow
    ('graph', 'graph g\nnode a\nedge a:b =e=> a',
     "edge source 'a:b' contains reserved character ':'", 3, 6, 9),
    ('graph', 'graph g\nnode a\nedge "a" =e=> a',
     'expected edge source', 3, 6, 9),
    # a quoted arrow is no arrow, even after the same text was one
    ('graph', 'graph g\nnode a\nedge a -e-> a\nedge a "-e->" a',
     'expected an edge arrow of the form -label->', 4, 8, 14),
    # a bad name is reported before an unknown one
    ('graph', 'graph g\nnode a\nedge a -e-> b:c',
     "edge target 'b:c' contains reserved character ':'", 3, 13, 16),
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
    ('rule', 'rule r\nformat', 'expected: format "FMT"', 2, 7, 8),
    # a node type name may not hold ",", which a graph file reads as two
    # types, and no label name may begin with '"', which starts a string
    ('rule', 'rule r\nnode x role=creator : a,b',
     "label name 'a,b' contains reserved character ','", 2, 23, 26),
    ('typegraph', 'typegraph t\ntype a,b',
     "label name 'a,b' contains reserved character ','", 2, 6, 9),
    ('typegraph', 'typegraph t\ntype A\nedge A -e-> A,B',
     "label name 'A,B' contains reserved character ','", 3, 13, 16),
    ('graph', 'graph g\nnode a : A,"B"',
     'label name \'"B"\' begins with \'"\'', 2, 8, 9),
    ('graph', 'graph g\nnode a\nedge a -"e-> a',
     'label name \'"e\' begins with \'"\'', 3, 8, 13),
    # a name or string UTF-8 cannot encode, which only a str can hold
    ('graph', 'graph g\nnode a flag x\ud800',
     'label name must be encodable as UTF-8', 2, 13, 15),
    ('graph', 'graph g\nnode a\nattr a.s = "x\ud800"',
     'string value must be encodable as UTF-8', 3, 12, 16),
    ('rule', 'rule r\nnode a role=reader\nflag a reader x\ud800',
     'label name must be encodable as UTF-8', 3, 15, 17),
    ('rule', 'rule r\nnode a role=reader\nmatch a.s == "x\ud800"',
     'string value must be encodable as UTF-8', 3, 14, 18),
    ('rule', 'rule r\nformat "x\ud800"',
     'format string must be encodable as UTF-8', 2, 8, 12),
    # an attribute name HostGraph.add_node would refuse, refused at its
    # line, so before a fault on a later line
    ('graph', 'graph g\nnode a\nattr a.x\ud800 = 1',
     'attribute name must be encodable as UTF-8', 3, 6, 10),
    ('graph', 'graph g\nnode a\nnode b\nattr b.n = 1\nattr a."x = 1',
     'attribute name \'"x\' begins with \'"\'', 5, 6, 10),
    ('graph', 'graph g\nnode a\nattr a."x = 1\nedge a -e-> b',
     'attribute name \'"x\' begins with \'"\'', 3, 6, 10),
    # an attribute name a rule writes, refused as HostGraph.set_attr does
    ('rule', 'rule r\nnode a role=reader\nassign a.x\ud800 = 1',
     'attribute name must be encodable as UTF-8', 3, 8, 12),
    ('rule', 'rule r\nnode a role=reader\nassign a."x = 1',
     'attribute name \'"x\' begins with \'"\'', 3, 8, 12),
    ('rule', 'rule r\nnode a role=reader\nrewrite a.x -> y\ud800',
     'attribute name must be encodable as UTF-8', 3, 16, 18),
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


# -- documented syntax -------------------------------------------------


def syntax_blocks() -> dict[str, list[str]]:
    """The lines of each ``::`` block of the ``gtx.dsl`` docstring, keyed
    by the file kind's header keyword, without their comments."""
    blocks = {}
    for block in gtx.dsl.__doc__.split("::\n\n")[1:]:
        lines = []
        for raw in block.splitlines():
            if not raw.startswith("    "):
                break
            lines.append(raw.partition("#")[0].strip())
        blocks[lines[0].split()[0]] = lines
    return blocks


def variants(pattern: str) -> list[str]:
    """Every way to write ``pattern`` that the tests try: each ``[...]``
    absent and present, each ``[...]*`` absent, once and twice, and each
    ``(a|b)`` as each alternative."""
    out = [""]
    i = 0
    while i < len(pattern):
        j = i
        if pattern[i] in "[(":
            depth = 0
            while True:
                depth += (pattern[j] in "[(") - (pattern[j] in "])")
                if not depth:
                    break
                j += 1
            inner = pattern[i + 1:j]
            if pattern[i] == "(":
                options = inner.split("|")
            else:
                once = variants(inner)
                options = [""] + once
                if pattern[j + 1:j + 2] == "*":
                    sep = "" if inner.startswith(",") else " "
                    options += [a + sep + b for a in once for b in once]
                    j += 1
            j += 1
        else:
            while j < len(pattern) and pattern[j] not in "[(":
                j += 1
            options = [pattern[i:j]]
        out = [a + b for a in out for b in options]
        i = j
    return out


#: lines that declare what their first placeholder names
DECLARING = {"graph", "typegraph", "rule", "node", "type", "quant"}

#: per file kind: its parser, the lines that declare what a tested line
#: may refer to, and the names each placeholder takes, one per occurrence
SYNTAX_CONTEXT = {
    "graph": (parse_graph, "graph g\nnode a\nnode b\n", {
        "ID": ["a"], "NAME": ["k"], "VALUE": ["1"], "SRC": ["a"],
        "TGT": ["b"], "LABEL": ["l"], "TYPE": ["A", "B", "C"],
        "F": ["f", "g"]}),
    "typegraph": (parse_type_graph, "typegraph t\ntype A\ntype B\ntype C\n", {
        "NAME": ["A", "B", "C"], "TYPE": ["A", "B"], "LABEL": ["l"]}),
    "rule": (parse_rule, "rule r\nquant q forall\n" + "".join(
        f"node {n} role=reader\n" for n in "abcd") + "".join(
        f"edge a -{g}-> b role=embargo group {g}\n"
        for g in ("g1", "g2", "g3", "g4")), {
        "ID": ["a", "b", "c", "d"], "SRC": ["a"], "TGT": ["b"],
        "LABEL": ["l"], "REGEX": ["l.-m"], "ROLE": ["embargo"],
        "QID": ["q"], "PIDX": ["0"], "TYPE": ["A"],
        "GID": ["g1", "g2", "g3", "g4"], "NAME": ["x"], "OLD": ["x"],
        "NEW": ["y"], "VALUE": ["1"], "FMT": ["%s"], "FLAGNAME": ["f"]}),
}


def fill(line: str, names: dict[str, list[str]]) -> str:
    """``line`` with each placeholder replaced by its next name; on a
    declaring line the first placeholder takes the fresh name ``new``."""
    taken: Counter[str] = Counter()
    declaring = line.split()[0] in DECLARING

    def name(m: re.Match) -> str:
        nonlocal declaring
        if declaring:
            declaring = False
            return "new"
        taken[m.group()] += 1
        return names[m.group()][taken[m.group()] - 1]

    return re.sub(r"[A-Z]+", name, line)


def documented_lines():
    for kind, lines in syntax_blocks().items():
        parse, header, names = SYNTAX_CONTEXT[kind]
        for pattern in lines:
            for variant in variants(pattern):
                line = " ".join(fill(variant, names).split())
                text = line if pattern == lines[0] else header + line
                yield pytest.param(parse, text + "\n", id=f"{kind}: {line}")


#: per file kind, the variants of each of its declaration lines
DECLARATION_VARIANTS = {kind: [variants(pattern) for pattern in lines[1:]]
                        for kind, lines in syntax_blocks().items()}
#: text that UTF-8 cannot encode, which only a str can hold
UNENCODABLE = st.text("a\ud800", min_size=1, max_size=3)
#: words that some placeholder may not take: words over characters that
#: are reserved, start a comment or a string, escape or separate words,
#: and names and strings that UTF-8 cannot encode
ODD_WORDS = st.one_of(
    st.text('a"\\#,.:=-~>\t\xa0 ', min_size=1, max_size=3),
    UNENCODABLE, UNENCODABLE.map(lambda s: f'"{s}"'))


@st.composite
def reader_texts(draw):
    """A parser and texts in its format: lines of its documented syntax
    after the declarations they may refer to, filled as in
    ``test_every_documented_line_parses`` but for one placeholder, which
    takes an odd word; one text for each placeholder."""
    kind = draw(st.sampled_from(sorted(SYNTAX_CONTEXT)))
    parse, header, names = SYNTAX_CONTEXT[kind]
    # one line of each kind at most, since two alike are a duplicate
    shapes = "\n".join(draw(st.sampled_from(shape)) for shape in draw(
        st.lists(st.sampled_from(DECLARATION_VARIANTS[kind]), unique_by=id,
                 max_size=3)))
    odd = draw(ODD_WORDS)
    texts = []
    for place in re.finditer(r"[A-Z]+", shapes):
        text = shapes[:place.start()] + "\0" + shapes[place.end():]
        # each declaring line declares a name of its own
        text = "\n".join(re.sub(r"\bnew\b", f"new{i}", fill(line, names))
                         for i, line in enumerate(text.split("\n")))
        texts.append(header + text.replace("\0", odd))
    return parse, texts


@settings(max_examples=600, deadline=None, derandomize=True)
@given(reader_texts())
def test_the_readers_raise_nothing_but_parse_error(parse_texts):
    parse, texts = parse_texts
    for text in texts:
        try:
            parse(text)
        except ParseError:
            pass


@pytest.mark.parametrize("parse, text", documented_lines())
def test_every_documented_line_parses(parse, text):
    """Each line of the docstring's syntax blocks parses, with each
    optional part absent and present.  This checks that what is
    documented is accepted; it cannot notice a keyword or suffix that
    the parsers accept and the docstring leaves out."""
    parse(text)


def test_a_keyword_of_another_file_kind_is_an_unknown_declaration():
    blocks = syntax_blocks()
    keywords = {kind: {line.split()[0] for line in lines}
                for kind, lines in blocks.items()}
    for kind, (parse, header, _) in SYNTAX_CONTEXT.items():
        others = set().union(*keywords.values()) - keywords[kind]
        assert others
        for keyword in sorted(others):
            e = err(parse, f"{header}{keyword} x\n")
            assert e.message == f"unknown declaration {keyword!r}"
