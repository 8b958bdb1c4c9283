"""Line-oriented textual formats for graphs, type graphs and rules.

One declaration per line, ``#`` starts a comment, files are UTF-8.
Within a file forward references are fine; parsing is two-pass, a graph
file's ``node`` lines first: a bad one is reported before an earlier bad
``attr`` or ``edge`` line.

Graph (``.gst``)::

    graph NAME
    node ID [: TYPE[,TYPE]*] [flag F]*
    attr ID.NAME = VALUE
    edge SRC -LABEL-> TGT

Type graph (``.gty``)::

    typegraph NAME
    type NAME [abstract] [extends NAME[,NAME]*]
    attr TYPE.NAME : (string|int|bool|real)
    edge TYPE -LABEL-> TYPE

Rule (``.gpr``)::

    rule NAME
    format "FMT"
    quant QID forall [in QID] [count PIDX]   # PIDX: ASCII decimal digits
    node ID role=ROLE [: TYPE] [in QID]
    edge SRC -LABEL-> TGT role=ROLE [in QID] [group GID]
    path SRC ~REGEX~> TGT role=ROLE [in QID] [group GID]   # reader|embargo
    flag ID ROLE FLAGNAME
    match ID.NAME == VALUE
    assign ID.NAME = VALUE
    rewrite ID.OLD -> NEW
    bind PIDX = ID.NAME
    neq ID ID [ID]*
    disjoin GID GID [GID]*

Values: double-quoted strings (``\\"``, ``\\\\``, ``\\n``, ``\\r``, ``\\t``
and ``\\uXXXX`` escapes, four hex digits that do not name a surrogate, D800 to
DFFF), decimal integers, ``true``/``false``, and reals with a mandatory
decimal point; a real that overflows to infinity, or has a nonzero mantissa
and underflows to zero, is an error.  Suffixes (``in``, ``count``, ``group``)
come in any order; without ``in QID`` an element is in the root quantifier.

Serialization is deterministic (nodes sorted by name, then each node's
attributes, then edges lexicographically) and stable: serializing a
just-parsed graph twice yields identical bytes.  Strings are written with
the named escapes and ``\\uXXXX`` for other control characters.  A name
that would not read back is replaced: a node's by a fresh one, the
graph's by ``g``.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .graph import (
    HostEdge,
    HostGraph,
    Label,
    RESERVED_RE,
    Value,
    ValueKind,
    edge_label,
    flag as flag_label,
    name_fault,
    node_type,
    utf8_encodable,
)
from .rules import (
    AttrConstraint,
    ConstraintKind,
    PATH_ROLES,
    Quantifier,
    RegexAtom,
    RegexPath,
    ROOT_QUANT,
    Role,
    Rule,
    RuleEdge,
    RuleNode,
    expand_neq,
    validate_rule,
)
from .source import ParseError, SourceSpan, Violation
from .typegraph import (EdgeDecl, TypeDecl, TypeGraph, conforms,
                        validate_type_graph)

if TYPE_CHECKING:
    from importlib.resources.abc import Traversable

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_REAL_RE = re.compile(r"[+-]?[0-9]+\.[0-9]+([eE][+-]?[0-9]+)?\Z")
_EDGE_ARROW_RE = re.compile(r"-(.+)->\Z")
_PATH_ARROW_RE = re.compile(r"~(.+)~>\Z")
_VALUE_KINDS = {k.value: k for k in ValueKind}
_ROLES = {r.value: r for r in Role}
_STRING_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_NAMED_ESCAPES = {ch: "\\" + esc for esc, ch in _STRING_ESCAPES.items()}
# What may follow a backslash in a string: a named escape, or four hex
# digits that do not name a surrogate, which UTF-8 cannot encode.
_ESCAPE = r'[\\"nrt]|u(?![dD][89a-fA-F])[0-9a-fA-F]{4}'
# One token: a string (group 1 its well-formed body, group 2 its closing
# quote, empty when the body stops at an invalid escape or the line's
# end), a comment, or a bare word.
_TOKEN_RE = re.compile(
    rf'"((?:[^"\\]|\\(?:{_ESCAPE}))*)("?)|#|[^ \t\r#]+')
_ESCAPE_RE = re.compile(rf'\\({_ESCAPE})')


# What a serialized string escapes: a quote, a backslash, and, as \uXXXX
# unless they have a named escape, the control characters and the exotic
# line boundaries str.splitlines honours, which would split it across lines.
_SERIAL_ESCAPE_RE = re.compile(r'["\\\x00-\x1f\x7f-\x9f\u2028\u2029]')
_SERIAL_ESCAPES = {chr(o): f"\\u{o:04x}"
                   for o in [*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029]
                   } | _NAMED_ESCAPES


class Token(NamedTuple):
    """One token of a line, with its 1-based, half-open column range.

    A valid file never asks where a token is, so the ``SourceSpan`` is
    built on demand, when a diagnostic or a stored element needs it.
    ``_scan_line`` makes the Tokens of every line of a rule or type-graph
    file.  A graph line is read as words where it can be, and scanned at
    most once: when it has a quote that ``_words`` does not take, or a
    word check doubts it (see ``parse_graph``)."""

    text: str
    file: str
    line: int
    col: int
    end_col: int
    quoted: bool = False

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.file, self.line, self.col, self.end_col)


def _unescape(m: re.Match) -> str:
    esc = m.group(1)
    return _STRING_ESCAPES.get(esc) or chr(int(esc[1:], 16))


def _split(text: str) -> list[str]:
    """A line without a string, cut at its separators up to its comment:
    its bare words, with an empty piece where two separators meet.

    The word reader's split (``_words``).  Without a string the comment
    starts at the first "#" and the words lie between separators, which
    str.split finds in half the time of ``_scan_line``'s regex.  Not
    split() without an argument: it also splits at "\xa0" and other
    Unicode spaces, which are word characters here."""
    return text.partition("#")[0].replace("\t", " ").replace(
        "\r", " ").split(" ")


def _scan_line(text: str, file: str, lineno: int) -> list[Token]:
    """The Tokens of a line up to its comment: of each line of a rule or
    type-graph file, and of a graph line with a quote that ``_words``
    does not take or that a word check doubts."""
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        body, closed = m.group(1, 2)
        start, end = m.span()
        if body is None and m.group() == "#":
            break
        if body is None or closed:
            tokens.append(Token(
                m.group() if body is None else _ESCAPE_RE.sub(_unescape, body),
                file, lineno, start + 1, end + 1, body is not None))
        elif end == len(text):
            raise ParseError("unterminated string literal",
                             SourceSpan(file, lineno, start + 1, end + 1))
        else:
            raise ParseError("invalid string escape",
                             SourceSpan(file, lineno, end + 1, end + 3))
    return tokens


def _ident(tok: Token, what: str, dots: int = 0) -> str:
    """``tok`` as a name; its first ``dots`` dots separate names."""
    if tok.quoted or not tok.text:
        raise ParseError(f"expected {what}", tok.span)
    found = RESERVED_RE.search(tok.text.replace(".", "", dots))
    if found:
        raise ParseError(
            f"{what} {tok.text!r} contains reserved character {found.group()!r}",
            tok.span)
    return tok.text


def _int_index(tok: Token, what: str) -> int:
    if tok.quoted or not re.fullmatch(r"[0-9]+", tok.text):
        raise ParseError(f"expected {what} (a non-negative integer)", tok.span)
    return int(tok.text)


def _dotted(tok: Token, what: str) -> tuple[str, str]:
    left, dot, right = tok.text.partition(".")
    if tok.quoted or not (left and dot and right):
        raise ParseError(f"expected {what} of the form A.B", tok.span)
    _ident(tok, what, dots=1)
    return left, right


def _written(name: str, tok: Token) -> str:
    """``name`` as an attribute name that a graph holds or a rule writes:
    one the graph text can carry, as ``HostGraph.set_attr`` asks."""
    fault = name_fault(name, what="attribute name")
    if fault:
        raise ParseError(fault, tok.span)
    return name


def _label(make: Callable[[str], Label], name: str, tok: Token) -> Label:
    try:
        return make(name)
    except ValueError as exc:
        raise ParseError(str(exc), tok.span)


def _literal(text: str) -> Value:
    """The value a bare word denotes; a ValueError says what is wrong."""
    if text == "true":
        return Value.bool_(True)
    if text == "false":
        return Value.bool_(False)
    if _INT_RE.match(text):
        try:
            return Value.int_(int(text))
        except ValueError:
            raise ValueError("integer literal out of 64-bit range") from None
    if _REAL_RE.match(text):
        x = float(text)
        # too large overflows to infinity, too small underflows to zero
        if math.isinf(x) or (x == 0.0 and any(
                d in "123456789" for d in text.lower().partition("e")[0])):
            raise ValueError("real literal out of range")
        return Value.real(x)
    raise ValueError(f"invalid value literal {text!r}")


def parse_value(tok: Token) -> Value:
    try:
        return Value.string(tok.text) if tok.quoted else _literal(tok.text)
    except ValueError as exc:
        raise ParseError(str(exc), tok.span) from None


def serialize_value(v: Value) -> str:
    if v.kind is not ValueKind.STRING:
        return v.to_text()
    escaped = _SERIAL_ESCAPE_RE.sub(lambda m: _SERIAL_ESCAPES[m[0]],
                                    str(v.raw))
    return f'"{escaped}"'


def _expect(tok: Token, literal: str) -> None:
    if tok.quoted or tok.text != literal:
        raise ParseError(f"expected {literal!r}", tok.span)


def _end_span(tokens: list[Token]) -> SourceSpan:
    last = tokens[-1].span
    return SourceSpan(last.file, last.line, last.end_col, last.end_col + 1)


def _no_more(tokens: list[Token], i: int) -> None:
    if i < len(tokens):
        raise ParseError(f"unexpected token {tokens[i].text!r}", tokens[i].span)


def _shape(tokens: list[Token], usage: str) -> None:
    """Check a line's token count against its usage text: one token per
    word of ``usage``, or at least as many as precede a final ``...``."""
    more = usage.endswith(" ...")
    n = usage.count(" ") + 1 - more
    if len(tokens) < n:
        raise ParseError(f"expected: {usage}", _end_span(tokens))
    if len(tokens) > n and not more:
        raise ParseError(f"expected: {usage}", tokens[n].span)


def _type_list(tokens: list[Token], i: int, what: str) -> tuple[list[Label], int]:
    """Parse the comma-separated type names after the keyword at
    ``tokens[i]``; the list may span several tokens.

    ``A,B``, ``A, B`` and ``A , B`` all work: a comma at a token edge
    continues the list into the next token.  A name with no comma before
    it ends the list instead.  The graph reader's words take only ``A,B``.
    """
    keyword, i = tokens[i], i + 1
    names: list[str] = []
    owing = True  # the list still expects a name
    while i < len(tokens) and not tokens[i].quoted:
        first, *rest = tokens[i].text.split(",")
        if first and not owing:
            break
        if not first and not names:
            raise ParseError(f"expected a {what} before ','", tokens[i].span)
        if not first and owing or "" in rest[:-1]:
            raise ParseError(f"empty {what} in list", tokens[i].span)
        names += [name for name in (first, *rest) if name]
        owing = bool(rest) and not rest[-1]
        i += 1
    if owing:
        raise ParseError(
            f"expected a {what}",
            tokens[i].span if i < len(tokens) else _end_span(tokens))
    return [_label(node_type, n, keyword) for n in names], i


def _no_header(file: str, keyword: str) -> ParseError:
    return ParseError(f"empty file, expected a {keyword!r} header",
                      SourceSpan(file, 1, 1, 2))


def _header(tokens: list[Token], keyword: str) -> str:
    """The name from a file's ``KEYWORD NAME`` header line."""
    _expect(tokens[0], keyword)
    if len(tokens) < 2:
        raise ParseError(f"{keyword!r} header needs a name", _end_span(tokens))
    name = _ident(tokens[1], f"{keyword} name")
    _no_more(tokens, 2)
    return name


def _declarations(text: str, file: str,
                  keyword: str) -> tuple[str, list[list[Token]]]:
    """Scan a file: the name from its ``KEYWORD NAME`` header line, and
    the tokens of each declaration line after it."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _scan_line(raw, file, lineno)
        if tokens:
            lines.append(tokens)
    if not lines:
        raise _no_header(file, keyword)
    return _header(lines[0], keyword), lines[1:]


def _keyword(tokens: list[Token]) -> str:
    head = tokens[0]
    if head.quoted:
        raise ParseError("expected a declaration keyword", head.span)
    return head.text


def _edge_label_token(tok: Token) -> Label:
    m = None if tok.quoted else _EDGE_ARROW_RE.match(tok.text)
    if not m:
        raise ParseError("expected an edge arrow of the form -label->", tok.span)
    return _label(edge_label, m.group(1), tok)


# ---------------------------------------------------------------------------
# graphs


def _words(text: str) -> list[str] | None:
    """A graph line's bare words, ``[]`` for a blank one, or None for a
    line with a quote that ``_scan_line`` must read.  The one quoted line
    taken here is an ``attr`` line whose string, with no escape, ends it:
    its words hold the string's text as the value.  Never scans and never
    raises: a line it returns words for scans without an error."""
    if '"' not in text:
        words = _split(text)
        return [w for w in words if w] if "" in words else words
    head, _, rest = text.partition('"')
    body, closed, tail = rest.partition('"')
    if closed and head[-1:] in (" ", "\t", "\r") and "#" not in head \
            and "\\" not in body and not any(_split(tail)):
        words = [w for w in _split(head) if w]
        if len(words) == 3 and words[0] == "attr":
            return words + [body]
    return None


def _node_words(words: list[str]) -> tuple[list[Label], list[Label]] | None:
    """The types and flags of a ``node`` line's words, or None where a
    check of its name, types or flags doubts them.  A type list is read
    only as ``serialize_graph`` writes it, one word ``A,B``; one spelled
    with spaces (``A, B``) is doubted and read by ``_type_list``."""
    n = len(words)
    if n < 2 or RESERVED_RE.search(words[1]):
        return None
    types: list[Label] = []
    flags: list[Label] = []
    i = 2
    try:
        if i + 1 < n and words[i] == ":":
            types = [node_type(t) for t in words[i + 1].split(",")]
            i += 2
        while i < n:
            if words[i] != "flag" or i + 1 == n:
                return None
            flags.append(flag_label(words[i + 1]))
            i += 2
    except ValueError:  # a name that a label refuses
        return None
    return types, flags


def _arrow_word(word: str) -> Label | None:
    """The label of an edge arrow word, or None where a check doubts it."""
    m = _EDGE_ARROW_RE.match(word)
    try:
        return edge_label(m.group(1)) if m else None
    except ValueError:
        return None


def parse_graph(text: str, filename: str = "<graph>") -> HostGraph:
    """The graph in ``text``, read in two passes: ``node`` lines first.

    A line has two readers: word-level checks take its words (``_words``)
    in the spellings ``serialize_graph`` writes, and the token helpers
    take its Tokens, accepting any valid spelling or raising the line's
    diagnostic.  A line is scanned at most once: as the lines are
    collected if ``_words`` does not take it, so the scanner's errors
    come first and in line order, else in its pass if a word check
    doubts it.  An attribute name is checked at its line, as
    ``HostGraph.add_node`` would check it."""
    lines = []  # (words, the text, lineno), or (None, the Tokens, lineno)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = _words(raw)
        line = raw if words is not None else _scan_line(raw, filename, lineno)
        if words != [] and line:
            lines.append((words, line, lineno))
    if not lines:
        raise _no_header(filename, "graph")
    (words, line, lineno), *lines = lines
    if words and len(words) == 2 and words[0] == "graph" \
            and not RESERVED_RE.search(words[1]):
        name = words[1]
    else:
        name = _header(line if words is None else
                       _scan_line(line, filename, lineno), "graph")

    node_specs: dict[str, tuple[list[Label], list[Label]]] = {}
    for words, line, lineno in lines:
        if words is not None:
            if words[0] != "node":
                continue
            spec = _node_words(words)
            if spec is not None and words[1] not in node_specs:
                node_specs[words[1]] = spec
                continue
        tokens = line if words is None else _scan_line(line, filename, lineno)
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
            flags.append(_label(flag_label, _ident(tokens[i + 1], "flag name"),
                                tokens[i + 1]))
            i += 2
        node_specs[nid] = (types, flags)

    # Canonical ids: assigned in sorted-name order, from 0 as in a fresh
    # graph, so that parsing the serialized form reproduces the same ids.
    # A key of ``ids`` has passed ``_ident`` as a node name.
    ids = dict(zip(sorted(node_specs), range(len(node_specs))))
    # Each node is built once, with its attributes, after every line is
    # read, and the edges go in together after the nodes.
    attrs: dict[str, dict[str, Value]] = {}
    edges: set[HostEdge] = set()
    #: the label of each unquoted arrow text read so far
    arrows: dict[str, Label] = {}
    for words, line, lineno in lines:
        if words is not None:
            keyword = words[0]
            if keyword == "node":
                continue
            if keyword == "edge" and len(words) == 4:
                src = ids.get(words[1])
                tgt = ids.get(words[3])
                lbl = arrows.get(words[2])
                if lbl is None:
                    lbl = _arrow_word(words[2])
                    if lbl is not None:
                        arrows[words[2]] = lbl
                if src is not None and tgt is not None and lbl is not None:
                    size = len(edges)
                    edges.add(tuple.__new__(HostEdge, (src, lbl, tgt)))
                    if len(edges) > size:  # else a duplicate
                        continue
            elif keyword == "attr" and len(words) == 4 and words[2] == "=":
                owner, _, attr = words[1].partition(".")
                if owner in node_specs and not name_fault(attr):
                    try:  # a quote in a word line is its string value's
                        value = (Value.string(words[3]) if '"' in line
                                 else _literal(words[3]))
                    except ValueError:
                        value = None
                    owned = attrs.setdefault(owner, {})
                    if value is not None and attr not in owned:
                        owned[attr] = value
                        continue
        tokens = line if words is None else _scan_line(line, filename, lineno)
        keyword = _keyword(tokens)
        if keyword == "attr":
            _shape(tokens, "attr ID.NAME = VALUE")
            owner, attr = _dotted(tokens[1], "attribute reference")
            _written(attr, tokens[1])
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
            _shape(tokens, "edge SRC -LABEL-> TGT")
            _, src_tok, arrow, tgt_tok = tokens
            src = None if src_tok.quoted else ids.get(src_tok.text)
            if src is None:
                _ident(src_tok, "edge source")
            lbl = _edge_label_token(arrow)
            tgt = None if tgt_tok.quoted else ids.get(tgt_tok.text)
            if tgt is None:
                _ident(tgt_tok, "edge target")
            if src is None or tgt is None:
                tok = src_tok if src is None else tgt_tok
                raise ParseError(
                    f"edge references unknown node {tok.text!r}", tok.span)
            edge = HostEdge(src, lbl, tgt)
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


def _reads_back(name: str | None) -> bool:
    """Whether ``parse_graph`` reads ``name`` back as a name: the rule of a
    flag's or an edge label's name."""
    return name is not None and name_fault(name) is None


def _serialized_names(g: HostGraph) -> dict[int, str]:
    """Each node's name in the text: its own if no lower id kept it and it
    reads back, else a fresh one."""
    used = {n.name for n in g.nodes.values() if n.name}
    kept: set[str] = set()
    names: dict[int, str] = {}
    for nid in g.node_ids():
        name = g.nodes[nid].name
        if _reads_back(name) and name not in kept:
            kept.add(name)
            names[nid] = name
            continue
        candidate = f"x{nid}"
        while candidate in used:
            candidate = "_" + candidate
        used.add(candidate)
        names[nid] = candidate
    return names


def serialize_graph(g: HostGraph) -> str:
    names = _serialized_names(g)
    # a name that would not read back becomes the HostGraph default
    out = [f"graph {g.name if _reads_back(g.name) else 'g'}"]
    #: the text after a node line's name, once per (types, flags) pair
    heads: dict[tuple[frozenset[Label], frozenset[Label]], str] = {}
    for nid in sorted(g.nodes, key=names.__getitem__):
        _, types, flags, attrs, _ = g.nodes[nid]
        head = heads.get((types, flags))
        if head is None:
            head = (" : " + ",".join(sorted(t.name for t in types))
                    if types else "")
            head += "".join(f" flag {f}" for f in sorted(f.name for f in flags))
            heads[types, flags] = head
        name = names[nid]
        out.append(f"node {name}{head}")
        for attr in sorted(attrs):
            out.append(f"attr {name}.{attr} = {serialize_value(attrs[attr])}")
    out += [f"edge {src} -{label}-> {tgt}" for src, label, tgt in sorted(
        (names[src], label.name, names[tgt]) for src, label, tgt in g.edges)]
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# type graphs


def parse_type_graph(text: str, filename: str = "<typegraph>") -> TypeGraph:
    name, lines = _declarations(text, filename, "typegraph")
    tg = TypeGraph(name=name)
    attr_lines: list[tuple[Token, str, str, ValueKind]] = []

    for tokens in lines:
        keyword = _keyword(tokens)
        if keyword == "type":
            if len(tokens) < 2:
                raise ParseError("type line needs a name", _end_span(tokens))
            tname = _ident(tokens[1], "type name")
            _label(node_type, tname, tokens[1])
            if tname in tg.types:
                raise ParseError(f"duplicate type {tname!r}", tokens[1].span)
            abstract = False
            supertypes: list[Label] = []
            i = 2
            if i < len(tokens) and tokens[i].text == "abstract" and not tokens[i].quoted:
                abstract = True
                i += 1
            if i < len(tokens):
                _expect(tokens[i], "extends")
                supertypes, i = _type_list(tokens, i, "supertype name")
            _no_more(tokens, i)
            tg.types[tname] = TypeDecl(abstract, set(supertypes),
                                       span=tokens[1].span)
        elif keyword == "attr":
            _shape(tokens, "attr TYPE.NAME : KIND")
            _expect(tokens[2], ":")
            kind = _VALUE_KINDS.get(tokens[3].text if not tokens[3].quoted else "")
            if kind is None:
                raise ParseError(
                    "expected a value kind (string, int, bool or real)",
                    tokens[3].span)
            attr_lines.append(
                (tokens[1], *_dotted(tokens[1], "attribute"), kind))
        elif keyword == "edge":
            _shape(tokens, "edge TYPE -LABEL-> TYPE")
            src = _label(node_type, _ident(tokens[1], "source type"), tokens[1])
            lbl = _edge_label_token(tokens[2])
            tgt = _label(node_type, _ident(tokens[3], "target type"), tokens[3])
            if any((d.src_type, d.label, d.tgt_type) == (src, lbl, tgt)
                   for d in tg.edge_decls):
                raise ParseError(
                    f"duplicate edge {src.name} -{lbl.name}-> {tgt.name}",
                    tokens[2].span)
            tg.edge_decls.append(EdgeDecl(src, lbl, tgt, span=tokens[2].span))
        else:
            raise ParseError(f"unknown declaration {keyword!r}", tokens[0].span)

    for tok, owner, attr, kind in attr_lines:
        decl = tg.types.get(owner)
        if decl is None:
            raise ParseError(f"attribute on undeclared type {owner!r}", tok.span)
        if attr in decl.attr_decls:
            raise ParseError(f"duplicate attribute {owner}.{attr}", tok.span)
        decl.attr_decls[attr] = kind
    return tg


# ---------------------------------------------------------------------------
# rules


def _parse_regex_text(text: str, tok: Token) -> RegexPath:
    """The path expression ``text``; errors point at all of ``tok``."""
    atoms = []
    for part in text.split("."):
        inverse = part.startswith("-")
        name = part[1:] if inverse else part
        if not name:
            raise ParseError("empty regex atom", tok.span)
        atoms.append(RegexAtom(_label(edge_label, name, tok), inverse))
    return RegexPath(tuple(atoms))


def _path_token(tok: Token) -> RegexPath:
    m = None if tok.quoted else _PATH_ARROW_RE.match(tok.text)
    if not m:
        raise ParseError("expected a path arrow of the form ~regex~>", tok.span)
    return _parse_regex_text(m.group(1), tok)


def parse_regex(text: str) -> RegexPath:
    """Parse a bare path expression such as ``-src.trg``."""
    return _parse_regex_text(text, Token(text, "<regex>", 1, 1, len(text) + 1))


def _parse_role(tok: Token) -> Role:
    if tok.quoted or not tok.text.startswith("role="):
        raise ParseError("expected role=READER|eraser|creator|embargo", tok.span)
    value = tok.text[len("role="):]
    role = _ROLES.get(value)
    if role is None:
        raise ParseError(f"unknown role {value!r}", tok.span)
    return role


#: line suffix keyword -> (what its argument is, the argument's reader)
_SUFFIXES: dict[str, tuple[str, Callable[[Token, str], object]]] = {
    "in": ("quantifier id", _ident),
    "group": ("NAC group id", _ident),
    "count": ("parameter index", _int_index),
}


def _suffixes(tokens: list[Token], i: int,
              allowed: tuple[str, ...]) -> list[Token | None]:
    """Read the ``KEY ARG`` suffixes of a line from ``tokens[i]`` on, each
    of the ``allowed`` keys at most once; returns the checked argument
    token of each allowed key, or None where it is absent."""
    found: dict[str, Token] = {}
    while i < len(tokens):
        key = tokens[i].text
        if tokens[i].quoted or key not in allowed or key in found:
            raise ParseError(f"unexpected token {key!r}", tokens[i].span)
        what, read = _SUFFIXES[key]
        if i + 1 == len(tokens):
            raise ParseError(f"expected a {what}", _end_span(tokens))
        read(tokens[i + 1], what)
        found[key] = tokens[i + 1]
        i += 2
    return [found.get(key) for key in allowed]


#: attribute constraint keyword -> (usage, operator, constraint kind)
_CONSTRAINTS = {
    "match": ("match ID.NAME == VALUE", "==", ConstraintKind.MATCH),
    "assign": ("assign ID.NAME = VALUE", "=", ConstraintKind.ASSIGN),
    "rewrite": ("rewrite ID.OLD -> NEW", "->", ConstraintKind.RENAME),
}


def parse_rule(text: str, filename: str = "<rule>") -> Rule:
    name, lines = _declarations(text, filename, "rule")

    quantifiers: dict[str, Quantifier] = {
        ROOT_QUANT: Quantifier(ROOT_QUANT)
    }
    nodes: dict[str, RuleNode] = {}
    edges: list[RuleEdge] = []
    seen_edges: set[tuple[str, str, str, Role]] = set()
    injectivity: set[tuple[str, str]] = set()
    params: dict[int, tuple[str, str]] = {}
    print_format: str | None = None
    disjoins: list[tuple[list[str], SourceSpan]] = []
    pending_levels: list[Token | None] = []  # resolved after the pass

    def known(nid: str, tok: Token) -> RuleNode:
        node = nodes.get(nid)
        if node is None:
            raise ParseError(f"unknown rule node {nid!r}", tok.span)
        return node

    # Pass 1: nodes and quantifiers, so that later lines can refer to them
    # regardless of ordering.
    for tokens in lines:
        keyword = _keyword(tokens)
        if keyword == "quant":
            _shape(tokens, "quant QID forall ...")
            qid = _ident(tokens[1], "quantifier id")
            if qid == ROOT_QUANT:
                raise ParseError("quantifier id 'root' is reserved",
                                 tokens[1].span)
            if qid in quantifiers:
                raise ParseError(f"duplicate quantifier {qid!r}", tokens[1].span)
            _expect(tokens[2], "forall")
            parent, count = _suffixes(tokens, 3, ("in", "count"))
            pending_levels.append(parent)
            quantifiers[qid] = Quantifier(
                qid, parent.text if parent else ROOT_QUANT,
                int(count.text) if count else None, span=tokens[1].span)
        elif keyword == "node":
            _shape(tokens, "node ID role=ROLE ...")
            nid = _ident(tokens[1], "rule node id")
            if nid in nodes:
                raise ParseError(f"duplicate rule node {nid!r}", tokens[1].span)
            role = _parse_role(tokens[2])
            type_constraint: Label | None = None
            i = 3
            if i < len(tokens) and not tokens[i].quoted and tokens[i].text == ":":
                if i + 1 >= len(tokens):
                    raise ParseError("expected a type name", _end_span(tokens))
                type_constraint = _label(
                    node_type, _ident(tokens[i + 1], "type name"), tokens[i + 1])
                i += 2
            (level,) = _suffixes(tokens, i, ("in",))
            pending_levels.append(level)
            nodes[nid] = RuleNode(
                nid, role, type_constraint,
                level=level.text if level else ROOT_QUANT, span=tokens[1].span)

    # Pass 2: everything that references nodes or quantifiers.
    for tokens in lines:
        keyword = tokens[0].text
        if keyword in ("quant", "node"):
            continue
        if keyword == "edge" or keyword == "path":
            _shape(tokens, f"{keyword} SRC arrow TGT role=ROLE ...")
            src = _ident(tokens[1], "edge source")
            lbl: Label | RegexPath = (
                _path_token if keyword == "path" else _edge_label_token)(tokens[2])
            tgt = _ident(tokens[3], "edge target")
            role = _parse_role(tokens[4])
            if keyword == "path" and role not in PATH_ROLES:
                raise ParseError(
                    "path edges must be role=reader or role=embargo",
                    tokens[4].span)
            level, group = _suffixes(tokens, 5, ("in", "group"))
            if group and role is not Role.EMBARGO:
                raise ParseError("only embargo edges take a NAC group",
                                 tokens[4].span)
            known(src, tokens[1])
            known(tgt, tokens[3])
            if level and level.text not in quantifiers:
                raise ParseError(f"unknown quantifier {level.text!r}", level.span)
            lbl_key = lbl.text() if isinstance(lbl, RegexPath) else lbl.name
            if (src, lbl_key, tgt, role) in seen_edges:
                raise ParseError(f"duplicate edge {src} -{lbl_key}-> {tgt}",
                                 tokens[2].span)
            seen_edges.add((src, lbl_key, tgt, role))
            edges.append(RuleEdge(
                src, lbl, tgt, role, level=level.text if level else ROOT_QUANT,
                group=group.text if group else None, span=tokens[2].span))
        elif keyword == "flag":
            _shape(tokens, "flag ID ROLE FLAGNAME")
            node = known(_ident(tokens[1], "rule node id"), tokens[1])
            role = _ROLES.get(tokens[2].text if not tokens[2].quoted else "")
            if role is None:
                raise ParseError(f"unknown role {tokens[2].text!r}",
                                 tokens[2].span)
            node.flag_ops.append((_label(
                flag_label, _ident(tokens[3], "flag name"), tokens[3]), role))
        elif keyword in _CONSTRAINTS:
            usage, operator, kind = _CONSTRAINTS[keyword]
            _shape(tokens, usage)
            nid, attr = _dotted(tokens[1], "attribute reference")
            if kind is ConstraintKind.ASSIGN:
                _written(attr, tokens[1])
            _expect(tokens[2], operator)
            if kind is ConstraintKind.RENAME:
                constraint = AttrConstraint(kind, new_name=_written(
                    _ident(tokens[3], "attribute name"), tokens[3]))
            else:
                constraint = AttrConstraint(kind, value=parse_value(tokens[3]))
            node = known(nid, tokens[1])
            if attr in node.attr_constraints:
                raise ParseError(
                    f"conflicting constraint for attribute {nid}.{attr}",
                    tokens[1].span)
            node.attr_constraints[attr] = constraint
        elif keyword == "bind":
            _shape(tokens, "bind PIDX = ID.NAME")
            idx = _int_index(tokens[1], "parameter index")
            _expect(tokens[2], "=")
            nid, attr = _dotted(tokens[3], "attribute reference")
            known(nid, tokens[3])
            if idx in params:
                raise ParseError(f"duplicate parameter index {idx}",
                                 tokens[1].span)
            params[idx] = (nid, attr)
        elif keyword == "neq":
            _shape(tokens, "neq ID ID ...")
            ids = []
            for tok in tokens[1:]:
                nid = _ident(tok, "rule node id")
                known(nid, tok)
                if nid in ids:
                    raise ParseError(
                        f"node {nid!r} repeated in injectivity declaration",
                        tok.span)
                ids.append(nid)
            injectivity |= expand_neq(ids)
        elif keyword == "disjoin":
            _shape(tokens, "disjoin GID GID ...")
            gids = [_ident(tok, "NAC group id") for tok in tokens[1:]]
            disjoins.append((gids, tokens[1].span))
        elif keyword == "format":
            if len(tokens) != 2 or not tokens[1].quoted:
                raise ParseError('expected: format "FMT"',
                                 tokens[1].span if len(tokens) > 1
                                 else _end_span(tokens))
            if not utf8_encodable(tokens[1].text):  # as Value.string's
                raise ParseError("format string must be encodable as UTF-8",
                                 tokens[1].span)
            if print_format is not None:
                raise ParseError("duplicate format line", tokens[0].span)
            print_format = tokens[1].text
        else:
            raise ParseError(f"unknown declaration {keyword!r}", tokens[0].span)

    for tok in pending_levels:
        if tok and tok.text not in quantifiers:
            raise ParseError(f"unknown quantifier {tok.text!r}", tok.span)

    rule = Rule(
        name=name,
        nodes=nodes,
        edges=edges,
        quantifiers=quantifiers,
        disjunction_sets=[tuple(gids) for gids, _ in disjoins],
        injectivity_pairs=injectivity,
        params=params,
        print_format=print_format,
    )
    groups = rule.nac_groups
    for gids, span in disjoins:
        for gid in gids:
            if gid not in groups:
                raise ParseError(f"unknown NAC group {gid!r}", span)
    return rule


# ---------------------------------------------------------------------------
# grammar directories


def parse_config(text: str, filename: str = "<config>") -> list[tuple[str, str, SourceSpan]]:
    """``KEY = VALUE`` lines; returns entries in order, duplicates kept."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0]
        if not stripped.strip():
            continue
        span = SourceSpan(filename, lineno, 1, len(raw) + 1)
        if "=" not in stripped:
            raise ParseError("expected KEY = VALUE", span)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or any(ch.isspace() for ch in key):
            raise ParseError("malformed config key", span)
        if not value:
            raise ParseError(f"config key {key!r} has no value", span)
        entries.append((key, value, span))
    return entries


CONFIG_FILE = "grammar.cfg"


@dataclass
class Grammar:
    """A rule system: named rules, enabled type graphs and a start graph,
    kept as ``start_file`` in ``files`` until ``start`` is first read."""

    name: str
    rules: dict[str, Rule] = field(default_factory=dict)
    type_graphs: list[TypeGraph] = field(default_factory=list)
    start_file: str | None = None
    files: Mapping[str, str] = field(default_factory=dict, compare=False,
                                     repr=False)

    @cached_property
    def start(self) -> HostGraph | None:
        """The start graph, read and parsed on first use; None without one."""
        if self.start_file is None:
            return None
        return parse_graph(self.files[self.start_file], self.start_file)

    def violations(self, start: HostGraph | None
                   ) -> Iterator[tuple[str, Violation]]:
        """Each violation of the type graphs, of the rules in name order and
        of ``start`` (when given), after the text naming its owner:
        ``type graph NAME``, ``rule NAME`` or ``start graph``."""
        for tg in self.type_graphs:
            for v in validate_type_graph(tg):
                yield f"type graph {tg.name}", v
        for name in sorted(self.rules):
            for v in validate_rule(self.rules[name], self.type_graphs):
                yield f"rule {name}", v
        if start is not None:
            for v in conforms(self.type_graphs, start):
                yield "start graph", v


def build_grammar(files: Mapping[str, str], name: str = "grammar") -> Grammar:
    """Assemble a grammar from a mapping of file names to file contents.

    Files are recognized by suffix: ``.gpr`` rules, ``.gty`` type graphs,
    ``.gst`` graphs, plus an optional ``grammar.cfg``.  The config selects
    the ``start`` graph (mandatory when several ``.gst`` files exist) and,
    via repeatable ``typegraph`` keys, which type graphs are enabled (all
    of them when the key is absent).  A file's text is looked up only when
    it is parsed, and the start graph is parsed on first use.
    """
    rules: dict[str, Rule] = {}
    type_graphs: dict[str, TypeGraph] = {}
    graphs = [fname for fname in files if fname.endswith(".gst")]
    for fname in sorted(files):
        if fname.endswith(".gpr"):
            rule = parse_rule(files[fname], fname)
            if rule.name in rules:
                raise ParseError(
                    f"rule {rule.name!r} is defined more than once",
                    SourceSpan(fname, 1, 1, 2))
            rules[rule.name] = rule
        elif fname.endswith(".gty"):
            type_graphs[fname] = parse_type_graph(files[fname], fname)

    start_file: str | None = None
    enabled_tg_files: list[str] = []
    if CONFIG_FILE in files:
        for key, value, span in parse_config(files[CONFIG_FILE], CONFIG_FILE):
            if key == "start":
                if start_file is not None:
                    raise ParseError("duplicate config key 'start'", span)
                if value not in graphs:
                    raise ParseError(f"start graph {value!r} not found", span)
                start_file = value
            elif key == "typegraph":
                if value not in type_graphs:
                    raise ParseError(f"type graph {value!r} not found", span)
                if value in enabled_tg_files:
                    raise ParseError(
                        f"type graph {value!r} enabled twice", span)
                enabled_tg_files.append(value)
            else:
                raise ParseError(f"unknown config key {key!r}", span)

    if start_file is None and len(graphs) == 1:
        start_file = graphs[0]
    elif start_file is None and len(graphs) > 1:
        raise ParseError(
            "several .gst files; pick one with 'start = FILE' in grammar.cfg",
            SourceSpan(CONFIG_FILE, 1, 1, 2))
    if not enabled_tg_files:
        enabled_tg_files = sorted(type_graphs)

    return Grammar(
        name=name,
        rules=rules,
        type_graphs=[type_graphs[f] for f in enabled_tg_files],
        start_file=start_file,
        files=files,
    )


def read_utf8(path: Path | Traversable) -> str:
    """A file's text; a file that is not UTF-8 is an OSError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 at byte {exc.start}") from None


class _DirectoryFiles(Mapping[str, str]):
    """The files of a directory by name; a lookup reads the file then."""

    def __init__(self, directory: Path | Traversable):
        self._entries = {e.name: e for e in directory.iterdir() if e.is_file()}

    def __getitem__(self, name: str) -> str:
        return read_utf8(self._entries[name])

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def load_grammar_dir(path: str | os.PathLike[str] | Traversable) -> Grammar:
    """The grammar in a directory, named after it: a file-system path,
    named after the directory it resolves to so that ``.`` has a name, or
    an ``importlib.resources`` Traversable such as a packaged fixture."""
    directory = (Path(path).resolve() if isinstance(path, (str, os.PathLike))
                 else path)
    if not directory.is_dir():
        raise OSError(f"{path}: not a directory")
    return build_grammar(_DirectoryFiles(directory), name=directory.name)
