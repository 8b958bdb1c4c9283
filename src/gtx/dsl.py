"""Line-oriented textual formats for graphs, type graphs and rules.

One declaration per line, ``#`` starts a comment, files are UTF-8.
Within a file forward references are fine; parsing is two-pass.

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
and ``\\uXXXX`` escapes, four hex digits), decimal integers,
``true``/``false``, and reals with a mandatory decimal point; a real
that overflows to infinity, or has a nonzero mantissa and underflows to
zero, is an error.  Elements without ``in QID`` belong to the root
quantifier.

Serialization is deterministic (nodes sorted by name, then each node's
attributes, then edges lexicographically) and stable: serializing a
just-parsed graph twice yields identical bytes.  Strings are written with
the named escapes and ``\\uXXXX`` for other control characters.
"""

from __future__ import annotations

import math
import os
import re
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .graph import (
    HostGraph,
    Label,
    RESERVED_LABEL_CHARS,
    Value,
    ValueKind,
    edge_label,
    flag as flag_label,
    node_type,
)
from .rules import (
    AttrConstraint,
    ConstraintKind,
    DisjunctionSet,
    Quantifier,
    RegexAtom,
    RegexPath,
    ROOT_QUANT,
    Role,
    Rule,
    RuleEdge,
    RuleNode,
    expand_neq,
    group_embargo_elements,
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
# One token: a string (group 1 its well-formed body, group 2 its closing
# quote, empty when the body stops at an invalid escape or the line's
# end), a comment, or a bare word.
_TOKEN_RE = re.compile(
    r'"((?:[^"\\]|\\(?:[\\"nrt]|u[0-9a-fA-F]{4}))*)("?)|#|[^ \t\r#]+')
_ESCAPE_RE = re.compile(r'\\([\\"nrt]|u[0-9a-fA-F]{4})')
# What a Label name may not contain: for str patterns ``\s`` matches
# exactly the characters str.isspace accepts.
_RESERVED_RE = re.compile(
    r"[\s" + re.escape("".join(sorted(RESERVED_LABEL_CHARS))) + "]")


def _needs_u_escape(ch: str) -> bool:
    # Control characters and the exotic line boundaries str.splitlines
    # honours; leaving those raw would split a quoted string across lines.
    o = ord(ch)
    return o < 0x20 or o == 0x7F or 0x80 <= o <= 0x9F or ch in "\u2028\u2029"


@dataclass(frozen=True)
class Token:
    text: str
    span: SourceSpan
    quoted: bool = False


def _unescape(m: re.Match) -> str:
    esc = m.group(1)
    return _STRING_ESCAPES.get(esc) or chr(int(esc[1:], 16))


def _scan_line(text: str, file: str, lineno: int) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        body, closed = m.group(1, 2)
        start, end = m.span()
        span = SourceSpan(file, lineno, start + 1, end + 1)
        if body is None:
            if m.group() == "#":
                break
            tokens.append(Token(m.group(), span))
        elif closed:
            tokens.append(Token(_ESCAPE_RE.sub(_unescape, body), span,
                                quoted=True))
        elif end == len(text):
            raise ParseError("unterminated string literal", span)
        else:
            raise ParseError("invalid string escape",
                             SourceSpan(file, lineno, end + 1, end + 3))
    return tokens


def _ident(tok: Token, what: str, dots: int = 0) -> str:
    """``tok`` as a name; its first ``dots`` dots separate names."""
    if tok.quoted or not tok.text:
        raise ParseError(f"expected {what}", tok.span)
    found = _RESERVED_RE.search(tok.text.replace(".", "", dots))
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


def _label(make: Callable[[str], Label], name: str, span: SourceSpan) -> Label:
    try:
        return make(name)
    except ValueError as exc:
        raise ParseError(str(exc), span)


def parse_value(tok: Token) -> Value:
    if tok.quoted:
        return Value.string(tok.text)
    if tok.text == "true":
        return Value.bool_(True)
    if tok.text == "false":
        return Value.bool_(False)
    if _INT_RE.match(tok.text):
        try:
            return Value.int_(int(tok.text))
        except ValueError:
            raise ParseError("integer literal out of 64-bit range", tok.span)
    if _REAL_RE.match(tok.text):
        x = float(tok.text)
        # too large overflows to infinity, too small underflows to zero
        if math.isinf(x) or (x == 0.0 and any(
                d in "123456789" for d in tok.text.lower().partition("e")[0])):
            raise ParseError("real literal out of range", tok.span)
        return Value.real(x)
    raise ParseError(f"invalid value literal {tok.text!r}", tok.span)


_NAMED_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r",
                  "\t": "\\t"}


def serialize_value(v: Value) -> str:
    if v.kind is not ValueKind.STRING:
        return v.to_text()
    escaped = "".join(
        _NAMED_ESCAPES.get(ch) or
        (f"\\u{ord(ch):04x}" if _needs_u_escape(ch) else ch)
        for ch in str(v.raw))
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
    it ends the list instead.
    """
    keyword = tokens[i]
    i += 1
    names: list[str] = []
    owing = True  # the list still expects a name
    while i < len(tokens) and not tokens[i].quoted:
        text = tokens[i].text
        if not owing and not text.startswith(","):
            break
        pieces = text.split(",")
        if not pieces[0] and not names:
            raise ParseError(f"expected a {what} before ','", tokens[i].span)
        if not pieces[0] and owing:
            raise ParseError(f"empty {what} in list", tokens[i].span)
        for j, piece in enumerate(pieces):
            if j > 0:
                if owing:
                    raise ParseError(f"empty {what} in list", tokens[i].span)
                owing = True
            if piece:
                names.append(piece)
                owing = False
        i += 1
    if owing:
        raise ParseError(
            f"expected a {what}",
            tokens[i].span if i < len(tokens) else _end_span(tokens))
    return [_label(node_type, n, keyword.span) for n in names], i


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
        raise ParseError(f"empty file, expected a {keyword!r} header",
                         SourceSpan(file, 1, 1, 2))
    header = lines[0]
    _expect(header[0], keyword)
    if len(header) < 2:
        raise ParseError(f"{keyword!r} header needs a name", _end_span(header))
    name = _ident(header[1], f"{keyword} name")
    _no_more(header, 2)
    return name, lines[1:]


def _keyword(tokens: list[Token]) -> str:
    head = tokens[0]
    if head.quoted:
        raise ParseError("expected a declaration keyword", head.span)
    return head.text


def _edge_label_token(tok: Token) -> Label:
    m = None if tok.quoted else _EDGE_ARROW_RE.match(tok.text)
    if not m:
        raise ParseError("expected an edge arrow of the form -label->", tok.span)
    return _label(edge_label, m.group(1), tok.span)


# ---------------------------------------------------------------------------
# graphs


def parse_graph(text: str, filename: str = "<graph>") -> HostGraph:
    name, lines = _declarations(text, filename, "graph")

    node_specs: dict[str, tuple[list[Label], list[Label]]] = {}
    attr_specs: list[tuple[Token, str, str, Value]] = []
    edge_specs: list[tuple[Token, Label, Token]] = []
    seen_triples: set[tuple[str, str, str]] = set()

    for tokens in lines:
        keyword = _keyword(tokens)
        if keyword == "node":
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
                flags.append(flag_label(_ident(tokens[i + 1], "flag name")))
                i += 2
            node_specs[nid] = (types, flags)
        elif keyword == "attr":
            _shape(tokens, "attr ID.NAME = VALUE")
            owner, attr = _dotted(tokens[1], "attribute reference")
            _expect(tokens[2], "=")
            attr_specs.append((tokens[1], owner, attr, parse_value(tokens[3])))
        elif keyword == "edge":
            _shape(tokens, "edge SRC -LABEL-> TGT")
            src = _ident(tokens[1], "edge source")
            lbl = _edge_label_token(tokens[2])
            tgt = _ident(tokens[3], "edge target")
            triple = (src, lbl.name, tgt)
            if triple in seen_triples:
                raise ParseError(
                    f"duplicate edge {src} -{lbl.name}-> {tgt}", tokens[2].span)
            seen_triples.add(triple)
            edge_specs.append((tokens[1], lbl, tokens[3]))
        else:
            raise ParseError(f"unknown declaration {keyword!r}", tokens[0].span)

    g = HostGraph(name=name)
    ids: dict[str, int] = {}
    # Canonical ids: assigned in sorted-name order so that parsing the
    # serialized form reproduces the same internal ids.
    for nid in sorted(node_specs):
        types, flags = node_specs[nid]
        ids[nid] = g.add_node(types, flags, name=nid)

    seen_attrs: set[tuple[str, str]] = set()
    for tok, owner, attr, value in attr_specs:
        if owner not in ids:
            raise ParseError(f"attribute on unknown node {owner!r}", tok.span)
        if (owner, attr) in seen_attrs:
            raise ParseError(f"duplicate attribute {owner}.{attr}", tok.span)
        seen_attrs.add((owner, attr))
        g.set_attr(ids[owner], attr, value)

    for src_tok, lbl, tgt_tok in edge_specs:
        for tok in (src_tok, tgt_tok):
            if tok.text not in ids:
                raise ParseError(f"edge references unknown node {tok.text!r}",
                                 tok.span)
        g.add_edge(ids[src_tok.text], lbl, ids[tgt_tok.text])
    return g


def _serialized_names(g: HostGraph) -> dict[int, str]:
    """Each node's name in the text: its own if no lower id kept it and it
    is one bare token (no comment, no string) without reserved characters,
    else a fresh one, so that ``parse_graph`` reads every name back."""
    used = {n.name for n in g.nodes.values() if n.name}
    kept: set[str] = set()
    names: dict[int, str] = {}
    for nid in g.node_ids():
        name = g.nodes[nid].name
        if (name and name not in kept and name[0] != '"'
                and "#" not in name and not _RESERVED_RE.search(name)):
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
    out = [f"graph {g.name}"]
    for nid in sorted(g.nodes, key=lambda n: names[n]):
        node = g.nodes[nid]
        line = f"node {names[nid]}"
        if node.types:
            line += " : " + ",".join(sorted(t.name for t in node.types))
        for f in sorted(node.flags, key=lambda lb: lb.name):
            line += f" flag {f.name}"
        out.append(line)
        for attr in sorted(node.attrs):
            out.append(f"attr {names[nid]}.{attr} = "
                       f"{serialize_value(node.attrs[attr])}")
    for e in sorted(g.edges,
                    key=lambda e: (names[e.src], e.label.name, names[e.tgt])):
        out.append(f"edge {names[e.src]} -{e.label.name}-> {names[e.tgt]}")
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
            tg.types[tname] = TypeDecl(node_type(tname), abstract,
                                       set(supertypes), span=tokens[1].span)
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
            src = node_type(_ident(tokens[1], "source type"))
            lbl = _edge_label_token(tokens[2])
            tgt = node_type(_ident(tokens[3], "target type"))
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


def _parse_regex_text(text: str, span: SourceSpan) -> RegexPath:
    atoms = []
    for part in text.split("."):
        inverse = part.startswith("-")
        name = part[1:] if inverse else part
        if not name:
            raise ParseError("empty regex atom", span)
        atoms.append(RegexAtom(_label(edge_label, name, span), inverse))
    return RegexPath(tuple(atoms))


def _path_token(tok: Token) -> RegexPath:
    m = None if tok.quoted else _PATH_ARROW_RE.match(tok.text)
    if not m:
        raise ParseError("expected a path arrow of the form ~regex~>", tok.span)
    return _parse_regex_text(m.group(1), tok.span)


def parse_regex(text: str) -> RegexPath:
    """Parse a bare path expression such as ``-src.trg``."""
    span = SourceSpan("<regex>", 1, 1, len(text) + 1)
    return _parse_regex_text(text, span)


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
                type_constraint = node_type(_ident(tokens[i + 1], "type name"))
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
            if keyword == "path" and role not in (Role.READER, Role.EMBARGO):
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
            node.flag_ops.append(
                (flag_label(_ident(tokens[3], "flag name")), role))
        elif keyword in _CONSTRAINTS:
            usage, operator, kind = _CONSTRAINTS[keyword]
            _shape(tokens, usage)
            nid, attr = _dotted(tokens[1], "attribute reference")
            _expect(tokens[2], operator)
            if kind is ConstraintKind.RENAME:
                constraint = AttrConstraint(
                    kind, new_name=_ident(tokens[3], "attribute name"))
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
            if print_format is not None:
                raise ParseError("duplicate format line", tokens[0].span)
            print_format = tokens[1].text
        else:
            raise ParseError(f"unknown declaration {keyword!r}", tokens[0].span)

    for tok in pending_levels:
        if tok and tok.text not in quantifiers:
            raise ParseError(f"unknown quantifier {tok.text!r}", tok.span)

    nac_groups = group_embargo_elements(nodes, edges, quantifiers)
    disjunction_sets = []
    for gids, span in disjoins:
        for gid in gids:
            if gid not in nac_groups:
                raise ParseError(f"unknown NAC group {gid!r}", span)
        disjunction_sets.append(DisjunctionSet(tuple(gids)))

    return Rule(
        name=name,
        nodes=nodes,
        edges=edges,
        quantifiers=quantifiers,
        nac_groups=nac_groups,
        disjunction_sets=disjunction_sets,
        injectivity_pairs=injectivity,
        params=params,
        print_format=print_format,
    )


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
    """A rule system: named rules, enabled type graphs and a start graph."""

    name: str
    rules: dict[str, Rule] = field(default_factory=dict)
    type_graphs: list[TypeGraph] = field(default_factory=list)
    start: HostGraph | None = None
    start_file: str | None = None

    def violations(self, start: HostGraph | None
                   ) -> Iterator[tuple[TypeGraph | Rule | HostGraph, Violation]]:
        """Each violation of the type graphs, of the rules in name order and
        of ``start`` (when given), with the element it belongs to."""
        for tg in self.type_graphs:
            for v in validate_type_graph(tg):
                yield tg, v
        for name in sorted(self.rules):
            for v in validate_rule(self.rules[name], self.type_graphs):
                yield self.rules[name], v
        if start is not None:
            for v in conforms(self.type_graphs, start):
                yield start, v


def build_grammar(files: Mapping[str, str], name: str = "grammar") -> Grammar:
    """Assemble a grammar from a mapping of file names to file contents.

    Files are recognized by suffix: ``.gpr`` rules, ``.gty`` type graphs,
    ``.gst`` graphs, plus an optional ``grammar.cfg``.  The config selects
    the ``start`` graph (mandatory when several ``.gst`` files exist) and,
    via repeatable ``typegraph`` keys, which type graphs are enabled (all
    of them when the key is absent).  Other file types are ignored.
    """
    rules: dict[str, Rule] = {}
    type_graphs: dict[str, TypeGraph] = {}
    graphs: dict[str, HostGraph] = {}
    for fname in sorted(files):
        text = files[fname]
        if fname.endswith(".gpr"):
            rule = parse_rule(text, fname)
            if rule.name in rules:
                raise ParseError(
                    f"rule {rule.name!r} is defined more than once",
                    SourceSpan(fname, 1, 1, 2))
            rules[rule.name] = rule
        elif fname.endswith(".gty"):
            type_graphs[fname] = parse_type_graph(text, fname)
        elif fname.endswith(".gst"):
            graphs[fname] = parse_graph(text, fname)

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
        start_file = next(iter(graphs))
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
        start=graphs[start_file] if start_file is not None else None,
        start_file=start_file,
    )


def read_utf8(path: Path | Traversable) -> str:
    """A file's text; a file that is not UTF-8 is an OSError naming it."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: not UTF-8 at byte {exc.start}") from None


def load_grammar_dir(path: str | os.PathLike[str] | Traversable) -> Grammar:
    """The grammar in a directory, named after it: a file-system path or an
    ``importlib.resources`` Traversable such as a packaged fixture."""
    directory = Path(path) if isinstance(path, (str, os.PathLike)) else path
    if not directory.is_dir():
        raise OSError(f"{path}: not a directory")
    files = {}
    for entry in directory.iterdir():
        name = entry.name
        if entry.is_file() and (name == CONFIG_FILE
                                or name.endswith((".gpr", ".gty", ".gst"))):
            files[name] = read_utf8(entry)
    return build_grammar(files, name=directory.name)
