"""Seeded mutation fuzzing of the command line.

Each example copies a fixture grammar and makes one kind of edit: it
replaces, inserts or duplicates tokens and lines of one of its ``.gpr``,
``.gst`` or ``.gty`` files; deletes, inserts or replaces single
characters, non-ASCII ones among them; inserts a byte sequence that is
not UTF-8; or drops a file of the grammar or adds a stray ``.gst`` or
``.gpr`` file.  Then it runs ``gtx validate``, ``apply`` and ``explore``
on the copy.  Whatever the edit, every command must end with one of the
documented exit codes and no exception may escape ``cli.main``.
"""

from __future__ import annotations

import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gtx import cli
from gtx.suite import FIXTURE_ROOT, fixture_grammar_names

FIXTURES = Path(cli.__file__).parent / FIXTURE_ROOT
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VIOLATIONS, cli.EXIT_IO,
              cli.EXIT_INAPPLICABLE, cli.EXIT_TRUNCATED}
MUTABLE = (".gpr", ".gst", ".gty")

#: grammar name -> file name -> text
GRAMMARS = {
    name: {f.name: f.read_text(encoding="utf-8")
           for f in sorted((FIXTURES / name).iterdir()) if f.is_file()}
    for name in fixture_grammar_names()
}

#: tokens from every part of the languages, and some that no part accepts
TOKENS = [
    "graph", "rule", "typegraph", "node", "edge", "attr", "flag", "type",
    "quant", "path", "match", "assign", "rewrite", "bind", "neq", "disjoin",
    "format", "forall", "in", "count", "group", "abstract", "extends", ":",
    ",", "=", "==", "->", "role=reader", "role=eraser", "role=creator",
    "role=embargo", "role=", "-e->", "-->", "~src.-trg~>", "~~>", "root",
    "q", "0", "-1", "007", "1.5", "1.0e999", "1.0e-999", "true", '"x"',
    '"%s%s%n"', '"', '"\\q"', "#", "²", "٣", "x.y", "a.b.c", "",
]


#: single characters: syntax, whitespace, a control character and non-ASCII
CHARS = ["a", "0", " ", "\t", "\r", "\x00", "#", '"', "\\", ".", ",", ":",
         "-", ">", "~", "=", "é", "²", "٣", "\u2028", "\U0001F600"]

#: byte sequences that are not UTF-8: a stray continuation byte, a cut
#: two-byte sequence, an encoded surrogate and a byte no sequence uses
NOT_UTF8 = [b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"]


def edit_tokens(draw, files: dict[str, str], target: str) -> str:
    own_lines = [line for text in files.values() for line in text.splitlines()]
    tokens = st.sampled_from(
        TOKENS + sorted({w for line in own_lines for w in line.split()}))
    lines = files[target].splitlines() or [""]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split(" ")
        j = draw(st.integers(0, len(words) - 1))
        op = draw(st.sampled_from(["replace", "insert", "duplicate",
                                   "insert line", "duplicate line"]))
        if op == "replace":
            words[j] = draw(tokens)
        elif op == "insert":
            words.insert(j, draw(tokens))
        elif op == "duplicate":
            words.insert(j, words[j])
        elif op == "insert line":
            lines.insert(i, draw(st.sampled_from(own_lines)))
            continue
        else:
            lines.insert(i, lines[i])
            continue
        lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


def edit_characters(draw, text: str) -> str:
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "insert", "replace"]))
        new = "" if op == "delete" else draw(st.sampled_from(CHARS))
        text = text[:i] + new + text[i + (op != "insert"):]
    return text


@st.composite
def mutated_grammars(draw):
    name = draw(st.sampled_from(sorted(GRAMMARS)))
    files: dict[str, str | bytes] = dict(GRAMMARS[name])
    target = draw(st.sampled_from(sorted(f for f in files
                                         if f.endswith(MUTABLE))))
    kind = draw(st.sampled_from(["tokens", "characters", "not UTF-8",
                                 "drop", "stray"]))
    if kind == "tokens":
        files[target] = edit_tokens(draw, GRAMMARS[name], target)
    elif kind == "characters":
        files[target] = edit_characters(draw, GRAMMARS[name][target])
    elif kind == "not UTF-8":
        data = GRAMMARS[name][target].encode("utf-8")
        i = draw(st.integers(0, len(data)))
        files[target] = data[:i] + draw(st.sampled_from(NOT_UTF8)) + data[i:]
    elif kind == "drop":
        del files[draw(st.sampled_from(sorted(files)))]
    else:
        suffix = draw(st.sampled_from([".gst", ".gpr"]))
        files["stray" + suffix] = draw(st.sampled_from(sorted(
            {text for grammar in GRAMMARS.values()
             for f, text in grammar.items() if f.endswith(suffix)})))
    rules = sorted(f[:-len(".gpr")] for f in GRAMMARS[name]
                   if f.endswith(".gpr"))
    return name, files, draw(st.sampled_from(rules))


def write_case(root: Path, case) -> list[list[str]]:
    """Write a drawn grammar under ``root``; return the commands to run on
    it."""
    name, files, rule = case
    d = root / name
    d.mkdir()
    for fname, text in files.items():
        (d / fname).write_bytes(text if isinstance(text, bytes)
                                else text.encode("utf-8"))
    return [["validate", str(d)], ["apply", str(d), rule],
            ["explore", str(d), "--max-states", "20"]]


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mutated_grammars())
def test_mutated_grammars_end_with_a_documented_exit_code(case):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in write_case(Path(tmp), case):
            code, err = run(argv)
            assert code in EXIT_CODES, (argv, code, err)
            assert "Traceback" not in err
