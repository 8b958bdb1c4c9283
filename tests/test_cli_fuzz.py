"""Seeded mutation fuzzing of the command line.

Each example copies a fixture grammar, edits one of its ``.gpr``, ``.gst``
or ``.gty`` files by replacing, inserting or duplicating tokens and lines,
and runs ``gtx validate``, ``apply`` and ``explore`` on the copy.  Whatever
the edit, every command must end with one of the documented exit codes
and no exception may escape ``cli.main``.
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


@st.composite
def mutated_grammars(draw):
    name = draw(st.sampled_from(sorted(GRAMMARS)))
    files = dict(GRAMMARS[name])
    target = draw(st.sampled_from(sorted(f for f in files
                                         if f.endswith(MUTABLE))))
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
    files[target] = "\n".join(lines) + "\n"
    rules = sorted(f[:-len(".gpr")] for f in GRAMMARS[name]
                   if f.endswith(".gpr"))
    return name, files, draw(st.sampled_from(rules))


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mutated_grammars())
def test_mutated_grammars_end_with_a_documented_exit_code(case):
    name, files, rule = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / name
        d.mkdir()
        for fname, text in files.items():
            (d / fname).write_text(text, encoding="utf-8")
        for argv in (["validate", str(d)], ["apply", str(d), rule],
                     ["explore", str(d), "--max-states", "20"]):
            code, err = run(argv)
            assert code in EXIT_CODES, (argv, code, err)
            assert "Traceback" not in err
