"""Golden CLI transcript: every fixture grammar through ``cli.main``.

For each fixture grammar the transcript records ``validate`` and
``explore --max-states 40``, and ``apply``, ``apply --all-matches`` and
``count`` for every rule; then ``suite`` and ``explore`` of the benchmark's
ring grammar.  Each run keeps its exit code, stdout and stderr, which must
stay byte-identical.  Paths are relative to the repository root.

Each record in ``cli_golden.txt`` is a ``$ ARGS`` line, an ``exit N``
line, then the stdout pieces between newlines as ``1|`` lines and the
stderr pieces as ``2|`` lines.  To record it again, run::

    PYTHONPATH=src python tests/test_cli_golden.py

which prints how many lines changed, and how many of those are not the
16-hex certificate of a ``state`` line.
"""

from __future__ import annotations

import difflib
import io
import os
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

from gtx.cli import main

REPO = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "cli_golden.txt"
FIXTURES = "src/gtx/fixtures/helloworld"


def commands() -> list[list[str]]:
    runs = []
    for grammar in sorted(p.name for p in (REPO / FIXTURES).iterdir()
                          if p.is_dir()):
        path = f"{FIXTURES}/{grammar}"
        runs += [["validate", path], ["explore", path, "--max-states", "40"]]
        for rule in sorted(p.stem for p in (REPO / path).glob("*.gpr")):
            runs += [["apply", path, rule],
                     ["apply", path, rule, "--all-matches"],
                     ["count", path, rule]]
    return runs + [["suite"], ["explore", "perfbench/grammars/ring"]]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def render(argv: list[str], code: int, out: str, err: str) -> str:
    lines = [f"$ {shlex.join(argv)}", f"exit {code}"]
    lines += [f"1|{piece}" for piece in out.split("\n")]
    lines += [f"2|{piece}" for piece in err.split("\n")]
    return "\n".join(lines) + "\n"


def test_cli_transcript_is_unchanged(monkeypatch):
    monkeypatch.setenv("GTX_COLOR", "never")
    text = TRANSCRIPT.read_bytes().decode("utf-8")
    expected = re.split(r"^(?=\$ )", text, flags=re.M)[1:]
    runs = commands()
    assert len(runs) == len(expected) == 57
    for argv, record in zip(runs, expected):
        assert render(argv, *run(argv)) == record, shlex.join(argv)


def count_changes(old: list[str], new: list[str]) -> tuple[int, int]:
    """The lines that differ between two transcripts, and how many of
    those differ in more than the certificate of a ``state`` line."""
    state = re.compile(r"1\|state S\d+ [0-9a-f]{16}")
    changed = [pair for op, i1, i2, j1, j2 in difflib.SequenceMatcher(
        None, old, new, autojunk=False).get_opcodes()
        if op != "equal" for pair in zip_longest(old[i1:i2], new[j1:j2])]
    outside = sum(not (a and b and state.fullmatch(a) and state.fullmatch(b)
                       and a[:-16] == b[:-16]) for a, b in changed)
    return len(changed), outside


if __name__ == "__main__":
    os.environ["GTX_COLOR"] = "never"
    old = TRANSCRIPT.read_bytes().decode("utf-8")
    new = "".join(render(argv, *run(argv)) for argv in commands())
    TRANSCRIPT.write_bytes(new.encode("utf-8"))
    changed, outside = count_changes(old.splitlines(), new.splitlines())
    print(f"{TRANSCRIPT.name}: {changed} changed, {outside} outside certs")
