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
"""

from __future__ import annotations

import io
import os
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
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


if __name__ == "__main__":
    os.environ["GTX_COLOR"] = "never"
    TRANSCRIPT.write_bytes("".join(
        render(argv, *run(argv)) for argv in commands()).encode("utf-8"))
