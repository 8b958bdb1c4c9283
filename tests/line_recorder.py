"""A pytest plugin that prints each line of ``src/gtx`` that no test ran.

It is not a test module, so a plain ``pytest`` run does not load it.
Load it by name, from the repository root::

    python3 -m pytest -p tests.line_recorder -q

At the end of the run it prints one ``path:line: source`` line for each
executable line that never ran, and a count.  It traces with
``sys.settrace`` from before the conftest files import the package, and
writes no file.  Lines run only in a subprocess (``gtx.__main__``,
``cli.entrypoint``) count as never run.  A traced run is about three
times slower, so ``test_isomorphism_scales_past_the_recursion_limit``
can overrun its 1 s budget.  The tracer keeps no frame alive, so the
cyclic-garbage checks of ``tests/test_cli_gc.py`` hold under it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path
from types import CodeType

SRC = Path(__file__).resolve().parents[1] / "src" / "gtx"

#: the lines run, by file
_ran: dict[str, set[int]] = {}
#: whether a code file lies in SRC, by its name as the code object has it
_wanted: dict[str, bool] = {}


def _local(frame, event, arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    wanted = _wanted.get(name)
    if wanted is None:
        wanted = _wanted[name] = Path(os.path.realpath(name)).parent == SRC
        _ran.setdefault(name, set())
    return _local if wanted else None


def _executable(code: CodeType) -> set[int]:
    """The lines of ``code`` and of the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable(const)
    return lines


def _unrun() -> list[tuple[Path, int, str]]:
    ran: dict[Path, set[int]] = {}
    for name, lines in _ran.items():
        if _wanted.get(name):
            ran.setdefault(Path(os.path.realpath(name)), set()).update(lines)
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for line in sorted(_executable(compile(source, str(path), "exec"))
                           - ran.get(path, set())):
            out.append((path, line, text[line - 1].strip()))
    return out


def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftest files import gtx
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)


def pytest_terminal_summary(terminalreporter):
    unrun = _unrun()
    root = SRC.parents[1]
    terminalreporter.section("lines of src/gtx that no test ran")
    for path, line, text in unrun:
        terminalreporter.write_line(
            f"{path.relative_to(root)}:{line}: {text}")
    terminalreporter.write_line(f"{len(unrun)} lines never ran")
