"""Every name a ``gtx`` module imports is used, and every module it
imports from outside the package is in the standard library.

A name counts as used when the module reads it (annotations included) or
lists it in ``__all__``.  An import line marked ``# noqa: F401`` is exempt.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gtx"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and not any("# noqa: F401" in line
                          for line in lines[node.lineno - 1:node.end_lineno])):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value))
                            if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_reported():
    source = ("from __future__ import annotations\n"
              "import os\nimport re  # noqa: F401\n"
              "from typing import Any, Iterator as It, Sized\n"
              "import xml.dom\n"
              "__all__ = ['Any']\n"
              "def f(x: 'Sized') -> It: ...\n")
    assert unused_imports(source) == ["line 2: os", "line 5: xml"]


def outside_modules(source: str) -> set[str]:
    """The top-level names of the modules that ``source`` imports by
    absolute name."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.partition(".")[0] for name in names}


def test_gtx_imports_only_the_standard_library():
    # the package has no runtime dependencies
    found = {name: path.name for path in sorted(SRC.rglob("*.py"))
             for name in outside_modules(path.read_text(encoding="utf-8"))}
    assert found and {name: where for name, where in found.items()
                      if name not in sys.stdlib_module_names} == {}


def test_only_the_benchmark_pinned_import_is_exempt():
    # perfbench's tracer self-test lists gtx.explorer.find_root_matches
    # among the binding sites it wraps, so explorer.py keeps an import it
    # never calls.  Another exemption needs its reason stated here.
    exempt = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
              for line in path.read_text(encoding="utf-8").splitlines()
              if "# noqa: F401" in line]
    assert exempt == [("explorer.py",
                       "from .matcher import find_root_matches  # noqa: F401")]


def test_only_the_command_line_imports_gc():
    # pausing the cyclic collector is process-wide, and only the CLI owns
    # its process: a library caller never sees the collector's state change
    found = sorted(path.name for path in SRC.rglob("*.py")
                   if "gc" in outside_modules(path.read_text(encoding="utf-8")))
    assert found == ["cli.py"]
