"""``cli.main`` runs each command with the cyclic collector paused.

That costs nothing only while no command leaves cyclic garbage: an object
that dies by reference count is freed at once, but a reference cycle made
during a command would wait for the next collection.  These tests check
that premise on fuzzed grammars, on every fixture grammar and on
``gtx suite``, and that ``main`` leaves the collector as it found it.
"""

from __future__ import annotations

import gc
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings

import gtx.cli
from gtx.dsl import load_grammar_dir
from gtx.suite import fixture_grammar_names
from test_cli_fuzz import FIXTURES, mutated_grammars, run, write_case


@contextmanager
def frozen_heap():
    """Leave every object alive so far out of later collections, so that
    each collection below walks only what the commands made."""
    gtx.cli._build_parser()  # its one-time build leaves cycles of its own
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def cyclic_garbage(argv: list[str]) -> int:
    """How many objects ``main(argv)`` leaves that only the cyclic
    collector can free."""
    gc.collect()
    gc.disable()
    try:
        run(argv)
        return gc.collect()
    finally:
        gc.enable()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(mutated_grammars())
def check_mutated_grammar(case):
    with tempfile.TemporaryDirectory() as tmp:
        for argv in write_case(Path(tmp), case):
            assert cyclic_garbage(argv) == 0, argv


def test_no_command_on_a_mutated_grammar_leaves_cyclic_garbage():
    # parse, usage and I/O errors included
    with frozen_heap():
        check_mutated_grammar()


def fixture_commands() -> list[list[str]]:
    commands = [["suite"]]
    for name in fixture_grammar_names():
        d = str(FIXTURES / name)
        commands += [["validate", d], ["explore", d, "--max-states", "20"]]
        for rule in sorted(load_grammar_dir(d).rules):
            commands += [["apply", d, rule], ["apply", d, rule,
                                              "--all-matches"],
                         ["count", d, rule]]
    return commands


def test_no_command_on_a_fixture_grammar_leaves_cyclic_garbage():
    with frozen_heap():
        for argv in fixture_commands():
            assert cyclic_garbage(argv) == 0, argv


def test_the_check_sees_a_cycle_that_a_command_leaves(monkeypatch):
    load = gtx.cli.load_grammar_dir

    def cyclic_load(*args):
        a = []
        a.append(a)
        return load(*args)

    monkeypatch.setattr(gtx.cli, "load_grammar_dir", cyclic_load)
    with frozen_heap():
        assert cyclic_garbage(["validate", str(FIXTURES / "hello")]) == 1


# -- the collector's state after main --------------------------------------


@pytest.fixture
def collector():
    """Restore the collector's state however the test leaves it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def one_command_per_exit_code(tmp_path: Path) -> dict[int, list[str]]:
    d = tmp_path / "grammar"
    d.mkdir()
    (d / "del.gpr").write_text("rule del\nnode d role=eraser\n",
                               encoding="utf-8")
    (d / "h.gst").write_text("graph h\n", encoding="utf-8")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "t.gty").write_text("typegraph t\ntype A extends Ghost\n",
                               encoding="utf-8")
    return {
        gtx.cli.EXIT_OK: ["validate", str(FIXTURES / "hello")],
        gtx.cli.EXIT_VIOLATIONS: ["validate", str(bad)],
        gtx.cli.EXIT_IO: ["apply", str(FIXTURES / "hello"), "nope"],
        gtx.cli.EXIT_INAPPLICABLE: ["apply", str(d), "del"],
        gtx.cli.EXIT_TRUNCATED: ["explore", str(FIXTURES / "reverse"),
                                 "--max-depth", "0"],
    }


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, collector,
                                                  enabled):
    for code, argv in one_command_per_exit_code(tmp_path).items():
        (gc.enable if enabled else gc.disable)()
        assert run(argv)[0] == code
        assert gc.isenabled() == enabled, argv


def test_an_exception_from_a_command_turns_the_collector_back_on(
        monkeypatch, collector):
    seen = []

    def broken_explore(*args, **kwargs):
        seen.append(gc.isenabled())
        raise ValueError("boom")

    monkeypatch.setattr(gtx.cli, "explore", broken_explore)
    gc.enable()
    with pytest.raises(ValueError, match="boom"):
        run(["explore", str(FIXTURES / "reverse")])
    # paused while the command ran, running again after it
    assert seen == [False] and gc.isenabled()
