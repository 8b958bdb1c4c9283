"""Command-line interface, driven in-process through main()."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import gtx
from gtx.cli import main

FIXTURES = Path(gtx.__file__).parent / "fixtures" / "helloworld"


@pytest.fixture(autouse=True)
def plain_diagnostics(monkeypatch):
    monkeypatch.setenv("GTX_COLOR", "never")


def write_grammar(tmp_path: Path, files: dict[str, str]) -> str:
    d = tmp_path / "grammar"
    d.mkdir(exist_ok=True)
    for name, text in files.items():
        (d / name).write_text(text, encoding="utf-8")
    return str(d)


DELETE_ALL = {
    "del.gpr": "rule del\nnode d role=eraser\n",
    "start.gst": "graph h\nnode a\nnode b\n",
}


# -- validate ----------------------------------------------------------


def test_validate_reports_ok(capsys):
    code = main(["validate", str(FIXTURES / "hello")])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "hello: 1 rules, 1 type graphs: ok\n"
    assert out.err == ""


def test_validate_reports_semantic_violations(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "t.gty": "typegraph t\ntype A extends Ghost\n",
        "h.gst": "graph h\n",
    })
    code = main(["validate", d])
    out = capsys.readouterr()
    assert code == 1
    assert "error:" in out.err and "Ghost" in out.err


def test_validate_checks_start_conformance(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "t.gty": "typegraph t\ntype A\n",
        "h.gst": "graph h\nnode n : Mystery\n",
    })
    assert main(["validate", d]) == 1
    assert "Mystery" in capsys.readouterr().err


def test_validate_graph_override(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "t.gty": "typegraph t\ntype A\n",
        "h.gst": "graph h\nnode n : Mystery\n",
    })
    good = tmp_path / "good.gst"
    good.write_text("graph ok\nnode n : A\n", encoding="utf-8")
    assert main(["validate", d, "--graph", str(good)]) == 0
    capsys.readouterr()


def test_parse_errors_carry_file_line_column(tmp_path, capsys):
    d = write_grammar(tmp_path, {"h.gst": "graph h\nnode n\nnode n\n"})
    code = main(["validate", d])
    err = capsys.readouterr().err
    assert code == 2
    assert re.match(r"^h\.gst:3:6: error: duplicate node", err)


def test_missing_directory_is_an_io_error(capsys):
    assert main(["validate", "/no/such/dir"]) == 2
    assert "error:" in capsys.readouterr().err


# -- apply -------------------------------------------------------------


def test_apply_writes_output_file_and_graph_to_stdout(tmp_path, capsys):
    out_file = tmp_path / "msg.txt"
    code = main(["apply", str(FIXTURES / "hello"), "helloMessage",
                 "--out", str(out_file)])
    captured = capsys.readouterr()
    assert code == 0
    assert out_file.read_bytes() == b"The output is Hello TTC Participants \n"
    assert captured.out.startswith("graph hello\n")
    assert "GreetingMessage" in captured.out


def test_apply_prints_output_separator_graph(capsys):
    code = main(["apply", str(FIXTURES / "hello"), "helloMessage"])
    out = capsys.readouterr().out
    assert code == 0
    head, _, tail = out.partition("---\n")
    assert head == "The output is Hello TTC Participants \n"
    assert tail.startswith("graph hello\n")


def test_apply_without_output_prints_only_the_graph(tmp_path, capsys):
    d = write_grammar(tmp_path, DELETE_ALL)
    code = main(["apply", d, "del"])
    out = capsys.readouterr().out
    assert code == 0
    assert "---" not in out
    assert out.count("node ") == 1


def test_apply_all_matches_reapplies_per_initial_match(tmp_path, capsys):
    d = write_grammar(tmp_path, DELETE_ALL)
    code = main(["apply", d, "del", "--all-matches"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "graph h\n"  # both nodes deleted


def test_apply_inapplicable_rule_exits_3(tmp_path, capsys):
    d = write_grammar(tmp_path, DELETE_ALL)
    empty = tmp_path / "empty.gst"
    empty.write_text("graph e\n", encoding="utf-8")
    for extra in ([], ["--all-matches"]):
        code = main(["apply", d, "del", "--graph", str(empty), *extra])
        out = capsys.readouterr()
        assert code == 3
        assert out.out == ""
        assert "not applicable" in out.err


def test_apply_unknown_rule_exits_2(capsys):
    assert main(["apply", str(FIXTURES / "hello"), "nope"]) == 2
    assert "no rule named" in capsys.readouterr().err


# -- count -------------------------------------------------------------


def test_count_prints_the_rendered_format(capsys):
    code = main(["count", str(FIXTURES / "counting"), "countNodes"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "6 nodes\n"


def test_count_rejects_rules_that_write(capsys):
    code = main(["count", str(FIXTURES / "greeting"), "makeGreeting"])
    assert code == 2
    assert "read-only" in capsys.readouterr().err


def test_count_rejects_rules_without_a_format(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "r.gpr": "rule quiet\nnode n role=reader\n",
        "h.gst": "graph h\nnode a\n",
    })
    assert main(["count", d, "quiet"]) == 2
    capsys.readouterr()


def test_count_respects_graph_override(tmp_path, capsys):
    override = tmp_path / "two.gst"
    override.write_text(
        "graph g\nnode gr : Graph\nnode a : Node\nnode b : Node\n"
        "edge gr -nodes-> a\nedge gr -nodes-> b\n", encoding="utf-8")
    code = main(["count", str(FIXTURES / "counting"), "countNodes",
                 "--graph", str(override)])
    assert code == 0
    assert capsys.readouterr().out == "2 nodes\n"


# -- explore -----------------------------------------------------------


def test_explore_prints_the_transition_system(capsys):
    code = main(["explore", str(FIXTURES / "reverse")])
    out = capsys.readouterr().out
    assert code == 0
    # the README example: certificates are part of the printed output
    assert out.splitlines() == [
        "state S0 1f9fa0163753456a",
        "state S1 24ef732926ede5c8",
        "trans S0 -reverseEdges-> S1",
        "trans S1 -reverseEdges-> S0",
    ]


def test_explore_truncation_exits_4(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "grow.gpr": ("rule grow\nnode n role=reader\nnode c role=creator\n"
                     "edge n -e-> c role=creator\n"),
        "seed.gst": "graph g\nnode seed\n",
    })
    code = main(["explore", d, "--max-states", "3"])
    out = capsys.readouterr().out
    assert code == 4
    assert out.splitlines()[-1] == "truncated"


def test_explore_rejects_max_states_below_one(capsys):
    for bad in ("0", "-3"):
        code = main(["explore", str(FIXTURES / "reverse"), "--max-states", bad])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "max_states must be at least 1" in out.err


# -- suite -------------------------------------------------------------


def test_suite_runs_all_fixtures(capsys):
    code = main(["suite"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("PASS ")) == 13
    assert not any(l.startswith("FAIL") for l in lines)
    assert lines[-1] == "13 passed, 0 failed of 13 fixtures"


def test_suite_filter_narrows_the_run(capsys):
    code = main(["suite", "--filter", "count"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "5 passed, 0 failed of 5 fixtures"


# -- diagnostics styling ----------------------------------------------


def test_color_mode_always_wraps_the_error_label(monkeypatch, capsys):
    monkeypatch.setenv("GTX_COLOR", "always")
    main(["validate", "/no/such/dir"])
    assert "\x1b[31merror:\x1b[0m" in capsys.readouterr().err


def test_color_mode_never_is_plain(capsys):
    main(["validate", "/no/such/dir"])
    err = capsys.readouterr().err
    assert "\x1b[" not in err
