"""Command-line interface, driven in-process through main()."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gtx
import gtx.cli
import gtx.suite
from gtx.cli import main
from gtx.suite import Fixture

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


def test_validate_names_the_current_directory(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES / "hello")
    code = main(["validate", "."])
    assert code == 0
    assert capsys.readouterr().out == "hello: 1 rules, 1 type graphs: ok\n"


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


def test_with_graph_the_start_graph_is_not_read(tmp_path, capsys):
    d = tmp_path / "migration_gc"
    shutil.copytree(FIXTURES / "migration_gc", d)
    host = tmp_path / "host.gst"
    shutil.copy(d / "counting.gst", host)
    rule = "migrateToGraphComponent"
    assert main(["apply", str(d), rule]) == 0
    clean = capsys.readouterr().out
    with (d / "counting.gst").open("a", encoding="utf-8") as f:
        f.write("node x : .\n")
    assert main(["apply", str(d), rule, "--graph", str(host)]) == 0
    assert capsys.readouterr().out == clean
    assert main(["validate", str(d)]) == 2
    assert capsys.readouterr().err.startswith("counting.gst:54:8: error: ")


def test_parse_errors_carry_file_line_column(tmp_path, capsys):
    d = write_grammar(tmp_path, {"h.gst": "graph h\nnode n\nnode n\n"})
    code = main(["validate", d])
    err = capsys.readouterr().err
    assert code == 2
    assert re.match(r"^h\.gst:3:6: error: duplicate node", err)


@pytest.mark.parametrize("args", [["apply", "r"], ["explore"]])
def test_a_surrogate_escape_is_a_parse_error(tmp_path, capsys, args):
    # UTF-8 cannot encode a lone surrogate, so no graph may hold one
    d = write_grammar(tmp_path, {
        "r.gpr": "rule r\nnode a role=reader\n"
                 "flag a creator done\nflag a embargo done\n",
        "s.gst": 'graph s\nnode a\nattr a.s = "\\ud800"\n',
    })
    code = main([args[0], d, *args[1:]])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (
        2, "", "s.gst:3:13: error: invalid string escape\n")


def test_a_node_type_name_with_a_comma_is_refused(tmp_path, capsys):
    # written out, ": a,b" would read back as the two types a and b
    d = write_grammar(tmp_path, {
        "mk.gpr": "rule mk\nnode x role=creator : a,b\n",
        "g.gst": "graph g\n",
    })
    code = main(["apply", d, "mk"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (2, "", (
        "mk.gpr:2:23: error: label name 'a,b' contains reserved character "
        "','\n"))


def test_missing_directory_is_an_io_error(capsys):
    assert main(["validate", "/no/such/dir"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["bind \u00b2 = a.x",
                                  "quant q forall count \u00b2"])
def test_non_ascii_parameter_index_is_a_diagnostic(tmp_path, capsys, line):
    d = write_grammar(tmp_path, {
        "r.gpr": f"rule r\nnode a role=reader\n{line}\n",
        "h.gst": "graph h\n",
    })
    code = main(["validate", d])
    err = capsys.readouterr().err
    assert code == 2
    assert re.fullmatch(r"r\.gpr:3:\d+: error: expected parameter index "
                        r"\(a non-negative integer\)\n", err)


@pytest.mark.parametrize("files, where", [
    ({"h.gst": "graph h\nnode a\nattr a.x = 1.0e999\n"}, "h.gst:3:12"),
    ({"r.gpr": "rule r\nnode a role=reader\nmatch a.x == -1.0e999\n",
      "h.gst": "graph h\n"}, "r.gpr:3:14"),
], ids=["gst", "gpr"])
def test_overflowing_real_literal_is_a_diagnostic(tmp_path, capsys, files,
                                                  where):
    code = main(["validate", write_grammar(tmp_path, files)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"{where}: error: real literal out of range\n")


UNBOUND_FORMAT = {
    "say.gpr": 'rule say\nnode n role=reader\nformat "value %s"\n',
    "h.gst": "graph h\nnode a\n",
}


def test_validate_reports_a_format_with_unbound_holes(tmp_path, capsys):
    code = main(["validate", write_grammar(tmp_path, UNBOUND_FORMAT)])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: rule 'say': format has more %s holes (1) than parameters "
        "(0)\n")


def test_files_the_grammar_does_not_use_are_not_read(tmp_path, capsys):
    d = write_grammar(tmp_path, DELETE_ALL)
    (Path(d) / "picture.png").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    assert main(["validate", d]) == 0
    assert capsys.readouterr().err == ""


def test_grammar_file_that_is_not_utf8_is_one_diagnostic(tmp_path, capsys):
    d = write_grammar(tmp_path, DELETE_ALL)
    (Path(d) / "bad.gpr").write_bytes(b"rule bad\nnode \xff role=reader\n")
    assert main(["validate", d]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert re.fullmatch(r"error: .*bad\.gpr: not UTF-8 at byte 14\n", err)


@pytest.mark.parametrize("command", [["validate"], ["apply", "del"]],
                         ids=["validate", "apply"])
def test_graph_file_that_is_not_utf8_is_one_diagnostic(tmp_path, capsys,
                                                       command):
    d = write_grammar(tmp_path, DELETE_ALL)
    bad = tmp_path / "bad.gst"
    bad.write_bytes(b"graph h\nnode \xff\n")
    code = main([command[0], d, *command[1:], "--graph", str(bad)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 at byte 13\n"


def test_a_stray_graph_file_that_is_not_utf8_is_not_read(tmp_path, capsys):
    d = tmp_path / "hello"
    shutil.copytree(FIXTURES / "hello", d)
    (d / "stray.gst").write_bytes(b"graph h\nnode \xff\n")
    assert main(["validate", str(d)]) == 0
    host = str(d / "hello.gst")
    assert main(["apply", str(d), "helloMessage", "--graph", host]) == 0
    assert capsys.readouterr().err == ""


def test_a_start_file_that_is_not_utf8_is_read_only_when_used(tmp_path,
                                                               capsys):
    d = tmp_path / "counting"
    shutil.copytree(FIXTURES / "counting", d)
    host = tmp_path / "host.gst"
    shutil.copy(d / "counting.gst", host)
    (d / "counting.gst").write_bytes(b"graph h\nnode \xff\n")
    for command in (["apply", "countNodes"], ["count", "countNodes"],
                    ["explore"]):
        assert main([command[0], str(d), *command[1:],
                     "--graph", str(host)]) == 0, command
        assert capsys.readouterr().err == ""
    assert main(["validate", str(d)]) == 2
    assert capsys.readouterr().err == (
        f"error: {d / 'counting.gst'}: not UTF-8 at byte 13\n")


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


def test_assigning_negative_zero_over_zero_applies(tmp_path, capsys):
    d = write_grammar(tmp_path, {
        "neg.gpr": "rule neg\nnode a role=reader\nassign a.v = -0.0\n",
        "h.gst": "graph h\nnode a\nattr a.v = 0.0\n",
    })
    code = main(["apply", d, "neg"])
    assert code == 0
    assert capsys.readouterr().out == "graph h\nnode a\nattr a.v = -0.0\n"


def test_apply_unknown_rule_exits_2(capsys):
    assert main(["apply", str(FIXTURES / "hello"), "nope"]) == 2
    assert "no rule named" in capsys.readouterr().err


COUNT_A = {"c.gpr": 'rule c\nformat "found%n"\nnode n role=reader : A\n'}
NO_START = "error: no start graph; add one or pass --graph\n"


@pytest.mark.parametrize("command", [["apply", "c"], ["count", "c"],
                                     ["explore"]])
def test_commands_without_a_start_graph_exit_2(tmp_path, capsys, command):
    d = write_grammar(tmp_path, COUNT_A)
    code = main([command[0], d, *command[1:]])
    out = capsys.readouterr()
    assert code == 2
    assert (out.out, out.err) == ("", NO_START)


# -- rules that do not validate ----------------------------------------

#: rule bodies that parse but that validation rejects
INVALID_RULES = {
    "self_cycle_count": 'quant q forall in q count 0\n'
                        'node n role=reader in q\nformat "%s"\n',
    "mutual_cycle_count": 'quant a forall in b\nquant b forall in a count 0\n'
                          'node n role=reader in b\nformat "%s"\n',
    "unbound_hole": 'node n role=reader\nformat "value %s"\n',
    "eraser_edge_above_its_end": 'node a role=reader\nquant q forall\n'
                                 'node b role=reader in q\n'
                                 'edge a -e-> b role=eraser\n',
    "parameter_in_a_quantifier": 'quant q forall\nnode n role=reader in q\n'
                                 'bind 0 = n.v\nformat "%s"\n',
    "parameter_on_an_embargo_node": 'node n role=embargo\nbind 0 = n.v\n'
                                    'format "%s"\n',
    "nac_anchor_below_its_group": 'quant q forall\nnode a role=reader in q\n'
                                  'node x role=embargo\n'
                                  'edge a -e-> x role=embargo\nformat "x"\n',
    "reader_edge_to_a_creator": 'node a role=reader\nnode c role=creator\n'
                                'edge a -e-> c role=reader\n',
}

#: rules that write: ``count`` refuses them before it matches anything
WRITERS = {"eraser_edge_above_its_end", "reader_edge_to_a_creator"}
REFUSALS = [(command, case) for case in INVALID_RULES
            for command in ("apply", "count", "explore")
            if command != "count" or case not in WRITERS]


def invalid_rule_grammar(tmp_path: Path, case: str) -> str:
    return write_grammar(tmp_path, {
        "r.gpr": f"rule r\n{INVALID_RULES[case]}",
        "h.gst": "graph h\nnode a\nattr a.v = 1\nedge a -e-> a\n",
    })


@pytest.mark.parametrize("command, case", REFUSALS)
def test_a_rule_that_does_not_validate_is_refused(tmp_path, capsys, command,
                                                  case):
    d = invalid_rule_grammar(tmp_path, case)
    assert main(["validate", d]) == 1
    expected = capsys.readouterr().err
    code = main([command, d] + (["r"] if command != "explore" else []))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", expected)


def test_only_the_rules_a_command_matches_are_checked(tmp_path, capsys):
    valid = {**DELETE_ALL, "c.gpr": 'rule c\nformat "found%n"\n'
                                    'node n role=reader\n'}
    (tmp_path / "valid").mkdir()
    (tmp_path / "mixed").mkdir()
    d = write_grammar(tmp_path / "valid", valid)
    mixed = write_grammar(tmp_path / "mixed", {
        **valid, "r.gpr": f"rule r\n{INVALID_RULES['unbound_hole']}"})
    for command, rule in (("apply", "del"), ("count", "c")):
        runs = [(main([command, grammar, rule]), capsys.readouterr())
                for grammar in (d, mixed)]
        assert runs[0][0] == 0 and runs[0] == runs[1]
    assert main(["explore", mixed]) == 1
    assert capsys.readouterr() == ("", "error: rule 'r': format has more %s "
                                       "holes (1) than parameters (0)\n")


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


def test_count_unknown_rule_exits_2(capsys):
    d = FIXTURES / "counting"
    code = main(["count", str(d), "nope"])
    out = capsys.readouterr()
    assert code == 2
    assert (out.out, out.err) == ("", f"error: no rule named 'nope' in {d}\n")


def test_count_on_a_graph_it_does_not_match_exits_3(tmp_path, capsys):
    d = write_grammar(tmp_path, {**COUNT_A, "h.gst": "graph h\nnode b : B\n"})
    code = main(["count", d, "c"])
    out = capsys.readouterr()
    assert code == 3
    assert (out.out, out.err) == ("", "error: rule 'c' is not applicable\n")


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
        "state S0 1aa73c0dd1ac8d69",
        "state S1 22229a74ac4fc044",
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


def test_explore_rejects_negative_max_depth(capsys):
    code = main(["explore", str(FIXTURES / "reverse"), "--max-depth", "-1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: max_depth must be at least 0, not -1\n"
    # depth 0 stays legal: the start state alone, truncated
    code = main(["explore", str(FIXTURES / "reverse"), "--max-depth", "0"])
    assert code == 4
    assert capsys.readouterr().out.splitlines()[-1] == "truncated"


def test_explore_does_not_report_an_engine_fault_as_a_usage_error(
        monkeypatch, capsys):
    def broken_explore(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(gtx.cli, "explore", broken_explore)
    # only a bad --max-states or --max-depth is a usage error (exit 2)
    with pytest.raises(ValueError, match="boom"):
        main(["explore", str(FIXTURES / "reverse")])
    assert capsys.readouterr().err == ""


# -- repeated calls in one process -----------------------------------------


MARK_TWINS = {
    "mark.gpr": ("rule mark\nnode n role=reader\nflag n creator done\n"
                 "flag n embargo done\n"),
    "start.gst": "graph g\nnode a\nnode b\n",
}


def test_the_parser_is_built_once():
    assert gtx.cli._build_parser() is gtx.cli._build_parser()


def test_a_bound_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    d = write_grammar(tmp_path, MARK_TWINS)
    assert main(["explore", d, "--max-states", "2"]) == 4
    assert capsys.readouterr().out.count("state ") == 2
    assert main(["explore", d]) == 0
    out = capsys.readouterr().out
    assert out.count("state ") == 3 and "truncated" not in out


def test_an_out_file_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    out_file = tmp_path / "msg.txt"
    hello = str(FIXTURES / "hello")
    assert main(["apply", hello, "helloMessage", "--out", str(out_file)]) == 0
    assert not capsys.readouterr().out.startswith("The output is")
    out_file.unlink()
    assert main(["apply", hello, "helloMessage"]) == 0
    assert capsys.readouterr().out.startswith(
        "The output is Hello TTC Participants \n---\ngraph hello\n")
    assert not out_file.exists()


@pytest.mark.parametrize("argv", [
    ["explore"],
    ["explore", str(FIXTURES / "reverse"), "--max-states", "many"],
    ["apply", str(FIXTURES / "hello"), "helloMessage", "--bogus"],
])
def test_a_call_after_a_usage_error_runs(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: gtx")
    assert main(["explore", str(FIXTURES / "reverse")]) == 0
    out = capsys.readouterr()
    assert out.out.splitlines()[-1] == "trans S1 -reverseEdges-> S0"
    assert out.err == ""


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


def test_suite_prints_a_failing_fixture_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(gtx.suite, "fixtures", lambda: [
        Fixture(id="helloMessage", grammar="hello", rule="helloMessage",
                fixpoint=False),
        Fixture(id="broken", grammar="hello", rule="nope"),
    ])
    code = main(["suite"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS helloMessage (1 application)",
        "FAIL broken: no rule named 'nope'",
        "1 passed, 1 failed of 2 fixtures",
    ]


def test_python_dash_m_gtx_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(gtx.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "gtx", "suite", "--filter", "helloMessage"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == [
        "PASS helloMessage (1 application)",
        "1 passed, 0 failed of 1 fixtures",
    ]


# -- diagnostics styling ----------------------------------------------


def test_color_mode_always_wraps_the_error_label(monkeypatch, capsys):
    monkeypatch.setenv("GTX_COLOR", "always")
    main(["validate", "/no/such/dir"])
    assert "\x1b[31merror:\x1b[0m" in capsys.readouterr().err


def test_color_mode_never_is_plain(capsys):
    main(["validate", "/no/such/dir"])
    err = capsys.readouterr().err
    assert "\x1b[" not in err
