"""Byte-identity golden for the whole-model migration through ``gtx apply``.

The graphs are nodified (every edge of the represented graph is itself an
``Edge`` node with ``src`` and ``trg`` edges), drawn from a fixed seed, and
written with their lines shuffled, so the parser meets forward references.
The md5 of each run's stdout was recorded before the graph file reader,
the rewriter's edge updates and the serializer were rewritten for speed.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gtx
from gtx.cli import main

GRAMMAR = Path(gtx.__file__).parent / "fixtures" / "helloworld" / "migration_gc"

#: (seed, represented nodes) -> md5 of the ``apply`` stdout
GOLDEN = {
    (1, 30): "ec341ebbb415e2f28013a9f14a311ddc",
    (2, 120): "66d1b5ca6847710f42314f28bd08b529",
    (3, 250): "d9c35d8820616050ff05ca94a88144f2",
}


def nodified_gst(seed: int, n: int) -> str:
    """A ``Graph`` node owning ``n`` nodes and ``2 n`` edge nodes, some
    with a missing end, flags and names that need escapes."""
    rng = random.Random(seed)
    lines = ["node gr : Graph"]
    for i in range(1, n + 1):
        name = f"n{i}" if i % 11 else f'n"{i}\\\té'
        escaped = name.replace("\\", "\\\\").replace('"', '\\"').replace(
            "\t", "\\t")
        lines += [f"node n{i} : Node" + (" flag hot" if i % 7 == 0 else ""),
                  f'attr n{i}.name = "{escaped}"',
                  f"edge gr -nodes-> n{i}"]
        if i % 13 == 0:
            lines.append(f"attr n{i}.weight = {rng.randint(-9, 99)}")
    for j in range(1, 2 * n + 1):
        lines += [f"node e{j} : Edge", f"edge gr -edges-> e{j}"]
        for label in ("src", "trg"):
            if rng.random() >= 0.05:
                lines.append(f"edge e{j} -{label}-> n{rng.randint(1, n)}")
    rng.shuffle(lines)
    return "\n".join([f"graph m{n}", *lines]) + "\n"


def unusual_spelling(text: str, seed: int) -> str:
    """``text`` as an author might type it: CRLF line ends, tabs and runs
    of spaces between words and around lines, ``#`` comments after lines
    and on lines of their own, blank lines, and ``: Node , X`` type lists.
    No string literal of ``nodified_gst`` holds a space, so the words are
    the pieces between spaces."""
    rng = random.Random(seed)
    out = []
    for line in text.splitlines():
        words = line.split(" ")
        if words[-1] == "Node" and rng.random() < 0.3:
            words += rng.choice([[",", "X"], [",X"], [", X"], [",", "X,Y"]])
        out.append(rng.choice(["", " ", "\t"]) + "".join(
            word + rng.choice([" ", "  ", "\t", " \t "])
            for word in words[:-1]) + words[-1])
        if rng.random() < 0.2:
            out[-1] += rng.choice([" # note", "\t#-x-> y", "   #"])
        if rng.random() < 0.05:
            out.append(rng.choice(["", "# a comment", " \t", "#"]))
    return "\r\n".join(out) + "\r\n"


@pytest.mark.parametrize("seed, n", sorted(GOLDEN))
def test_migration_output_is_byte_identical(tmp_path, capsys, seed, n):
    path = tmp_path / "host.gst"
    path.write_text(nodified_gst(seed, n), encoding="utf-8")
    code = main(["apply", str(GRAMMAR), "migrateToGraphComponent",
                 "--graph", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "-nodes->" not in out and "-edges->" not in out
    assert hashlib.md5(out.encode()).hexdigest() == GOLDEN[(seed, n)]


def test_unusual_spellings_give_the_recorded_output(tmp_path, capsys):
    # recorded with the token reader, before graph lines were read as words
    path = tmp_path / "host.gst"
    path.write_text(unusual_spelling(nodified_gst(2, 120), 2),
                    encoding="utf-8", newline="")
    code = main(["apply", str(GRAMMAR), "migrateToGraphComponent",
                 "--graph", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "\r" not in out and ": Edge\n" in out and ": Node,X\n" in out
    assert hashlib.md5(out.encode()).hexdigest() == \
        "b50044df794325aebc1941b831300237"


def test_migration_output_does_not_depend_on_the_hash_seed(tmp_path):
    path = tmp_path / "host.gst"
    path.write_text(nodified_gst(4, 40), encoding="utf-8")
    src = str(Path(gtx.__file__).resolve().parents[1])
    outs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), GTX_COLOR="never",
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-m", "gtx", "apply", str(GRAMMAR),
             "migrateToGraphComponent", "--graph", str(path)],
            env=env, capture_output=True)
        assert run.returncode == 0, run.stderr
        outs.add(run.stdout)
    (out,) = outs
    assert b"-gcs->" in out
