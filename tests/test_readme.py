"""The README's examples, run as documented: each CLI line of its CLI
block, in-process, and each commented value of its library quick start."""

import json
import re
import shlex
from pathlib import Path

from spartitions.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(heading: str) -> list:
    """The lines of the first fenced block after a level-2 heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split("```", 2)[1].splitlines()[1:]


def test_cli_examples_exit_0_with_json_lines(capsys):
    lines = [line for line in _block("CLI") if line.startswith("spartitions ")]
    assert len(lines) == 9
    for line in lines:
        assert run(shlex.split(line)[1:]) == 0, line
        out = capsys.readouterr().out.splitlines()
        assert out, line
        for record in out:
            json.loads(record)


def test_quick_start_values_hold():
    # a line "expr   # value" documents a value; "value..." gives its
    # leading digits
    namespace = {}
    checked = 0
    for line in _block("Library quick start"):
        code, _, comment = line.partition("  # ")
        value = re.fullmatch(r"(-?\d+(?:\.\d+)?)(\.\.\.)?", comment.strip())
        if value is None:
            exec(code, namespace)
        elif value[2]:
            assert repr(eval(code, namespace)).startswith(value[1]), line
            checked += 1
        else:
            assert eval(code, namespace) == int(value[1]), line
            checked += 1
    assert checked == 5
