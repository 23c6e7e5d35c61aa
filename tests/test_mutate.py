"""The pure functions of tools/mutate.py, on a small source string: every
mutation count in the changelog rests on them.  No child process runs."""

import ast
import importlib.util
from pathlib import Path

import pytest

# ast.unparse gives this text back unchanged, so each mutant can be compared
# with it line by line
SOURCE = """def outer(a, b):

    def inner(c):
        return not c
    if 0 <= a < b and b != 2:
        a += 1
    return -a * b or inner(a)
SHIFT = 1 << 3
"""

# (line, label) of each mutant in source order; where two nodes start at
# the same place, the outer one comes first
EXPECTED = [
    (4, "col 15, drop not in `not c`"),
    (5, "col 7, and -> or in `0 <= a < b and b != 2`"),
    (5, "col 7, <= -> < (op 1) in `0 <= a < b`"),
    (5, "col 7, < -> <= (op 2) in `0 <= a < b`"),
    (5, "col 7, 0 -> 1 in `0`"),
    (5, "col 7, 0 -> -1 in `0`"),
    (5, "col 22, != -> == (op 1) in `b != 2`"),
    (5, "col 27, 2 -> 3 in `2`"),
    (5, "col 27, 2 -> 1 in `2`"),
    (6, "col 8, + -> - in `a += 1`"),
    (6, "col 13, 1 -> 2 in `1`"),
    (6, "col 13, 1 -> 0 in `1`"),
    (7, "col 11, or -> and in `-a * b or inner(a)`"),
    (7, "col 11, * -> // in `-a * b`"),
    (7, "col 11, drop unary - in `-a`"),
    (8, "col 8, << -> >> in `1 << 3`"),
    (8, "col 8, 1 -> 2 in `1`"),
    (8, "col 8, 1 -> 0 in `1`"),
    (8, "col 13, 3 -> 4 in `3`"),
    (8, "col 13, 3 -> 2 in `3`"),
]


@pytest.fixture(scope="module")
def mutate():
    path = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
    spec = importlib.util.spec_from_file_location("mutate_tool", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sites_finds_each_kind_in_source_order(mutate):
    found = [mutate.mutate(SOURCE, site)[1:] for site in mutate.sites(ast.parse(SOURCE))]
    assert found == EXPECTED


def test_each_mutant_parses_and_changes_only_its_line(mutate):
    before = SOURCE.rstrip("\n").split("\n")
    assert ast.unparse(ast.parse(SOURCE)).split("\n") == before
    nodes = list(ast.walk(ast.parse(SOURCE)))
    for site in mutate.sites(ast.parse(SOURCE)):
        mutant, line, label = mutate.mutate(SOURCE, site)
        ast.parse(mutant)
        after = mutant.split("\n")
        assert len(after) == len(before), label
        assert [i + 1 for i, (a, b) in enumerate(zip(before, after)) if a != b] == [line], label
        index, (kind, *arg) = site
        if kind == "constant":
            # a constant moved below 0 parses back as a unary minus
            moved = ast.literal_eval(list(ast.walk(ast.parse(mutant)))[index])
            assert moved - nodes[index].value == arg[0] in (1, -1), label


def test_enclosing_names_the_innermost_function(mutate):
    spans = mutate.functions(ast.parse(SOURCE))
    assert sorted(spans) == [(1, 7, "outer"), (3, 4, "inner")]
    names = [mutate.enclosing(spans, line) for line in range(1, 9)]
    assert names == ["outer", "outer", "inner", "inner", "outer", "outer", "outer",
                     "<module>"]
