"""Mutation run over one module: how many small code changes do its tests catch?

    python3 tools/mutate.py src/spartitions/counting.py tests/test_counting.py

Each mutant rewrites one AST site of the module:

- a compare swapped: < and <=, > and >=, == and !=;
- a binary or augmented operator swapped: + and -, * and //, << and >>,
  & and |;
- `and` and `or` swapped;
- a `not` or a unary minus dropped;
- an integer constant moved by +1 or -1.

The mutant is written into a temporary copy of src/, tests/ and
pyproject.toml, never into the repository, and the test files run there
with `pytest -x`, one child process at a time.  A child that fails, times
out or hits its address-space cap has killed the mutant; one that passes
lets it survive.  The unmutated copy runs first under the same cap, which
must pass (numpy reserves address space at import), and its time sets the
timeout.  The survivors are listed at the end, each with its function.
"""

import argparse
import ast
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult, ast.LShift: ast.RShift,
         ast.RShift: ast.LShift, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
         ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
           ast.FloorDiv: "//", ast.LShift: "<<", ast.RShift: ">>", ast.BitAnd: "&",
           ast.BitOr: "|", ast.And: "and", ast.Or: "or"}

# the address-space cap of each child: tests/test_counting.py, 10^6 tables
# and numpy's reservations included, passes under 384 MB on a 2-vCPU Linux
# host, so 1 GB leaves room while a mutant that grows a list without end
# stops with MemoryError long before the host runs short
ADDRESS_SPACE = 1 << 30


def sites(tree: ast.Module) -> list:
    """Every mutation of the module as (node index in ast.walk, change), in
    source order."""
    found = []
    for index, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            found += [(index, ("compare", i)) for i, op in enumerate(node.ops)
                      if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((index, ("swap",)))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            found.append((index, ("drop",)))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            found += [(index, ("constant", 1)), (index, ("constant", -1))]
    nodes = list(ast.walk(tree))
    return sorted(found, key=lambda site: (nodes[site[0]].lineno, nodes[site[0]].col_offset))


def mutate(source: str, site: tuple) -> tuple:
    """The mutated module's source, the site's line and a label of the change."""
    tree = ast.parse(source)
    nodes = list(ast.walk(tree))
    index, (kind, *arg) = site
    node = nodes[index]
    before = ast.unparse(node)
    if kind == "compare":
        op = node.ops[arg[0]]
        node.ops[arg[0]] = SWAPS[type(op)]()
        change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(node.ops[arg[0]])]} (op {arg[0] + 1})"
    elif kind == "swap":
        op = node.op
        node.op = SWAPS[type(op)]()
        change = f"{SYMBOLS[type(op)]} -> {SYMBOLS[type(node.op)]}"
    elif kind == "drop":
        _replace(tree, node, node.operand)
        change = "drop " + ("not" if isinstance(node.op, ast.Not) else "unary -")
    else:
        node.value += arg[0]
        change = f"{node.value - arg[0]} -> {node.value}"
    if len(before) > 60:
        before = before[:57] + "..."
    return ast.unparse(tree), node.lineno, f"col {node.col_offset}, {change} in `{before}`"


def _replace(tree: ast.AST, old: ast.AST, new: ast.AST) -> None:
    # put new where old is, in whichever field of its parent holds it
    for parent in ast.walk(tree):
        for name, value in ast.iter_fields(parent):
            if value is old:
                setattr(parent, name, new)
                return
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if item is old:
                        value[i] = new
                        return
    raise ValueError("node not in tree")


def functions(tree: ast.Module) -> list:
    """(first line, last line, name) of every function."""
    return [(n.lineno, n.end_lineno, n.name) for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def enclosing(spans: list, line: int) -> str:
    inside = [s for s in spans if s[0] <= line <= s[1]]
    return min(inside, key=lambda s: s[1] - s[0])[2] if inside else "<module>"


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run_tests(copy: Path, tests: list, timeout: float | None) -> str:
    """'passed', 'failed' or 'timeout' for one pytest child in the copy."""
    # no bytecode cache: a mutant of the same size written within the same
    # second as the last one would otherwise run the last one's .pyc
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # a new session, so a timeout ends the child's own children too
    child = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_cap_address_space, start_new_session=True)
    try:
        code = child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"
    return "passed" if code == 0 else "failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the repository")
    parser.add_argument("tests", nargs="+", help="the test files that must catch each mutant")
    args = parser.parse_args(argv)
    source = (ROOT / args.module).read_text()
    tree = ast.parse(source)
    todo = sites(tree)
    spans = functions(tree)
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutate-") as scratch:
        copy = Path(scratch)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        target = copy / args.module
        clean = time.perf_counter()
        if run_tests(copy, args.tests, None) != "passed":
            print("the unmutated tests fail under the address-space cap", file=sys.stderr)
            return 1
        clean = time.perf_counter() - clean
        timeout = 4 * clean + 30
        # an integer constant is one site with two mutants, +1 and -1
        places = len(todo) - sum(change == ("constant", -1) for _, change in todo)
        print(f"{len(todo)} mutants at {places} sites; clean run {clean:.1f} s, "
              f"timeout {timeout:.0f} s", flush=True)
        survivors = []
        counts = {"failed": 0, "timeout": 0, "passed": 0}
        for number, site in enumerate(todo, 1):
            mutant, line, change = mutate(source, site)
            target.write_text(mutant)
            outcome = run_tests(copy, args.tests, timeout)
            counts[outcome] += 1
            label = f"line {line} ({enclosing(spans, line)}): {change}"
            print(f"[{number}/{len(todo)}] {outcome:7} {label}", flush=True)
            if outcome == "passed":
                survivors.append(label)
    elapsed = time.perf_counter() - started
    print(f"\n{len(todo)} mutants: {counts['failed'] + counts['timeout']} killed "
          f"({counts['timeout']} by timeout), {len(survivors)} survived, "
          f"{elapsed / 60:.1f} min")
    for label in survivors:
        print("survived:", label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
