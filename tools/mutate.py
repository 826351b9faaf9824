"""Mutation probe: which one-token changes to a module do the tests miss?

    python tools/mutate.py MODULE.py[:N,N...] [MODULE.py[:N,N...] ...] [-- PYTEST-ARGS]

Each mutant makes one change to one module: it flips one comparison at
its boundary (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
``is``/``is not``), swaps ``and`` and ``or``, drops a ``not``, adds 1
to an integer literal, or puts a ``not`` in front of a call used as a
condition (the test of an ``if``, ``while``, ``assert`` or conditional
expression, a comprehension's ``if`` filter, an operand of
``and``/``or``, or the operand of ``not``).  Line numbers after a
module's name, as in ``events.py:140,141``, keep that module's mutants
on those lines.
The tests run on a copy of the repository in a temporary directory
(``TMPDIR`` chooses where), so the working tree is never changed;
PYTEST-ARGS default to the whole suite.  A mutant that every test
passes is printed as a survivor.  A MODULE that is not a file inside
the repository, or a line number that is not a number, ends the probe
with exit status 2 before anything is copied.  Only the standard
library is used.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
FLIPS.update({ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is})


class Mutator(ast.NodeTransformer):
    """Counts the mutation sites; changes the one numbered ``target``."""

    def __init__(self, target=-1):
        self.target, self.sites = target, []

    def hit(self, node, change):
        self.sites.append((node.lineno, change))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            flipped = FLIPS.get(type(op))
            if flipped and self.hit(node, f"{type(op).__name__} -> {flipped.__name__}"):
                node.ops[i] = flipped()
        return node

    def negated(self, node):
        """A condition, with a ``not`` in front if it is the target call."""
        if isinstance(node, ast.Call) and self.hit(node, "call -> not call"):
            return ast.UnaryOp(ast.Not(), node)
        return node

    def visit_If(self, node):
        self.generic_visit(node)
        node.test = self.negated(node.test)
        return node

    visit_While = visit_Assert = visit_IfExp = visit_If

    def visit_comprehension(self, node):
        self.generic_visit(node)
        node.ifs = [self.negated(test) for test in node.ifs]
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        node.values = [self.negated(value) for value in node.values]
        if self.hit(node, "and <-> or"):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if not isinstance(node.op, ast.Not):
            return node
        node.operand = self.negated(node.operand)
        return node.operand if self.hit(node, "drop not") else node

    def visit_Constant(self, node):
        if type(node.value) is int and self.hit(node, f"{node.value} -> {node.value + 1}"):
            node.value += 1
        return node


def passes(copy: Path, pytest_args: list[str]) -> bool:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode == 0


def split_args(argv: list[str]) -> tuple[dict[str, set[int]], list[str]]:
    """Each module's line set (empty: every line), and the pytest arguments.

    A line number that ``int()`` cannot read raises ``ValueError``.
    """
    argv, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    modules = {}
    for arg in argv:
        module, _, numbers = arg.partition(":")
        modules[module] = {int(n) for n in numbers.split(",") if n}
    return modules, pytest_args


def main(argv: list[str]) -> int:
    try:
        modules, pytest_args = split_args(argv)
    except ValueError as exc:
        print(f"error: bad line number: {exc}", file=sys.stderr)
        return 2
    for module in modules:
        path = Path(module).resolve()
        inside = ROOT in path.parents
        if not inside or not path.is_file():
            print(f"error: {module} {'is not a file' if inside else 'is outside the repository'}", file=sys.stderr)
            return 2
    survivors = total = 0
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        for module, lines in modules.items():
            # Relative to the repository, so that only the copy is ever written.
            target = copy / Path(module).resolve().relative_to(ROOT)
            source = (ROOT / target.relative_to(copy)).read_text(encoding="utf-8")
            # Mutants are written unparsed; the unparsed original must pass first.
            target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
            counter = Mutator()
            counter.visit(ast.parse(source))
            sites = [(i, site) for i, site in enumerate(counter.sites) if not lines or site[0] in lines]
            if not passes(copy, pytest_args):
                print(f"{module}: the tests fail without a mutation; skipped")
                sites = []
            for index, (line, change) in sites:
                total += 1
                target.write_text(ast.unparse(Mutator(index).visit(ast.parse(source))), encoding="utf-8")
                if passes(copy, pytest_args):
                    survivors += 1
                    print(f"SURVIVED {module}:{line}: {change}", flush=True)
            target.write_text(source, encoding="utf-8")
    print(f"{total - survivors} of {total} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
