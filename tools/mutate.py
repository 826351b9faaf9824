"""Mutation probe: which one-token changes to a module do the tests miss?

    python tools/mutate.py MODULE.py [MODULE.py ...] [--lines N ...] [-- PYTEST-ARGS]

Each mutant makes one change to one module: it flips one comparison at
its boundary (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``in``/``not in``,
``is``/``is not``), swaps ``and`` and ``or``, drops a ``not``, or adds 1
to an integer literal.  ``--lines`` keeps the mutants on those lines.
The tests run on a copy of the repository in a temporary directory
(``TMPDIR`` chooses where), so the working tree is never changed;
PYTEST-ARGS default to the whole suite.  A mutant that every test
passes is printed as a survivor.  A MODULE that is not a file inside
the repository ends the probe with exit status 2 before anything is
copied.  Only the standard library is used.
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

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        if self.hit(node, "and <-> or"):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self.hit(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and self.hit(node, f"{node.value} -> {node.value + 1}"):
            node.value += 1
        return node


def passes(copy: Path, pytest_args: list[str]) -> bool:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run(command, cwd=copy, env=env, capture_output=True).returncode == 0


def main(argv: list[str]) -> int:
    argv, pytest_args = (argv[: argv.index("--")], argv[argv.index("--") + 1 :]) if "--" in argv else (argv, [])
    modules = argv[: argv.index("--lines")] if "--lines" in argv else argv
    lines = {int(n) for n in argv[len(modules) + 1 :]}
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
        for module in modules:
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
