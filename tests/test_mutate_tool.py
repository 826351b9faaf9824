"""``tools/mutate.py``: the argument split (each module its own line set)
and the call negation operator.

The tool lives outside the package, so it is loaded from its file.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

MUTATE_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutate.py"


def _load_mutate():
    spec = importlib.util.spec_from_file_location("_mutate_tool", MUTATE_PATH)
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return mutate


mutate = _load_mutate()


def test_each_module_keeps_its_own_lines():
    modules, pytest_args = mutate.split_args(["events.py:140,141", "agents.py", "verify.py:7"])
    assert modules == {"events.py": {140, 141}, "agents.py": set(), "verify.py": {7}}
    assert pytest_args == []


def test_arguments_after_the_separator_go_to_pytest():
    modules, pytest_args = mutate.split_args(["events.py:3", "--", "tests/test_events.py:1", "-k", "x"])
    assert modules == {"events.py": {3}}
    assert pytest_args == ["tests/test_events.py:1", "-k", "x"]


def test_a_bad_line_number_ends_the_probe_before_any_copy(capsys):
    assert mutate.main([f"{MUTATE_PATH}:12,x"]) == 2
    assert capsys.readouterr().err.startswith("error: bad line number:")


def test_a_module_outside_the_repository_ends_the_probe(capsys, tmp_path):
    outside = tmp_path / "m.py"
    outside.write_text("x = 1\n", encoding="utf-8")
    assert mutate.main([f"{outside}:1"]) == 2
    assert capsys.readouterr().err == f"error: {outside} is outside the repository\n"


def negated_calls(source):
    """Each "call -> not call" mutant of ``source``, unparsed."""
    counter = mutate.Mutator()
    counter.visit(ast.parse(source))
    return [
        ast.unparse(mutate.Mutator(index).visit(ast.parse(source)))
        for index, (_, change) in enumerate(counter.sites)
        if change == "call -> not call"
    ]


@pytest.mark.parametrize(
    "source, mutants",
    [
        ("if isinstance(name, str):\n    pass", ["if not isinstance(name, str):\n    pass"]),
        ("while more():\n    pass", ["while not more():\n    pass"]),
        ("assert ok(x)", ["assert not ok(x)"]),
        ("y = a and f() or g()", ["y = a and (not f()) or g()", "y = a and f() or not g()"]),
        ("y = not f()", ["y = not not f()"]),
        ("if a.startswith('0') and b:\n    pass", ["if not a.startswith('0') and b:\n    pass"]),
        ("y = v if isinstance(v, list) else [v]", ["y = v if not isinstance(v, list) else [v]"]),
        ("y = [v for v in z if ok(v) if f()]", ["y = [v for v in z if not ok(v) if f()]", "y = [v for v in z if ok(v) if not f()]"]),
        ("y = {k: v for k, v in z if ok(k)}", ["y = {k: v for k, v in z if not ok(k)}"]),
    ],
    ids=[
        "if", "while", "assert", "and-or-operands", "not-operand", "method-call",
        "conditional-expression", "comprehension-filters", "dict-comprehension-filter",
    ],
)
def test_a_call_used_as_a_condition_gets_a_not(source, mutants):
    assert negated_calls(source) == mutants


@pytest.mark.parametrize(
    "source", ["y = f()", "if x == f():\n    pass", "y = [f() for _ in z]", "if x:\n    f()", "y = f() if x else g()"]
)
def test_a_call_that_is_not_a_condition_is_left_alone(source):
    assert negated_calls(source) == []
