"""The argument split of ``tools/mutate.py``: each module its own line set.

The tool lives outside the package, so it is loaded from its file.
"""

import importlib.util
from pathlib import Path

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
