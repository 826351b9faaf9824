"""The CLI surface, pinned: top-level and subcommand ``--help`` and the
default ``extract --print-config`` print exactly the stored text.

Each file under ``tests/cli_surface`` is the stdout of the arguments in
its name, printed with ``COLUMNS=80`` (argparse wraps help to the
terminal width) and no ``EVENTAGENTS_*`` variable set.  A change to one
of them is a change of the CLI surface and is named in CHANGES.md.
"""

import os
from pathlib import Path

import pytest

from eventagents.cli import main

SURFACE_DIR = Path(__file__).parent / "cli_surface"

CASES = {
    "help.txt": ["--help"],
    "extract_help.txt": ["extract", "--help"],
    "eval_help.txt": ["eval", "--help"],
    "stats_help.txt": ["stats", "--help"],
    "schema_help.txt": ["schema", "--help"],
    "extract_print_config.txt": ["extract", "--print-config"],
}


@pytest.mark.parametrize("file_name, argv", CASES.items(), ids=list(CASES))
def test_stdout_matches_the_stored_text(capsys, monkeypatch, file_name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for name in [name for name in os.environ if name.startswith("EVENTAGENTS_")]:
        monkeypatch.delenv(name)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (SURFACE_DIR / file_name).read_text(encoding="utf-8")


def test_every_stored_text_is_checked():
    assert sorted(path.name for path in SURFACE_DIR.iterdir()) == sorted(CASES)
