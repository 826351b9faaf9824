"""Rewrite the golden scenarios' inputs and expected files from this tree.

Usage, from the repository root::

    python tests/golden/regenerate.py

Each scenario's inputs are rebuilt (the ``http`` scenario reuses the
``strict`` inputs, so it comes after them), it is run once at ``--workers 1``,
and its ``expected/`` directory is replaced by what the run produced.
The run is then repeated at ``--workers 2``, and the command exits 1 if
the two disagree.  Any change this makes to a golden file is an output
change: name the file and the reason in CHANGES.md.
"""

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent), str(HERE)]

from scenarios import SCENARIOS, WRITE_INPUTS, expected_dir, input_dir, run  # noqa: E402


def regenerate(name: str) -> bool:
    shutil.rmtree(HERE / name, ignore_errors=True)
    if name in WRITE_INPUTS:
        input_dir(name).mkdir(parents=True)
        WRITE_INPUTS[name](input_dir(name))
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
        pinned = run(name, Path(one), workers=1)
        agrees = run(name, Path(two), workers=2) == pinned
    expected_dir(name).mkdir(parents=True)
    for file_name, content in pinned.items():
        (expected_dir(name) / file_name).write_bytes(content)
    print(f"{name}: {len(pinned)} files" + ("" if agrees else ", but --workers 2 differs"))
    return agrees


if __name__ == "__main__":
    sys.exit(0 if all([regenerate(name) for name in SCENARIOS]) else 1)
