"""Golden extract runs: each scenario reproduces its stored files exactly.

The expected files were generated by ``python tests/golden/regenerate.py``;
a change to any of them is an output change and is named in CHANGES.md.
"""

import pytest

from scenarios import SCENARIOS, expected_dir, run


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", SCENARIOS)
def test_run_matches_golden(name, workers, tmp_path):
    expected = {path.name: path.read_bytes() for path in sorted(expected_dir(name).iterdir())}
    actual = run(name, tmp_path, workers)
    assert sorted(actual) == sorted(expected)
    for file_name, content in expected.items():
        assert actual[file_name] == content, file_name
