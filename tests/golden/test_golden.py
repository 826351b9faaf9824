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


def test_http_golden_is_the_strict_golden():
    """The http scenario replays the strict inputs, so everything but the
    request digests must match, with one request body per strict request."""
    http, strict = expected_dir("http"), expected_dir("strict")
    assert sorted(path.name for path in http.iterdir()) == sorted(
        "request_bodies.txt" if path.name == "requests.txt" else path.name for path in strict.iterdir()
    )
    for path in strict.iterdir():
        if path.name != "requests.txt":
            assert (http / path.name).read_bytes() == path.read_bytes(), path.name
    bodies = (http / "request_bodies.txt").read_text().splitlines()
    assert len(bodies) == len((strict / "requests.txt").read_text().splitlines())
