"""Golden extract runs: each scenario reproduces its stored files exactly.

The expected files were generated by ``python tests/golden/regenerate.py``;
a change to any of them is an output change and is named in CHANGES.md.
Every stored trace file also keeps the per-document record order the
README describes.
"""

import itertools
import json

import pytest

from scenarios import SCENARIOS, expected_dir, input_dir, run


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


def _kind(record: dict) -> str:
    if "outcome" in record:
        return "outcome"
    if "attempt" in record:
        return "attempt"
    return "skip" if record["note"].startswith("document skipped: ") else "note"


TRACE_FILES = [(name, path) for name in SCENARIOS for path in sorted(expected_dir(name).glob("*.trace.jsonl"))]


@pytest.mark.parametrize("name, trace_path", TRACE_FILES, ids=[f"{n}-{p.name}" for n, p in TRACE_FILES])
def test_every_document_ends_with_its_outcome(name, trace_path):
    """Each document's records, in corpus order: its notes, its attempts,
    exactly one outcome, then a skip note exactly when it has no
    prediction line."""
    def lines(path):
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]

    predicted = {record["doc_id"] for record in lines(trace_path.with_name(trace_path.name.replace(".trace", "")))}
    groups = [(doc_id, [_kind(r) for r in group]) for doc_id, group in itertools.groupby(
        lines(trace_path), key=lambda record: record["doc_id"]
    )]
    assert [doc_id for doc_id, _ in groups] == [record["id"] for record in lines(input_dir(name) / "corpus.jsonl")]
    for doc_id, kinds in groups:
        tail = ["outcome"] if doc_id in predicted else ["outcome", "skip"]
        assert kinds == ["note"] * kinds.count("note") + ["attempt"] * kinds.count("attempt") + tail, doc_id
