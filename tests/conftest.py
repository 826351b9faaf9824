"""Shared fixtures: the worked-example schemas and texts the prompt
templates were designed around, plus scripted-backend helpers."""

from __future__ import annotations

import json
import re

import pytest

from eventagents import EventSchema, RoleSpec, SchemaRegistry

# Outcomes of the acceptance tests, keyed by criterion number; the
# terminal summary prints one PASS/FAIL line per criterion.
_ACCEPTANCE_OUTCOMES: dict[int, str] = {}

ACCEPTANCE_DESCRIPTIONS = {
    1: "verifier flags the integer-valued vulnerable_system and accepts the corrected object",
    2: "refinement makes exactly 4 coding calls when hypothesis 2 rescues hypothesis 1, 9 on exhaustion, and patch prompts embed the diagnostic verbatim",
    3: "verdict equals the conjunction of the three checks with first-failure diagnostics, over all 8 stubbed outcomes",
    4: "type check agrees with an independent brute-force validator on 1,000 generated schema/event pairs",
    5: "event round-trips: parse(serialize(e)) = e and constructor/object forms parse identically, 1,000 cases each",
    6: "metrics: gold-vs-gold scores 1.0, the hand-computed two-document case gives TI F1 = 0.5, dominance and optimal matching hold",
    7: "dataset statistics equal an independent recount; all-single-token corpora report 0% multi-word triggers",
    8: "two scripted extract+eval runs produce byte-identical prediction files and metric reports",
    9: "resolved default configuration reports exemplar_k=3, hypothesis_k=3, patch_attempts=3, runs=3",
    10: "single-document sampling over 4 documents across 10,000 seeds is uniform within 0.25 +/- 0.02",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = re.search(r"test_acceptance\.py.*test_criterion_(\d+)", report.nodeid)
    if match:
        _ACCEPTANCE_OUTCOMES[int(match.group(1))] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_ACCEPTANCE_OUTCOMES):
        outcome = _ACCEPTANCE_OUTCOMES[number]
        word = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        description = ACCEPTANCE_DESCRIPTIONS.get(number, "")
        terminalreporter.write_line(f"{word} criterion {number}: {description}")


@pytest.fixture(autouse=True)
def _clean_environment(monkeypatch):
    """Keep ambient EVENTAGENTS_* variables from leaking into tests."""
    import os

    for name in [n for n in os.environ if n.startswith("EVENTAGENTS_")]:
        monkeypatch.delenv(name)


def list_roles(*names: str) -> tuple[RoleSpec, ...]:
    return tuple(RoleSpec(name) for name in names)


@pytest.fixture(scope="session")
def databreach_schema() -> EventSchema:
    return EventSchema("Databreach", list_roles("tool", "number-of-data", "victim", "time", "place"))


@pytest.fixture(scope="session")
def ransom_schema() -> EventSchema:
    return EventSchema("Ransom", list_roles("tool", "damage-amount", "victim", "time", "price", "place"))


@pytest.fixture(scope="session")
def patchvuln_schema() -> EventSchema:
    return EventSchema("PatchVulnerability", list_roles("patch", "cve", "time", "vulnerable_system"))


@pytest.fixture(scope="session")
def breach_registry(databreach_schema, ransom_schema) -> SchemaRegistry:
    return SchemaRegistry([databreach_schema, ransom_schema])


@pytest.fixture(scope="session")
def patch_registry(patchvuln_schema) -> SchemaRegistry:
    return SchemaRegistry([patchvuln_schema])


@pytest.fixture(scope="session")
def ransom_text() -> str:
    return "Hackers demanded a million dollar ransom after infiltrating the bank's servers on Friday."


@pytest.fixture(scope="session")
def tuesday_text() -> str:
    return "On Tuesday the company patched a vulnerability in its web server."


@pytest.fixture(scope="session")
def candidate_object_text() -> str:
    """The worked verification example: one integer where a string belongs."""
    return (
        '{\n'
        '  "event_type": "PatchVulnerability",\n'
        '  "trigger": "patched",\n'
        '  "arguments": {\n'
        '    "patch": ["security update"],\n'
        '    "cve": ["CVE-2021-1234"],\n'
        '    "time": ["Tuesday"],\n'
        '    "vulnerable_system": [1234]\n'
        '  }\n'
        '}'
    )


def script(*pairs) -> dict:
    """Build a scripted-backend mapping from (request, reply) pairs.

    Repeating a fingerprint turns the entry into a reply list consumed
    in order, mirroring repeated identical prompts.
    """
    mapping: dict = {}
    for request, reply in pairs:
        fp = request.fingerprint()
        if fp in mapping:
            existing = mapping[fp]
            if isinstance(existing, list):
                existing.append(reply)
            else:
                mapping[fp] = [existing, reply]
        else:
            mapping[fp] = reply
    return mapping


class Recorder:
    """A backend wrapper that keeps every request it is sent, in order,
    in ``calls`` before passing it on."""

    def __init__(self, backend):
        self.backend = backend
        self.calls = []

    def complete(self, request):
        self.calls.append(request)
        return self.backend.complete(request)


def extract_argv(tmp_path, registry, texts) -> list[str]:
    """``extract`` arguments over ``registry`` and one document per text
    (ids d0, d1, ...), writing ``tmp_path / "preds.jsonl"``."""
    ontology, corpus = tmp_path / "ontology.json", tmp_path / "corpus.jsonl"
    schemas = [{"event_type": s.event_type, "roles": [{"name": r.name} for r in s.roles]} for s in registry]
    ontology.write_text(json.dumps(schemas), encoding="utf-8")
    corpus.write_text("".join(json.dumps({"id": f"d{i}", "text": t}) + "\n" for i, t in enumerate(texts)), "utf-8")
    return ["extract", "--ontology", str(ontology), "--corpus", str(corpus), "--out", str(tmp_path / "preds.jsonl")]


def trace_outcomes(path) -> list:
    """The outcome records of a trace file, in order."""
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [record for record in records if "outcome" in record]
