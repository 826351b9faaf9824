"""The generator is a pure function of (workload, seed) and keeps the
invariants the stub's classification rules rely on."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from workload import EMPTY_CODE, WORKLOADS, generate, write


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    workload = WORKLOADS[name]
    first = write(generate(workload, 7), tmp_path / "a")
    second = write(generate(workload, 7), tmp_path / "b")
    for artefact in first:
        assert first[artefact].read_bytes() == second[artefact].read_bytes(), artefact


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_content_but_not_the_kind_mix(name):
    workload = WORKLOADS[name]
    a, b = generate(workload, 1), generate(workload, 2)
    assert [d["text"] for d in a["corpus"]] != [d["text"] for d in b["corpus"]]
    for instance in (a, b):
        kinds = [doc["kind"] for doc in instance["plan"]["docs"]]
        assert {kind: kinds.count(kind) for kind in set(kinds)} == {
            kind: n for kind, n in workload.kind_counts().items() if n
        }
        assert len(instance["ontology"]) == workload.types
        assert len(instance["corpus"]) == workload.docs


def test_kind_counts_add_up():
    for workload in WORKLOADS.values():
        assert sum(workload.kind_counts().values()) == workload.docs
    small = dataclasses.replace(WORKLOADS["refine_llm"], docs=7)
    assert sum(small.kind_counts().values()) == 7


def test_ontology_mixes_roles():
    ontology = generate(WORKLOADS["fast_backend"], 3)["ontology"]
    value_types, multiplicities = set(), set()
    for schema in ontology:
        assert 3 <= len(schema["roles"]) <= 6
        assert schema["roles"][0]["multiplicity"] == "required-scalar"
        for role in schema["roles"]:
            value_types.add(role["value_type"])
            multiplicities.add(role["multiplicity"])
    assert value_types == {"string", "integer", "number", "boolean"}
    assert multiplicities == {"list", "optional-scalar", "required-scalar"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_classification_invariants(name):
    instance = generate(WORKLOADS[name], 11)
    plan = instance["plan"]
    types = list(plan["types"])
    texts = [doc["text"] for doc in instance["corpus"]]
    sentences = [s for group in plan["exemplars"].values() for s in group]
    roles = {role for names in plan["types"].values() for role in names}
    anchors = [doc["anchor"] for doc in plan["docs"]]
    assert len(set(anchors)) == len(anchors)
    for doc in plan["docs"]:
        assert doc["text"].count("$") == 1
        assert doc["text"][doc["anchor_offset"] + 1 :].startswith(doc["anchor"])
    for name_ in types:
        assert not any(name_ != other and name_ in other for other in types)
    for text in texts + sentences:
        assert '"' not in text and "'" not in text
        assert not any(t in text for t in types)
        assert not any(role in text for role in roles)
    assert not any("$" in s for s in sentences)
    assert all(re.fullmatch(r"[a-z]+(-[a-z]+)+", role) for role in roles)


def test_gold_spans_and_expected_lines_agree():
    instance = generate(WORKLOADS["refine_llm"], 5)
    for record, expected in zip(instance["corpus"], instance["expected"]):
        (event,) = record["events"]
        text = record["text"]
        assert text[event["trigger"]["start"] : event["trigger"]["end"]] == event["trigger"]["text"]
        for argument in event["arguments"]:
            assert text[argument["start"] : argument["end"]] == argument["text"]
        (predicted,) = expected["events"]
        assert predicted["trigger"] == event["trigger"]["text"]
        flat = [str(v) if not isinstance(v, str) else v for values in predicted["arguments"].values() for v in values]
        assert flat == [argument["text"] for argument in event["arguments"]]


def test_empty_code_documents_plan_an_empty_first_reply():
    plan = generate(WORKLOADS["refine_llm"], 9)["plan"]
    empty = [doc for doc in plan["docs"] if doc["kind"] == EMPTY_CODE]
    assert empty
    for doc in empty:
        replies = doc["coding"][doc["hypotheses"][0]]
        assert replies[0] == "" and replies[1]


def test_benchmark_json_lists_every_workload():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [entry["name"] for entry in spec["workloads"]] == list(WORKLOADS)
