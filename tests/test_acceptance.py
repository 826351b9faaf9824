"""Behavioral guarantees for the whole pipeline, one test per criterion.

Each test prints through the terminal summary hook in conftest, giving a
PASS/FAIL line per criterion.  Tolerances and budgets are asserted
inside the tests themselves: exact where the behavior is discrete,
1e-9 for the hand-computed score, wall-clock ceilings for the generated
sweeps.
"""

import importlib
import itertools
import json
import math
import random
import time
from collections import Counter

from conftest import Recorder, script
from eventagents import (
    CodeObject,
    Document,
    EventObject,
    EventSchema,
    GoldEvent,
    PipelineConfig,
    RefinementTrace,
    RoleSpec,
    SchemaRegistry,
    ScriptedBackend,
    Span,
    TriggerHypothesis,
    dataset_stats,
    parse_event_code,
    sample_split,
    score,
    serialize_event,
    verify,
)
from eventagents.cli import main
from eventagents.prompts import coding_prompt, planning_head, planning_prompt, retrieval_prompt
from eventagents.verify import Diagnostic, check_types
from oracles import (
    brute_force_type_check,
    optimal_correct,
    perturbed_predictions,
    random_event,
    random_event_for_schema,
    random_gold_corpus,
    random_schema,
    random_surface_pair,
    recount_stats,
)

verify_module = importlib.import_module("eventagents.verify")

BROKEN_REPLY = 'PatchVulnerability(mention="patched", vulnerable_system=[1234])'
BROKEN_DIAGNOSTIC = "[T2] value 1234 is not of type str (at vulnerable_system)"


def user_content(request) -> str:
    return request.messages[1].content


# ---------------------------------------------------------------------------
# 1. The worked verification example: integer where a string belongs


def test_criterion_01(patch_registry, patchvuln_schema, tuesday_text, candidate_object_text):
    started = time.monotonic()

    code = parse_event_code(candidate_object_text, registry=patch_registry)
    assert code.failure is None
    result = verify(code, tuesday_text, patchvuln_schema)
    assert result.verdict is False
    assert result.diagnostic.failed_check == "T2"
    assert result.diagnostic.message == "value 1234 is not of type str"
    assert result.diagnostic.locus == "vulnerable_system"

    corrected_text = candidate_object_text.replace("[1234]", '["1234"]')
    corrected = parse_event_code(corrected_text, registry=patch_registry)
    fixed = verify(corrected, tuesday_text, patchvuln_schema)
    assert fixed.verdict is True
    assert fixed.diagnostic is None

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# 2. Dual-loop call accounting and diagnostic feedback


def test_criterion_02(patch_registry, patchvuln_schema, tuesday_text):
    started = time.monotonic()
    schema, text = patchvuln_schema, tuesday_text
    rescue_reply = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'

    # First hypothesis burns all three attempts, second succeeds at once.
    backend = Recorder(ScriptedBackend(script(
        (coding_prompt(schema, "patched", text), BROKEN_REPLY),
        (coding_prompt(schema, "patched", text, diagnostic=BROKEN_DIAGNOSTIC), BROKEN_REPLY),
        (coding_prompt(schema, "vulnerability", text), rescue_reply),
    )))
    pool = [
        TriggerHypothesis("patched", "PatchVulnerability", 0.9),
        TriggerHypothesis("vulnerability", "PatchVulnerability", 0.5),
    ]
    trace = RefinementTrace()
    event = refine_with_defaults(pool, text, patch_registry, backend, trace)

    assert isinstance(event, EventObject)
    assert event.trigger == "vulnerability"
    assert trace.outcome == "accepted"
    assert len(trace.attempts) == 4
    assert len(backend.calls) == 4
    assert BROKEN_DIAGNOSTIC not in user_content(backend.calls[0])
    assert BROKEN_DIAGNOSTIC in user_content(backend.calls[1])
    assert BROKEN_DIAGNOSTIC in user_content(backend.calls[2])
    assert BROKEN_DIAGNOSTIC not in user_content(backend.calls[3])

    reparsed = parse_event_code(serialize_event(event), registry=patch_registry)
    assert verify(reparsed, text, schema).verdict is True

    # Exhaustive failure: three hypotheses, three failed attempts each.
    triggers = ["patched", "vulnerability", "company"]
    entries = []
    for trigger in triggers:
        entries.append((coding_prompt(schema, trigger, text), BROKEN_REPLY))
        entries.append((coding_prompt(schema, trigger, text, diagnostic=BROKEN_DIAGNOSTIC), BROKEN_REPLY))
    backend = Recorder(ScriptedBackend(script(*entries)))
    pool = [
        TriggerHypothesis(trigger, "PatchVulnerability", 0.9 - 0.1 * i)
        for i, trigger in enumerate(triggers)
    ]
    trace = RefinementTrace()
    outcome = refine_with_defaults(pool, text, patch_registry, backend, trace)

    assert outcome is None
    assert trace.outcome == "exhausted"
    assert len(trace.attempts) == 9
    assert len(backend.calls) == 9

    assert time.monotonic() - started < 1.0


def refine_with_defaults(pool, text, registry, backend, trace):
    from eventagents import refine

    config = PipelineConfig()
    assert config.hypothesis_k == 3 and config.patch_attempts == 3
    return refine(pool, text, registry, config, backend, trace=trace)


# ---------------------------------------------------------------------------
# 3. The verdict is the conjunction of the three checks


def test_criterion_03(patch_registry, patchvuln_schema, tuesday_text, monkeypatch):
    code = parse_event_code('PatchVulnerability(mention="patched")', registry=patch_registry)
    assert code.failure is None

    def stub(stage, passes):
        diagnostic = None if passes else Diagnostic(stage, f"stub {stage} failure", "somewhere")
        return lambda *args, **kwargs: diagnostic

    stages = ("T1", "T2", "T3")
    for outcomes in itertools.product([True, False], repeat=3):
        t1_ok, t2_ok, t3_ok = outcomes
        monkeypatch.setattr(verify_module, "check_semantic", stub("T1", t1_ok))
        monkeypatch.setattr(verify_module, "check_types", stub("T2", t2_ok))
        monkeypatch.setattr(verify_module, "check_structure", stub("T3", t3_ok))

        result = verify_module.verify(code, tuesday_text, patchvuln_schema)
        assert result.verdict is (t1_ok and t2_ok and t3_ok)
        if result.verdict:
            assert result.diagnostic is None
        else:
            first_failed = stages[outcomes.index(False)]
            assert result.diagnostic.failed_check == first_failed
            assert result.diagnostic.message == f"stub {first_failed} failure"


# ---------------------------------------------------------------------------
# 4. Type checking agrees with the brute-force validator


def test_criterion_04():
    started = time.monotonic()
    rng = random.Random(40404)
    checked = 0
    for _ in range(1000):
        schema = random_schema(rng)
        event = random_event_for_schema(rng, schema)
        diagnostic = check_types(CodeObject(raw_source="<generated>", parsed=event), schema)
        expected_ok, expected_locus = brute_force_type_check(event, schema)
        assert (diagnostic is None) == expected_ok, (event, schema)
        if diagnostic is not None:
            assert diagnostic.locus == expected_locus, (event, schema, diagnostic)
        checked += 1
    assert checked == 1000
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 5. Event surfaces round-trip


def test_criterion_05():
    started = time.monotonic()

    rng = random.Random(50505)
    for _ in range(1000):
        event = random_event(rng)
        code = parse_event_code(serialize_event(event))
        assert code.failure is None
        assert not code.extra_fields
        assert code.parsed == event

    rng = random.Random(50506)
    for _ in range(1000):
        constructor_text, object_text, expected = random_surface_pair(rng)
        from_constructor = parse_event_code(constructor_text)
        from_object = parse_event_code(object_text)
        assert from_constructor.failure is None, constructor_text
        assert from_object.failure is None, object_text
        assert from_constructor.parsed == expected
        assert from_object.parsed == expected

    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# 6. Scoring: identity, the hand case, dominance, optimal matching


def gold_as_predictions(docs):
    predictions = {}
    for doc in docs:
        events = []
        for gold_event in doc.gold_events:
            arguments: dict[str, list] = {}
            for role, span in gold_event.arguments:
                arguments.setdefault(role, []).append(doc.text[span.start : span.end])
            trigger = doc.text[gold_event.trigger.start : gold_event.trigger.end]
            events.append(EventObject(gold_event.event_type, trigger, arguments))
        predictions[doc.id] = events
    return predictions


def prediction_keys(events):
    ti = [event.trigger for event in events]
    tc = [(event.event_type, event.trigger) for event in events]
    ai, ac = [], []
    for event in events:
        for role, values in event.arguments.items():
            for value in values:
                ai.append((event.event_type, str(value)))
                ac.append((event.event_type, role, str(value)))
    return {"ti": ti, "tc": tc, "ai": ai, "ac": ac}


def gold_keys(doc):
    ti, tc, ai, ac = [], [], [], []
    for gold_event in doc.gold_events:
        trigger = doc.text[gold_event.trigger.start : gold_event.trigger.end]
        ti.append(trigger)
        tc.append((gold_event.event_type, trigger))
        for role, span in gold_event.arguments:
            value = doc.text[span.start : span.end]
            ai.append((gold_event.event_type, value))
            ac.append((gold_event.event_type, role, value))
    return {"ti": ti, "tc": tc, "ai": ai, "ac": ac}


def test_criterion_06():
    # Gold scored against itself is perfect on all four metrics.
    rng = random.Random(60606)
    docs = random_gold_corpus(rng, 25)
    report = score(gold_as_predictions(docs), docs)
    for scores in (report.ti, report.tc, report.ai, report.ac):
        assert scores.precision == 1.0
        assert scores.recall == 1.0
        assert scores.f1 == 1.0

    # Hand-computed two-document case: pooled TI has one correct trigger
    # out of two predicted and two gold, so P = R = F1 = 0.5.
    text_1 = "They demanded and paid quickly."
    text_2 = "Attackers kept infiltrating the network."
    doc_1 = Document(
        "d1", text_1, ((0, 4), (5, 13), (14, 17), (18, 22), (23, 31)),
        (GoldEvent("Ransom", Span("demanded", 5, 13), ()),),
    )
    doc_2 = Document(
        "d2", text_2, ((0, 9), (10, 14), (15, 27), (28, 31), (32, 40)),
        (GoldEvent("Databreach", Span("infiltrating", 15, 27), ()),),
    )
    predictions = {
        "d1": [
            EventObject("Ransom", "demanded", {}),
            EventObject("Ransom", "paid", {}),
        ],
        "d2": [],
    }
    hand = score(predictions, [doc_1, doc_2])
    assert math.isclose(hand.ti.f1, 0.500, abs_tol=1e-9)

    # Classification never beats identification, and the one-to-one
    # matcher agrees with exhaustive optimal matching on small documents.
    rng = random.Random(60607)
    for _ in range(500):
        docs = random_gold_corpus(rng, rng.randint(1, 3))
        predictions = perturbed_predictions(rng, docs)
        report = score(predictions, docs)
        assert report.tc.num_correct <= report.ti.num_correct
        assert report.ac.num_correct <= report.ai.num_correct
        assert report.tc.f1 <= report.ti.f1
        assert report.ac.f1 <= report.ai.f1

        for doc in docs:
            events = predictions.get(doc.id, [])
            if len(events) > 5 or len(doc.gold_events) > 5:
                continue
            single = score({doc.id: events}, [doc])
            predicted = prediction_keys(events)
            golden = gold_keys(doc)
            for metric in ("ti", "tc", "ai", "ac"):
                expected = optimal_correct(predicted[metric], golden[metric])
                assert getattr(single, metric).num_correct == expected, (doc, events, metric)


# ---------------------------------------------------------------------------
# 7. Corpus statistics equal an independent recount


def test_criterion_07():
    rng = random.Random(70707)
    for _ in range(60):
        docs = random_gold_corpus(rng, rng.randint(1, 4))
        stats = dataset_stats(docs)
        assert vars(stats) == recount_stats(docs)

    single_token_docs = [
        Document(
            "s1", "alpha beta gamma", ((0, 5), (6, 10), (11, 16)),
            (GoldEvent("E", Span("beta", 6, 10), ()),),
        ),
        Document(
            "s2", "delta epsilon", ((0, 5), (6, 13)),
            (
                GoldEvent("E", Span("delta", 0, 5), ()),
                GoldEvent("E", Span("epsilon", 6, 13), ()),
            ),
        ),
    ]
    assert dataset_stats(single_token_docs).multiword_trigger_pct == 0.0


# ---------------------------------------------------------------------------
# 8. Scripted extraction and evaluation are deterministic


ONTOLOGY = [
    {
        "event_type": "PatchVulnerability",
        "roles": [{"name": n} for n in ("patch", "cve", "time", "vulnerable_system")],
    }
]
SCHEMA = EventSchema(
    "PatchVulnerability",
    tuple(RoleSpec(n) for n in ("patch", "cve", "time", "vulnerable_system")),
)
TEXT_1 = "On Tuesday the company patched a vulnerability in its web server."
TEXT_2 = "The vendor patched its mail gateway overnight."
EXEMPLAR = "Last month the vendor patched a flaw in its mail server."
PLANNING_REPLY = '[{"trigger": "patched", "event_type": "PatchVulnerability"}]'


def corpus_record(doc_id, text, arguments=()):
    start = text.index("patched")
    return {
        "id": doc_id,
        "text": text,
        "events": [
            {
                "event_type": "PatchVulnerability",
                "trigger": {"text": "patched", "start": start, "end": start + len("patched")},
                "arguments": [
                    {
                        "role": role,
                        "text": value,
                        "start": text.index(value),
                        "end": text.index(value) + len(value),
                    }
                    for role, value in arguments
                ],
            }
        ],
    }


def write_run_inputs(tmp_path):
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(ONTOLOGY), encoding="utf-8")

    corpus = tmp_path / "corpus.jsonl"
    records = [
        corpus_record("d1", TEXT_1, arguments=(("time", "Tuesday"),)),
        corpus_record("d2", TEXT_2),
    ]
    corpus.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")

    fixture = tmp_path / "fixture.json"
    fixture.write_text(json.dumps(script(
        (retrieval_prompt(SCHEMA), EXEMPLAR),
        (planning_prompt(TEXT_1, planning_head(SchemaRegistry([SCHEMA]), (EXEMPLAR,))), PLANNING_REPLY),
        (coding_prompt(SCHEMA, "patched", TEXT_1), 'PatchVulnerability(mention="patched", time=["Tuesday"])'),
        (planning_prompt(TEXT_2, planning_head(SchemaRegistry([SCHEMA]), (EXEMPLAR,))), PLANNING_REPLY),
        (coding_prompt(SCHEMA, "patched", TEXT_2), 'PatchVulnerability(mention="patched")'),
    )), encoding="utf-8")
    return ontology, corpus, fixture


def test_criterion_08(tmp_path, capsys):
    ontology, corpus, fixture = write_run_inputs(tmp_path)

    prediction_bytes = []
    report_bytes = []
    for label in ("a", "b"):
        predictions = tmp_path / f"preds_{label}.jsonl"
        report = tmp_path / f"report_{label}.json"
        assert main([
            "extract",
            "--ontology", str(ontology),
            "--corpus", str(corpus),
            "--scripted-fixture", str(fixture),
            "--out", str(predictions),
            "--runs", "1",
            "--mode", "strict",
        ]) == 0
        assert main([
            "eval", str(predictions),
            "--corpus", str(corpus),
            "--out", str(report),
        ]) == 0
        capsys.readouterr()
        prediction_bytes.append(predictions.read_bytes())
        report_bytes.append(report.read_bytes())

    assert prediction_bytes[0] == prediction_bytes[1]
    assert report_bytes[0] == report_bytes[1]
    # The scripted replies match gold exactly, so the report is perfect.
    assert json.loads(report_bytes[0])["AC"]["f1"] == 1.0


# ---------------------------------------------------------------------------
# 9. Resolved defaults


def test_criterion_09(capsys):
    assert main(["extract", "--print-config"]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert resolved["exemplar_k"] == 3
    assert resolved["hypothesis_k"] == 3
    assert resolved["patch_attempts"] == 3
    assert resolved["runs"] == 3


# ---------------------------------------------------------------------------
# 10. Sampling is uniform across seeds


def test_criterion_10():
    docs = [Document(f"d{i}", "alpha beta", ((0, 5), (6, 10))) for i in range(4)]
    counts = Counter()
    for seed in range(10_000):
        chosen = sample_split(docs, 1, seed)
        assert len(chosen) == 1
        counts[chosen[0].id] += 1
    assert sum(counts.values()) == 10_000
    assert len(counts) == 4
    for doc in docs:
        frequency = counts[doc.id] / 10_000
        assert abs(frequency - 0.25) <= 0.02, (doc.id, frequency)
