"""The dual-loop search: pool order, patching, backtracking, budget."""

import json
from collections import Counter

import pytest

from conftest import Recorder, extract_argv, script, trace_outcomes
from eventagents import (
    BackendError,
    EventAgentsError,
    EventObject,
    PipelineConfig,
    RefinementTrace,
    SchemaRegistry,
    ScriptedBackend,
    TriggerHypothesis,
    extract_document,
    refine,
)
from eventagents.agents import ExemplarCache
from eventagents.cli import main
from eventagents.prompts import coding_prompt, judge_prompt, planning_head, planning_prompt, retrieval_prompt
from eventagents.refine import RunContext, build_run_context, document_judge, trace_to_records

VALID_REPLY = 'PatchVulnerability(mention="patched", time=["Tuesday"])'
BROKEN_REPLY = 'PatchVulnerability(mention="patched", vulnerable_system=[1234])'
BROKEN_DIAGNOSTIC = "[T2] value 1234 is not of type str (at vulnerable_system)"


def hyp(trigger, event_type="PatchVulnerability", confidence=0.9):
    return TriggerHypothesis(trigger, event_type, confidence)


class TestConfigs:
    def test_refinement_defaults(self):
        config = PipelineConfig()
        assert config.hypothesis_k == 3
        assert config.patch_attempts == 3
        assert config.mode == "strict"

    def test_pipeline_defaults(self):
        config = PipelineConfig()
        assert config.exemplar_k == 3
        assert config.event_cap == 1

    # One case per checked field, in the order the checks run.
    VALIDATION = [
        ("hypothesis_k", 0, "hypothesis_k must be >= 1"),
        ("patch_attempts", 0, "patch_attempts must be >= 1"),
        ("mode", "fuzzy", "mode must be 'strict' or 'llm', got 'fuzzy'"),
        ("exemplar_k", 0, "exemplar_k must be >= 1"),
        ("event_cap", 0, "event_cap must be >= 1"),
    ]

    @pytest.mark.parametrize("name, value, message", VALIDATION, ids=[case[0] for case in VALIDATION])
    def test_validation_message(self, name, value, message):
        with pytest.raises(ValueError) as exc_info:
            PipelineConfig(**{name: value})
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "first, second",
        zip(VALIDATION, VALIDATION[1:]),
        ids=[f"{a[0]}-{b[0]}" for a, b in zip(VALIDATION, VALIDATION[1:])],
    )
    def test_first_checked_fault_is_reported(self, first, second):
        with pytest.raises(ValueError) as exc_info:
            PipelineConfig(**{first[0]: first[1], second[0]: second[1]})
        assert str(exc_info.value) == first[2]


class TestRefine:
    def config(self, **kwargs):
        return PipelineConfig(**kwargs)

    def coding(self, schema, text, trigger, reply, diagnostic=""):
        return (coding_prompt(schema, trigger, text, diagnostic=diagnostic), reply)

    def test_accepts_on_first_attempt(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = ScriptedBackend(
            script(self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY))
        )
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace
        )
        assert isinstance(outcome, EventObject)
        assert outcome.trigger == "patched"
        assert outcome.arguments == {"time": ["Tuesday"]}
        assert trace.outcome == "accepted"
        assert len(trace.attempts) == 1
        assert trace.attempts[0]["verdict"] is True
        assert trace.attempts[0]["attempt"] == 1

    def test_patch_attempt_embeds_diagnostic(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(
                    patchvuln_schema, tuesday_text, "patched", VALID_REPLY,
                    diagnostic=BROKEN_DIAGNOSTIC,
                ),
            )
        ))
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace
        )
        assert isinstance(outcome, EventObject)
        assert len(trace.attempts) == 2
        assert trace.attempts[0]["diagnostic"] == BROKEN_DIAGNOSTIC
        assert BROKEN_DIAGNOSTIC in backend.calls[1].messages[1].content

    def test_empty_reply_is_a_failed_attempt(self, patch_registry, patchvuln_schema, tuesday_text):
        empty_diagnostic = "[T3] line 1, col 1: empty input (at source)"
        backend = ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", "  \n"),
                self.coding(
                    patchvuln_schema, tuesday_text, "patched", VALID_REPLY,
                    diagnostic=empty_diagnostic,
                ),
            )
        )
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace
        )
        assert isinstance(outcome, EventObject)
        assert trace.outcome == "accepted"
        assert [(a["attempt"], a["verdict"]) for a in trace.attempts] == [(1, False), (2, True)]
        assert trace.attempts[0]["diagnostic"] == empty_diagnostic

    def test_backtracks_to_next_hypothesis(self, patch_registry, patchvuln_schema, tuesday_text):
        first = hyp("patched", confidence=0.9)
        second = hyp("vulnerability", confidence=0.5)
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(
                    patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY,
                    diagnostic=BROKEN_DIAGNOSTIC,
                ),
                self.coding(patchvuln_schema, tuesday_text, "vulnerability", rescue),
            )
        )
        trace = RefinementTrace()
        outcome = refine(
            [first, second],
            tuesday_text,
            patch_registry,
            self.config(patch_attempts=2),
            backend,
            trace,
        )
        assert isinstance(outcome, EventObject)
        assert outcome.trigger == "vulnerability"
        assert len(trace.attempts) == 3
        assert [(r["trigger"], r["attempt"]) for r in trace.attempts] == [
            ("patched", 1),
            ("patched", 2),
            ("vulnerability", 1),
        ]

    def test_exhaustion_returns_failure_value(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(
                    patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY,
                    diagnostic=BROKEN_DIAGNOSTIC,
                ),
            )
        )
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")],
            tuesday_text,
            patch_registry,
            self.config(patch_attempts=2),
            backend,
            trace,
        )
        assert outcome is None
        assert trace.outcome == "exhausted"
        assert len(trace.attempts) == 2

    def test_repeated_patch_attempts_reuse_fingerprint(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        # Identical diagnostics produce identical patch prompts; the
        # scripted list consumes one reply per attempt.
        patch_request = coding_prompt(
            patchvuln_schema, "patched", tuesday_text, diagnostic=BROKEN_DIAGNOSTIC
        )
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                (patch_request, BROKEN_REPLY),
                (patch_request, VALID_REPLY),
            )
        ))
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, RefinementTrace()
        )
        assert isinstance(outcome, EventObject)
        assert [c.template_id for c in backend.calls] == ["coding"] * 3

    def test_unknown_event_type_skipped_without_cost(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        unknown = hyp("patched", event_type="Earthquake", confidence=1.0)
        known = hyp("patched", confidence=0.5)
        backend = ScriptedBackend(
            script(self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY))
        )
        trace = RefinementTrace()
        outcome = refine(
            [unknown, known],
            tuesday_text,
            patch_registry,
            self.config(hypothesis_k=1),
            backend,
            trace,
        )
        assert isinstance(outcome, EventObject)
        assert len(trace.attempts) == 1
        assert trace.notes == ["hypothesis ('patched', 'Earthquake') skipped: unknown event type"]

    def test_hypothesis_budget_caps_backtracking(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        # Planning cuts to hypothesis_k; refine keeps no budget of its own.
        backend = Recorder(ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                TestExtractDocument.EXEMPLAR,
                TestExtractDocument.PLANNING,
                [("patched", BROKEN_REPLY, "")],
            )
        ))
        config = self.config(hypothesis_k=1, patch_attempts=1, exemplar_k=1)
        events, trace = extract(tuesday_text, patch_registry, config, backend)
        assert events == [] and trace.outcome == "exhausted"
        assert template_counts(backend)["coding"] == 1
        assert [a["trigger"] for a in trace.attempts] == ["patched"]

    def test_the_whole_pool_is_tried_whatever_hypothesis_k(self, patch_registry, patchvuln_schema, tuesday_text):
        # hypothesis_k is planning's cut: refine tries every hypothesis it is given.
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(patchvuln_schema, tuesday_text, "vulnerability", rescue),
            )
        ))
        pool = [hyp("patched", event_type="Earthquake"), hyp("patched"), hyp("vulnerability")]
        trace = RefinementTrace()
        outcome = refine(pool, tuesday_text, patch_registry, self.config(hypothesis_k=1, patch_attempts=1), backend, trace)
        assert outcome.trigger == "vulnerability"
        assert [a["trigger"] for a in trace.attempts] == ["patched", "vulnerability"]
        assert len(backend.calls) == 2 and pool == []

    def test_equal_duplicates_are_consumed_one_at_a_time(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        # An accepted hypothesis ends the search, so each call takes one entry.
        backend = Recorder(ScriptedBackend(script(self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY))))
        duplicate = hyp("patched")
        pool = [duplicate, hyp("patched")]
        config = self.config(patch_attempts=1)
        assert refine(pool, tuesday_text, patch_registry, config, backend, RefinementTrace()) is not None
        assert pool == [duplicate] and len(backend.calls) == 1
        assert refine(pool, tuesday_text, patch_registry, config, backend, RefinementTrace()) is not None
        assert pool == [] and len(backend.calls) == 2

    def test_untried_hypotheses_stay_in_the_callers_list(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        first, second, third = hyp("patched"), hyp("vulnerability", confidence=0.5), hyp("company", confidence=0.2)
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(patchvuln_schema, tuesday_text, "vulnerability", rescue),
            )
        )
        pool = [first, second, third]
        outcome = refine(pool, tuesday_text, patch_registry, self.config(patch_attempts=1), backend, RefinementTrace())
        assert outcome.trigger == "vulnerability"
        # The exhausted and the accepted hypothesis are both consumed.
        assert pool == [third]

    def test_pool_is_taken_front_to_back(self, patch_registry, patchvuln_schema, tuesday_text):
        # refine does not rank: planning already did, so a lower confidence
        # at the front is tried first.
        backend = ScriptedBackend(script(self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY)))
        low, high = hyp("patched", confidence=0.2), hyp("vulnerability", confidence=0.9)
        pool = [low, high]
        trace = RefinementTrace()
        assert refine(pool, tuesday_text, patch_registry, self.config(), backend, trace).trigger == "patched"
        assert [a["trigger"] for a in trace.attempts] == ["patched"]
        assert pool == [high]

    def test_backend_failure_consumes_the_hypothesis_being_tried(self, patch_registry, tuesday_text):
        second = hyp("vulnerability", confidence=0.5)
        pool = [hyp("patched"), second]
        with pytest.raises(BackendError):
            refine(pool, tuesday_text, patch_registry, self.config(), ScriptedBackend({}), RefinementTrace())
        assert pool == [second]

    def test_backend_failure_raises_and_attaches_nothing(self, patch_registry, tuesday_text):
        backend = ScriptedBackend({})
        trace = RefinementTrace()
        with pytest.raises(BackendError) as exc_info:
            refine(
                [hyp("patched")],
                tuesday_text,
                patch_registry,
                self.config(),
                backend,
                trace,
            )
        assert trace.outcome == "pending" and trace.error is None and trace.attempts == []
        assert not hasattr(exc_info.value, "trace")

    def test_trace_accumulates_across_calls(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY),
                self.coding(
                    patchvuln_schema, tuesday_text, "vulnerability",
                    'PatchVulnerability(mention="vulnerability")',
                ),
            )
        )
        trace = RefinementTrace()
        refine([hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace)
        refine(
            [hyp("vulnerability")], tuesday_text, patch_registry, self.config(), backend, trace
        )
        assert len(trace.attempts) == 2


def single_schema_fixture(schema, text, exemplar, planning_reply, coding_replies):
    """Scripted mapping for one extract_document run over one schema."""
    pairs = [(retrieval_prompt(schema), exemplar)]
    head = planning_head(SchemaRegistry([schema]), (exemplar,) if exemplar else ())
    pairs.append((planning_prompt(text, head), planning_reply))
    for trigger, reply, diagnostic in coding_replies:
        pairs.append((coding_prompt(schema, trigger, text, diagnostic=diagnostic), reply))
    return script(*pairs)


def extract(text, registry, config, backend):
    """``extract_document`` in a run of this one document."""
    context = build_run_context(registry, backend, config.exemplar_k)
    return extract_document(text, registry, config, backend, context)


class TestExtractDocument:
    EXEMPLAR = "Last month the vendor patched a flaw in its mail server."
    PLANNING = (
        '[{"trigger": "patched", "event_type": "PatchVulnerability"},'
        ' {"trigger": "vulnerability", "event_type": "PatchVulnerability"}]'
    )

    def config(self, **kwargs):
        kwargs.setdefault("exemplar_k", 1)
        return PipelineConfig(**kwargs)

    def test_single_event_flow(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = Recorder(ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                self.PLANNING,
                [("patched", VALID_REPLY, "")],
            )
        ))
        events, trace = extract(tuesday_text, patch_registry, self.config(), backend)
        assert [e.trigger for e in events] == ["patched"]
        assert trace.outcome == "accepted"
        assert [c.template_id for c in backend.calls] == ["retrieval", "planning", "coding"]

    def test_empty_planning_is_not_an_error(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = ScriptedBackend(
            single_schema_fixture(patchvuln_schema, tuesday_text, self.EXEMPLAR, "[]", [])
        )
        events, trace = extract(tuesday_text, patch_registry, self.config(), backend)
        assert events == []
        assert trace.outcome == "no-hypotheses"
        assert "planning produced no hypotheses" in trace.notes

    @pytest.mark.parametrize("text", ["", "   ", "\n\t"], ids=["empty", "spaces", "newline-tab"])
    def test_blank_text_is_aborted_before_any_backend_call(self, patch_registry, text):
        backend = Recorder(ScriptedBackend({}))
        context = RunContext(planning_head(patch_registry), ())
        events, trace = extract_document(text, patch_registry, self.config(), backend, context)
        assert events == []
        assert trace == RefinementTrace(outcome="aborted", error="document text is empty")
        assert backend.calls == []

    @pytest.mark.parametrize("planning_reply, coding_replies, failed_template", [
        ("not json", [], "planning_retry"),
        (PLANNING, [("patched", BROKEN_REPLY, "")], "coding"),
    ], ids=["planning", "coding"])
    def test_backend_failure_returns_an_aborted_trace(
        self, patch_registry, patchvuln_schema, tuesday_text, planning_reply, coding_replies, failed_template
    ):
        # Retrieval comes back empty, so the trace starts with its warning.
        backend = ScriptedBackend(
            single_schema_fixture(patchvuln_schema, tuesday_text, "", planning_reply, coding_replies)
        )
        events, trace = extract(tuesday_text, patch_registry, self.config(), backend)
        assert events == []
        assert trace.outcome == "aborted"
        assert trace.notes[0] == "retrieval produced no usable sentences for PatchVulnerability"
        assert len(trace.attempts) == len(coding_replies)
        assert trace.error.startswith(f"no scripted reply for template {failed_template!r}")

    def test_retrieval_warning_recorded_and_exemplar_block_omitted(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        backend = Recorder(ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema, tuesday_text, "", self.PLANNING, [("patched", VALID_REPLY, "")]
            )
        ))
        events, trace = extract(tuesday_text, patch_registry, self.config(), backend)
        assert len(events) == 1
        assert "retrieval produced no usable sentences for PatchVulnerability" in trace.notes
        planning_call = backend.calls[1]
        assert dict(planning_call.bindings)["exemplars"] == ""
        assert "Example sentences:" not in planning_call.messages[1].content

    def test_empty_registry_rejected(self):
        with pytest.raises(EventAgentsError, match="the ontology declares no event types"):
            build_run_context(SchemaRegistry(), ScriptedBackend({}), exemplar_k=1)

    def test_exemplar_cache_shared_across_documents(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        fixture = single_schema_fixture(
            patchvuln_schema,
            tuesday_text,
            self.EXEMPLAR,
            self.PLANNING,
            [("patched", VALID_REPLY, "")],
        )
        backend = Recorder(ScriptedBackend(fixture))
        context = build_run_context(patch_registry, backend, exemplar_k=1)
        extract_document(tuesday_text, patch_registry, self.config(), backend, context=context)
        extract_document(tuesday_text, patch_registry, self.config(), backend, context=context)
        retrievals = [c for c in backend.calls if c.template_id == "retrieval"]
        assert len(retrievals) == 1

    def test_multi_event_extension(self, patch_registry, patchvuln_schema, tuesday_text):
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                self.PLANNING,
                [("patched", VALID_REPLY, ""), ("vulnerability", rescue, "")],
            )
        )
        events, trace = extract(
            tuesday_text, patch_registry, self.config(event_cap=5), backend
        )
        assert [e.trigger for e in events] == ["patched", "vulnerability"]
        assert any(note.startswith("multi-event: continuing") for note in trace.notes)

    def test_multi_event_drops_every_entry_of_an_accepted_pair(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        planning = (
            '[{"trigger": "patched", "event_type": "PatchVulnerability", "confidence": 0.9},'
            ' {"trigger": "patched", "event_type": "PatchVulnerability", "confidence": 0.4},'
            ' {"trigger": "vulnerability", "event_type": "PatchVulnerability", "confidence": 0.5}]'
        )
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                planning,
                [("patched", VALID_REPLY, ""), ("vulnerability", rescue, "")],
            )
        )
        events, trace = extract(
            tuesday_text, patch_registry, self.config(event_cap=5), backend
        )
        # The lower-confidence duplicate of the accepted pair is never tried.
        assert [e.trigger for e in events] == ["patched", "vulnerability"]
        assert [(a["trigger"], a["confidence"]) for a in trace.attempts] == [
            ("patched", 0.9),
            ("vulnerability", 0.5),
        ]
        assert trace.outcome == "accepted"

    @pytest.mark.parametrize("hypothesis_k, tried", [
        (3, ["demanded", "ransom", "Attackers"]),
        (4, ["demanded", "ransom", "Attackers", "breach"]),
    ], ids=["k3", "k4"])
    def test_a_tie_at_the_cut_keeps_the_best_first_order(self, databreach_schema, hypothesis_k, tried):
        # "breach" and "Attackers" tie on confidence and straddle the cut at
        # k=3; the earlier mention is kept, so k=3 tries a prefix of k=4.
        text = "Attackers demanded a ransom after the breach."
        planning = json.dumps([
            {"trigger": "demanded", "event_type": "Databreach", "confidence": 0.9},
            {"trigger": "ransom", "event_type": "Databreach", "confidence": 0.8},
            {"trigger": "breach", "event_type": "Databreach", "confidence": 0.5},
            {"trigger": "Attackers", "event_type": "Databreach", "confidence": 0.5},
        ])
        coding = [(trigger, "", "") for trigger in ("demanded", "ransom", "breach", "Attackers")]
        backend = ScriptedBackend(single_schema_fixture(databreach_schema, text, self.EXEMPLAR, planning, coding))
        config = self.config(hypothesis_k=hypothesis_k, patch_attempts=1)
        events, trace = extract(text, SchemaRegistry([databreach_schema]), config, backend)
        assert events == [] and trace.outcome == "exhausted"
        assert [a["trigger"] for a in trace.attempts] == tried

    @pytest.mark.parametrize("hypothesis_k", [2, 3])
    def test_a_repeated_pair_takes_one_slot(self, ransom_schema, hypothesis_k):
        # "demanded"/Ransom is planned twice: it is tried once, and "ransom"
        # keeps its place among the first hypothesis_k pairs.
        text = "Hackers demanded a ransom."
        planning = json.dumps([{"trigger": t, "event_type": "Ransom"} for t in ("demanded", "demanded", "ransom")])
        empty = "[T3] line 1, col 1: empty input (at source)"
        coding = [(trigger, "", diagnostic) for trigger in ("demanded", "ransom") for diagnostic in ("", empty)]
        backend = Recorder(ScriptedBackend(single_schema_fixture(ransom_schema, text, self.EXEMPLAR, planning, coding)))
        config = self.config(hypothesis_k=hypothesis_k)
        events, trace = extract(text, SchemaRegistry([ransom_schema]), config, backend)
        assert events == [] and trace.outcome == "exhausted"
        assert [a["trigger"] for a in trace.attempts] == ["demanded"] * 3 + ["ransom"] * 3
        assert template_counts(backend)["coding"] == 6

    def test_an_accepted_hypothesis_is_not_tried_again(self, databreach_schema):
        # The coder's mention differs from the planned trigger in case only,
        # so no later entry matches the accepted event's (trigger, type).
        text = "Breach at the bank exposed customer records."
        reply = 'Databreach(mention="breach", victim=["bank"])'
        planning = '[{"trigger": "Breach", "event_type": "Databreach"}]'
        backend = Recorder(ScriptedBackend(
            single_schema_fixture(databreach_schema, text, self.EXEMPLAR, planning, [("Breach", reply, "")])
        ))
        config = self.config(event_cap=5)
        events, trace = extract(text, SchemaRegistry([databreach_schema]), config, backend)
        assert [e.trigger for e in events] == ["breach"]
        assert template_counts(backend)["coding"] == 1
        assert trace.outcome == "accepted"

    def test_failed_continuation_keeps_the_accepted_event(self, patch_registry, patchvuln_schema, tuesday_text):
        # The second hypothesis's coding prompt has no scripted reply.
        backend = ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                self.PLANNING,
                [("patched", VALID_REPLY, "")],
            )
        )
        events, trace = extract(
            tuesday_text, patch_registry, self.config(event_cap=5), backend
        )
        assert [e.trigger for e in events] == ["patched"]
        assert trace.outcome == "accepted"
        assert trace.error is None
        assert [a["trigger"] for a in trace.attempts] == ["patched"]
        failures = [note for note in trace.notes if "continuation failed" in note]
        assert len(failures) == 1
        assert failures[0].startswith(
            "multi-event: continuation failed, keeping 1 accepted event(s): no scripted reply for template 'coding'"
        )
        records = trace_to_records(trace, "d1")
        assert records[-1] == {"doc_id": "d1", "outcome": "accepted"}

    def test_multi_event_respects_cap(self, patch_registry, patchvuln_schema, tuesday_text):
        # "vulnerability" would verify too, but the cap stops the search first.
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        backend = ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                self.PLANNING,
                [("patched", VALID_REPLY, ""), ("vulnerability", rescue, "")],
            )
        )
        events, trace = extract(tuesday_text, patch_registry, self.config(event_cap=1), backend)
        assert [e.trigger for e in events] == ["patched"]
        assert [a["trigger"] for a in trace.attempts] == ["patched"]
        assert not any(note.startswith("multi-event:") for note in trace.notes)

    def test_default_is_single_event(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = Recorder(ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                self.EXEMPLAR,
                self.PLANNING,
                [("patched", VALID_REPLY, "")],
            )
        ))
        events, _ = extract(tuesday_text, patch_registry, self.config(), backend)
        assert len(events) == 1


def template_counts(backend) -> Counter:
    return Counter(call.template_id for call in backend.calls)


def judge(trigger, text, reply, event_type="PatchVulnerability"):
    return (judge_prompt(trigger, event_type, text), reply)


class TestJudgeMemo:
    """In llm mode the judge is asked each (trigger, event type) once per document."""

    REJECTED = (
        "[T1] trigger 'patched' judged not semantically compatible with event type "
        "'PatchVulnerability' (at patched)"
    )

    def config(self, **kwargs):
        return PipelineConfig(mode="llm", **kwargs)

    def llm_judge(self, backend, text, trace):
        """The document's llm-mode judge, as extract_document builds it."""
        return document_judge("llm", backend, text, trace.notes)

    def coding(self, schema, text, trigger, reply, diagnostic=""):
        return (coding_prompt(schema, trigger, text, diagnostic=diagnostic), reply)

    def test_rejected_trigger_is_judged_once_over_all_attempts(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY),
                self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY, diagnostic=self.REJECTED),
                judge("patched", tuesday_text, "no"),
            )
        ))
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace,
            self.llm_judge(backend, tuesday_text, trace),
        )
        assert outcome is None
        assert [a["diagnostic"] for a in trace.attempts] == [self.REJECTED] * 3
        assert template_counts(backend) == {"coding": 3, "semantic_judge": 1}

    @pytest.mark.parametrize(
        "reply, notes",
        [
            (
                "hmm, unclear",
                ["semantic judge on ('patched', 'PatchVulnerability'): unparseable judge reply: 'hmm, unclear'"],
            ),
            ("no", []),
        ],
    )
    def test_unparseable_judge_reply_leaves_one_note(
        self, patch_registry, patchvuln_schema, tuesday_text, reply, notes
    ):
        fixture = single_schema_fixture(
            patchvuln_schema,
            tuesday_text,
            TestExtractDocument.EXEMPLAR,
            '[{"trigger": "patched", "event_type": "PatchVulnerability"}]',
            [("patched", VALID_REPLY, ""), ("patched", VALID_REPLY, self.REJECTED)],
        )
        fixture.update(script(judge("patched", tuesday_text, reply)))
        backend = Recorder(ScriptedBackend(fixture))
        events, trace = extract(
            tuesday_text, patch_registry, PipelineConfig(exemplar_k=1, mode="llm"), backend
        )
        assert events == []
        assert [a["diagnostic"] for a in trace.attempts] == [self.REJECTED] * 3
        assert template_counts(backend)["semantic_judge"] == 1
        assert trace.notes == notes
        assert [r["note"] for r in trace_to_records(trace, "d") if "note" in r] == notes

    def test_type_patch_reuses_the_judge_answer(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", BROKEN_REPLY),
                self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY, diagnostic=BROKEN_DIAGNOSTIC),
                judge("patched", tuesday_text, "yes"),
            )
        ))
        trace = RefinementTrace()
        outcome = refine(
            [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace,
            self.llm_judge(backend, tuesday_text, trace),
        )
        assert isinstance(outcome, EventObject)
        assert trace.attempts[0]["diagnostic"] == BROKEN_DIAGNOSTIC
        assert template_counts(backend) == {"coding": 2, "semantic_judge": 1}

    def test_memo_is_shared_only_when_passed(self, patch_registry, patchvuln_schema, tuesday_text):
        fixture = script(
            self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY),
            judge("patched", tuesday_text, "yes"),
        )

        def two_refines(share):
            backend = Recorder(ScriptedBackend(fixture))
            judge = document_judge("llm", backend, tuesday_text, []) if share else None
            for _ in range(2):
                pool = [hyp("patched")]
                refine(pool, tuesday_text, patch_registry, self.config(), backend, RefinementTrace(), judge)
            return template_counts(backend)["semantic_judge"]

        assert two_refines(share=True) == 1
        # Without a judge T1 checks only the text, as verify does.
        assert two_refines(share=False) == 0

    def test_failed_judge_call_keeps_the_paid_attempt(self, patch_registry, patchvuln_schema, tuesday_text):
        # The coding reply is scripted, the judge prompt that verifies it is not.
        backend = Recorder(ScriptedBackend(script(self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY))))
        trace = RefinementTrace()
        with pytest.raises(BackendError):
            refine(
                [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace,
                self.llm_judge(backend, tuesday_text, trace),
            )
        assert [(a["attempt"], a["code"], a["verdict"], a["diagnostic"]) for a in trace.attempts] == [
            (1, VALID_REPLY, None, None)
        ]
        assert trace.attempts[0]["event"]["arguments"] == {"time": ["Tuesday"]}
        assert template_counts(backend) == {"coding": 1, "semantic_judge": 1}

    def test_failed_judge_call_after_a_patch_keeps_both_attempts(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        # An empty reply fails T3 without a judge call; the patched reply's judge call fails.
        empty_diagnostic = "[T3] line 1, col 1: empty input (at source)"
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(patchvuln_schema, tuesday_text, "patched", "  \n"),
                self.coding(patchvuln_schema, tuesday_text, "patched", VALID_REPLY, diagnostic=empty_diagnostic),
            )
        ))
        trace = RefinementTrace()
        with pytest.raises(BackendError):
            refine(
                [hyp("patched")], tuesday_text, patch_registry, self.config(), backend, trace,
                self.llm_judge(backend, tuesday_text, trace),
            )
        assert template_counts(backend) == {"coding": 2, "semantic_judge": 1}
        assert len(trace.attempts) == 2
        assert trace.attempts[0]["diagnostic"] == empty_diagnostic
        assert trace.attempts[1]["verdict"] is None
        assert [record.get("verdict", "-") for record in trace_to_records(trace, "d")] == [False, None, "-"]

    def test_strict_mode_has_no_judge(self, tuesday_text):
        assert document_judge("strict", ScriptedBackend({}), tuesday_text, []) is None

    def test_each_document_asks_the_judge(self, patch_registry, patchvuln_schema, tuesday_text):
        fixture = single_schema_fixture(
            patchvuln_schema,
            tuesday_text,
            TestExtractDocument.EXEMPLAR,
            TestExtractDocument.PLANNING,
            [("patched", VALID_REPLY, "")],
        )
        fixture.update(script(judge("patched", tuesday_text, "yes")))
        backend = Recorder(ScriptedBackend(fixture))
        config = PipelineConfig(exemplar_k=1, mode="llm")
        context = build_run_context(patch_registry, backend, exemplar_k=1)
        for _ in range(2):
            events, _ = extract_document(tuesday_text, patch_registry, config, backend, context=context)
            assert [e.trigger for e in events] == ["patched"]
        assert template_counts(backend) == {"retrieval": 1, "planning": 2, "coding": 2, "semantic_judge": 2}

    def test_dual_loop_coding_calls_unchanged(self, patch_registry, patchvuln_schema, tuesday_text):
        # Acceptance criterion 2's scenarios in llm mode: the coding-call
        # accounting stays 4 and 9; each trigger is judged once.
        schema, text = patchvuln_schema, tuesday_text
        rescue = 'PatchVulnerability(mention="vulnerability", time=["Tuesday"])'
        triggers = ["patched", "vulnerability", "company"]
        judges = [judge(trigger, text, "yes") for trigger in triggers]
        backend = Recorder(ScriptedBackend(
            script(
                self.coding(schema, text, "patched", BROKEN_REPLY),
                self.coding(schema, text, "patched", BROKEN_REPLY, diagnostic=BROKEN_DIAGNOSTIC),
                self.coding(schema, text, "vulnerability", rescue),
                *judges,
            )
        ))
        pool = [hyp("patched", confidence=0.9), hyp("vulnerability", confidence=0.5)]
        trace = RefinementTrace()
        outcome = refine(pool, text, patch_registry, self.config(), backend, trace, self.llm_judge(backend, text, trace))
        assert isinstance(outcome, EventObject) and outcome.trigger == "vulnerability"
        assert len(trace.attempts) == 4
        assert template_counts(backend) == {"coding": 4, "semantic_judge": 2}

        entries = []
        for trigger in triggers:
            entries.append(self.coding(schema, text, trigger, BROKEN_REPLY.replace('"patched"', f'"{trigger}"')))
            entries.append(
                self.coding(
                    schema, text, trigger, BROKEN_REPLY.replace('"patched"', f'"{trigger}"'),
                    diagnostic=BROKEN_DIAGNOSTIC,
                )
            )
        backend = Recorder(ScriptedBackend(script(*entries, *judges)))
        pool = [hyp(t, confidence=0.9 - 0.1 * i) for i, t in enumerate(triggers)]
        trace = RefinementTrace()
        outcome = refine(pool, text, patch_registry, self.config(), backend, trace, self.llm_judge(backend, text, trace))
        assert outcome is None
        assert len(trace.attempts) == 9
        assert template_counts(backend) == {"coding": 9, "semantic_judge": 3}


RUN_TEXTS = (
    "On Tuesday the company patched a vulnerability in its web server.",
    "Hackers demanded a million dollar ransom after infiltrating the bank's servers on Friday.",
    "The vendor patched its mail gateway overnight.",
)

# Planning fingerprints of RUN_TEXTS over the breach registry with
# TestRunContext.EXEMPLARS, pinned: any drift in how the exemplar block
# reaches the planning prompt changes them.
RUN_PLANNING_FINGERPRINTS = (
    "planning:14140026b5b4add692a8d0a17e9740dac1b0fb716daa0951c45528a656368887",
    "planning:4b62209f8bea0074f62f771d8366f3d5459b2efcdff803372a1e1827b4367a02",
    "planning:4676e392d22e38442820cb631dd5cb7ae4598cbb7920897aa10c3d02d8694a59",
)


class TestRunContext:
    """The run's exemplars are retrieved once and shared by every document."""

    EXEMPLARS = {
        "Databreach": ["Thieves stole a customer database.", "A breach exposed records.", "Records leaked."],
        "Ransom": ["Attackers demanded a ransom.", "The firm paid a ransom.", "A ransom note arrived."],
    }

    def test_context_contents(self, breach_registry):
        pairs = [
            (retrieval_prompt(schema), reply)
            for schema in breach_registry
            for reply in self.EXEMPLARS[schema.event_type]
        ]
        context = build_run_context(breach_registry, ScriptedBackend(script(*pairs)), exemplar_k=3)
        sentences = (*self.EXEMPLARS["Databreach"], *self.EXEMPLARS["Ransom"])
        assert context.planning == planning_head(breach_registry, sentences)
        assert context.planning.exemplars == "\n".join(sentences)
        assert context.warnings == ()

    def test_empty_retrieval_leaves_a_warning(self, breach_registry):
        pairs = [(retrieval_prompt(schema), self.EXEMPLARS[schema.event_type]) for schema in breach_registry]
        pairs[1] = (pairs[1][0], "  ")
        context = build_run_context(breach_registry, ScriptedBackend(script(*pairs)), exemplar_k=3)
        assert context.planning == planning_head(breach_registry, self.EXEMPLARS["Databreach"])
        assert context.warnings == ("retrieval produced no usable sentences for Ransom",)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_schema_is_fetched_once_per_run(self, monkeypatch, tmp_path, breach_registry, workers):
        lookups, planning = [], []
        original, complete = ExemplarCache.get_or_create, ScriptedBackend.complete

        def counting(cache, schema, factory):
            lookups.append(schema.event_type)
            return original(cache, schema, factory)

        def recording(backend, request):
            if request.template_id == "planning":
                planning.append(request.fingerprint())
            return complete(backend, request)

        monkeypatch.setattr(ExemplarCache, "get_or_create", counting)
        monkeypatch.setattr(ScriptedBackend, "complete", recording)
        pairs = [
            (retrieval_prompt(schema), reply)
            for schema in breach_registry
            for reply in self.EXEMPLARS[schema.event_type]
        ]
        sentences = tuple(s for schema in breach_registry for s in self.EXEMPLARS[schema.event_type])
        pairs += [(planning_prompt(text, planning_head(breach_registry, sentences)), "[]") for text in RUN_TEXTS]
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(script(*pairs)), encoding="utf-8")
        argv = extract_argv(tmp_path, breach_registry, RUN_TEXTS)

        assert main([*argv, "--scripted-fixture", str(fixture), "--runs", "1", "--workers", workers]) == 0

        assert sorted(lookups) == ["Databreach", "Ransom"]
        outcomes = trace_outcomes(tmp_path / "preds.trace.jsonl")
        assert [record["outcome"] for record in outcomes] == ["no-hypotheses"] * 3
        assert sorted(planning) == sorted(RUN_PLANNING_FINGERPRINTS)

    # Databreach and Ransom share a sentence, and each PatchVulnerability
    # sentence repeats an earlier one.
    SHARED = {
        "Databreach": ["Thieves stole a customer database.", "Attackers struck the bank."],
        "Ransom": ["Attackers struck the bank.", "A ransom note arrived."],
        "PatchVulnerability": ["A ransom note arrived.", "Thieves stole a customer database."],
    }
    DISTINCT = ("Thieves stole a customer database.", "Attackers struck the bank.", "A ransom note arrived.")

    @pytest.fixture
    def shared_registry(self, databreach_schema, ransom_schema, patchvuln_schema):
        return SchemaRegistry([databreach_schema, ransom_schema, patchvuln_schema])

    def shared_retrievals(self, registry):
        return [(retrieval_prompt(schema), reply) for schema in registry for reply in self.SHARED[schema.event_type]]

    def test_shared_sentences_are_listed_once(self, shared_registry):
        backend = ScriptedBackend(script(*self.shared_retrievals(shared_registry)))
        context = build_run_context(shared_registry, backend, exemplar_k=2)
        assert context.planning == planning_head(shared_registry, self.DISTINCT)
        assert context.planning.exemplars == "\n".join(self.DISTINCT)
        assert context.planning.text.endswith(
            "\n\nExample sentences:\n- Thieves stole a customer database.\n"
            "- Attackers struck the bank.\n- A ransom note arrived.\n\n"
        )
        # PatchVulnerability's retrieval did return sentences.
        assert context.warnings == ()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_with_shared_sentences_finds_every_reply(self, tmp_path, shared_registry, patchvuln_schema, workers):
        head = planning_head(shared_registry, self.DISTINCT)
        patched = json.dumps([{"trigger": "patched", "event_type": "PatchVulnerability"}])
        pairs = self.shared_retrievals(shared_registry)
        for text in RUN_TEXTS:
            found = "patched" in text
            pairs.append((planning_prompt(text, head), patched if found else "[]"))
            if found:
                pairs.append((coding_prompt(patchvuln_schema, "patched", text), 'PatchVulnerability(mention="patched")'))
        fixture = tmp_path / "fixture.json"
        fixture.write_text(json.dumps(script(*pairs)), encoding="utf-8")
        argv = extract_argv(tmp_path, shared_registry, RUN_TEXTS)

        assert main([*argv, "--scripted-fixture", str(fixture), "--runs", "1", "--workers", workers]) == 0

        outcomes = trace_outcomes(tmp_path / "preds.trace.jsonl")
        assert [record["outcome"] for record in outcomes] == ["accepted", "no-hypotheses", "accepted"]
        predictions = [json.loads(line) for line in (tmp_path / "preds.jsonl").read_text(encoding="utf-8").splitlines()]
        assert [[event["trigger"] for event in row["events"]] for row in predictions] == [["patched"], [], ["patched"]]


class TestTraceRecords:
    def test_flattening(self, patch_registry, patchvuln_schema, tuesday_text):
        backend = ScriptedBackend(
            script(
                (coding_prompt(patchvuln_schema, "patched", tuesday_text), BROKEN_REPLY),
                (
                    coding_prompt(
                        patchvuln_schema, "patched", tuesday_text, diagnostic=BROKEN_DIAGNOSTIC
                    ),
                    VALID_REPLY,
                ),
            )
        )
        trace = RefinementTrace()
        trace.notes.append("a note")
        refine(
            [hyp("patched")],
            tuesday_text,
            patch_registry,
            PipelineConfig(),
            backend,
            trace,
        )
        records = trace_to_records(trace, "doc-7")
        assert records[0] == {"doc_id": "doc-7", "note": "a note"}
        first_attempt = records[1]
        assert first_attempt["doc_id"] == "doc-7"
        assert first_attempt["trigger"] == "patched"
        assert first_attempt["event_type"] == "PatchVulnerability"
        assert first_attempt["attempt"] == 1
        assert first_attempt["code"] == BROKEN_REPLY
        assert first_attempt["verdict"] is False
        assert first_attempt["diagnostic"] == BROKEN_DIAGNOSTIC
        assert first_attempt["event"]["arguments"] == {"vulnerable_system": [1234]}
        second_attempt = records[2]
        assert second_attempt["verdict"] is True
        assert second_attempt["diagnostic"] is None
        assert records[-1] == {"doc_id": "doc-7", "outcome": "accepted"}

    def test_aborted_document_flattens_with_null_verdict_and_a_skip_note(
        self, patch_registry, patchvuln_schema, tuesday_text
    ):
        # The coding reply is scripted, the judge prompt that verifies it is not.
        backend = ScriptedBackend(
            single_schema_fixture(
                patchvuln_schema,
                tuesday_text,
                TestExtractDocument.EXEMPLAR,
                '[{"trigger": "patched", "event_type": "PatchVulnerability"}]',
                [("patched", VALID_REPLY, "")],
            )
        )
        _, trace = extract(tuesday_text, patch_registry, PipelineConfig(exemplar_k=1, mode="llm"), backend)
        records = trace_to_records(trace, "doc-8")
        assert records[0]["attempt"] == 1
        assert records[0]["code"] == VALID_REPLY
        assert records[0]["event"]["arguments"] == {"time": ["Tuesday"]}
        assert records[0]["verdict"] is None and records[0]["diagnostic"] is None
        assert records[1:] == [
            {"doc_id": "doc-8", "outcome": "aborted"},
            {"doc_id": "doc-8", "note": f"document skipped: {trace.error}"},
        ]
        assert trace.error.startswith("no scripted reply for template 'semantic_judge'")
