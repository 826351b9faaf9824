"""Prompt construction and the four agent operations over a scripted backend."""

import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Recorder, script
from eventagents import (
    BackendError,
    EventSchema,
    ExemplarCache,
    RoleSpec,
    SchemaRegistry,
    ScriptedBackend,
    TriggerHypothesis,
    judge_semantic_compat,
    run_coding_agent,
    run_planning_agent,
    run_retrieval_agent,
)
from eventagents.agents import PlanningError, _parse_planning_reply, extract_code_block
from eventagents.refine import build_run_context
from eventagents.prompts import (
    coding_prompt,
    judge_prompt,
    planning_head,
    planning_prompt,
    planning_retry_prompt,
    retrieval_prompt,
)

EXAMPLE_SENTENCE = (
    "Hackers used malware to breach the company's database last Tuesday, "
    "stealing 10,000 customer records from its New York office."
)


class TestPrompts:
    def test_retrieval_prompt_text(self, databreach_schema):
        request = retrieval_prompt(databreach_schema)
        assert request.template_id == "retrieval"
        assert request.temperature is None
        system, user = request.messages
        assert system.content == "You are a helpful example generator for event extraction."
        assert user.content == (
            "Event type: Databreach\n"
            "Roles: tool, number-of-data, victim, time, place\n"
            "Write one English sentence that contains a clear mention of the "
            "Databreach trigger and populates all roles."
        )

    def test_retrieval_prompt_without_roles(self):
        from eventagents import EventSchema

        request = retrieval_prompt(EventSchema("Protest"))
        assert "Roles: none" in request.messages[1].content
        assert dict(request.bindings)["roles"] == "none"

    def test_planning_prompt_layout(self, ransom_text, databreach_schema, ransom_schema):
        request = planning_prompt(ransom_text, planning_head(SchemaRegistry([databreach_schema, ransom_schema])))
        assert request.template_id == "planning"
        assert request.temperature == 0.0
        user = request.messages[1].content
        assert user.startswith("Event definitions:\n@dataclass\nclass Databreach:")
        assert "\n\nclass Ransom:" not in user  # schemas keep their decorators
        assert "@dataclass\nclass Ransom:" in user
        assert f"Text:\n{ransom_text}\n" in user
        assert "Example sentences:" not in user
        assert user.rstrip().endswith("and a short 'rationale'.")

    def test_registry_renders_its_definitions_once(self, monkeypatch, ransom_text, databreach_schema, ransom_schema):
        from eventagents import schemas

        rendered = []
        render = schemas.render_schema_as_code
        monkeypatch.setattr(schemas, "render_schema_as_code", lambda s: rendered.append(s) or render(s))
        registry = SchemaRegistry([databreach_schema, ransom_schema])
        for text in (ransom_text, "Another document.", ransom_text):
            planning_prompt(text, planning_head(registry))
            planning_retry_prompt(text, planning_head(registry))
        # Two schemas, each rendered once for 3 documents x (planning, retry).
        assert rendered == [databreach_schema, ransom_schema]

    def test_planning_prompt_with_exemplars(self, ransom_text, databreach_schema):
        head = planning_head(SchemaRegistry([databreach_schema]), [EXAMPLE_SENTENCE, "Second."])
        request = planning_prompt(ransom_text, head)
        user = request.messages[1].content
        assert f"Example sentences:\n- {EXAMPLE_SENTENCE}\n- Second.\n" in user
        assert dict(request.bindings)["exemplars"] == f"{EXAMPLE_SENTENCE}\nSecond."

    @pytest.mark.parametrize(
        "text, sentences, front, fingerprint",
        [
            (
                "Hackers demanded a ransom.",
                ("Attackers demanded a ransom.", "The firm paid."),
                "Example sentences:\n- Attackers demanded a ransom.\n- The firm paid.\n\n"
                "Text:\nHackers demanded a ransom.\n\n",
                "e8d4468e2474ef6bc931ea1d6d087049448c5b91da2c9becb7c7bf7ce7053f76",
            ),
            (
                "Hackers demanded a ransom.",
                (),
                "Text:\nHackers demanded a ransom.\n\n",
                "c6d13a0a84c0ad1d87b26102b14e295cff8aba2c2897ef42564f41d10907d712",
            ),
            (
                # Two types that drew the same two sentences in opposite
                # orders: each is listed once, where it first appears, so
                # the prompt and its fingerprint are those of "exemplars".
                "Hackers demanded a ransom.",
                ("Attackers demanded a ransom.", "The firm paid.", "The firm paid.", "Attackers demanded a ransom."),
                "Example sentences:\n- Attackers demanded a ransom.\n- The firm paid.\n\n"
                "Text:\nHackers demanded a ransom.\n\n",
                "e8d4468e2474ef6bc931ea1d6d087049448c5b91da2c9becb7c7bf7ce7053f76",
            ),
            (
                "Des pirates ont exig\u00e9 5 000 \u20ac \u00e0 Z\u00fcrich \u2014 \u201cpayez\u201d \U0001f680.",
                ("Die Firma zahlte 1 \u20ac \U0001f642.", "Ransomware \u00abLockBit\u00bb frappe."),
                "Example sentences:\n- Die Firma zahlte 1 \u20ac \U0001f642.\n"
                "- Ransomware \u00abLockBit\u00bb frappe.\n\n"
                "Text:\nDes pirates ont exig\u00e9 5 000 \u20ac \u00e0 Z\u00fcrich "
                "\u2014 \u201cpayez\u201d \U0001f680.\n\n",
                "07a4dda83b2831d06763e191c38df33f725b1423fbfb3e34c8b2917074de63ff",
            ),
        ],
        ids=["exemplars", "no-exemplars", "cross-type-duplicate", "non-ascii"],
    )
    def test_planning_messages_are_pinned(self, text, sentences, front, fingerprint):
        # Fingerprints hash only the bindings, so the message text is pinned here.
        roles = tuple(RoleSpec(name) for name in ("tool", "price", "victim"))
        head = planning_head(SchemaRegistry([EventSchema("Ransom", roles)]), sentences)
        message = (
            "Event definitions:\n@dataclass\nclass Ransom:\n    mention: str\n    tool: List\n"
            "    price: List\n    victim: List\n\n"
            + front
            + "Return a JSON array of {'trigger': str, 'event_type': str} objects. Each object may also "
            "include 'confidence' (a number between 0 and 1) and a short 'rationale'."
        )
        system = (
            "You are an assistant for event extraction. Given a piece of text and definitions of event "
            "types (as Python dataclasses), produce a JSON array of objects where each object has keys "
            "'trigger' and 'event_type'."
        )
        reminder = (
            "\n\nYour previous reply could not be parsed. Return only a JSON array of "
            "{'trigger': str, 'event_type': str} objects, with no surrounding prose."
        )
        for request, expected in (
            (planning_prompt(text, head), message),
            (planning_retry_prompt(text, head), message + reminder),
        ):
            assert [m.content for m in request.messages] == [system, expected]
            # The binding lists the same sentences as the text.
            listed = [line[2:] for line in front.split("\n") if line.startswith("- ")]
            assert dict(request.bindings)["exemplars"] == "\n".join(listed)
            assert request.fingerprint() == f"{request.template_id}:{fingerprint}"
            assert expected.startswith(request.head) and expected[len(request.head) :].startswith("Text:\n")

    def test_planning_retry_adds_reminder_and_new_template(self, ransom_text, databreach_schema):
        registry = SchemaRegistry([databreach_schema])
        first = planning_prompt(ransom_text, planning_head(registry))
        retry = planning_retry_prompt(ransom_text, planning_head(registry))
        assert retry.template_id == "planning_retry"
        assert retry.fingerprint() != first.fingerprint()
        assert retry.messages[1].content.startswith(first.messages[1].content)
        assert "could not be parsed" in retry.messages[1].content

    def test_coding_prompt_plain(self, patchvuln_schema, tuesday_text):
        request = coding_prompt(patchvuln_schema, "patched", tuesday_text)
        assert request.template_id == "coding"
        assert request.temperature == 0.0
        user = request.messages[1].content
        assert "Event definition:\n@dataclass\nclass PatchVulnerability:" in user
        assert 'Trigger: "patched"' in user
        assert f'Text: "{tuesday_text}"' in user
        assert 'PatchVulnerability(mention="patched", ...)' in user
        assert "Rationale:" not in user
        assert "previous attempt" not in user

    def test_coding_prompt_with_rationale_and_diagnostic(self, patchvuln_schema, tuesday_text):
        diagnostic = "[T2] value 1234 is not of type str (at vulnerable_system)"
        request = coding_prompt(
            patchvuln_schema, "patched", tuesday_text,
            rationale="the verb names the fix", diagnostic=diagnostic,
        )
        user = request.messages[1].content
        assert "Rationale: the verb names the fix" in user
        assert f"failed verification with this diagnostic:\n{diagnostic}\n" in user
        assert dict(request.bindings)["diagnostic"] == diagnostic

    def test_coding_fingerprint_distinguishes_patch_rounds(self, patchvuln_schema, tuesday_text):
        plain = coding_prompt(patchvuln_schema, "patched", tuesday_text)
        patched = coding_prompt(patchvuln_schema, "patched", tuesday_text, diagnostic="[T1] x (at y)")
        assert plain.fingerprint() != patched.fingerprint()

    def test_judge_prompt_text(self, ransom_text):
        request = judge_prompt("demanded", "Ransom", ransom_text)
        assert request.template_id == "semantic_judge"
        assert request.messages[0].content == "You are a verifier for event extraction."
        assert request.messages[1].content == (
            f'Text: "{ransom_text}"\n\n'
            'In this text, is "demanded" semantically compatible with an event '
            "of type Ransom? Answer yes or no."
        )


class TestExtractCodeBlock:
    def test_plain_reply_is_stripped(self):
        assert extract_code_block("  A(mention='t')  \n") == "A(mention='t')"

    def test_fenced_reply(self):
        assert extract_code_block("Sure!\n```python\nA(mention='t')\n```\nDone.") == "A(mention='t')"

    def test_bare_fence(self):
        assert extract_code_block("```\nA(mention='t')\n```") == "A(mention='t')"

    def test_first_fence_wins(self):
        reply = "```\nfirst\n```\nand\n```\nsecond\n```"
        assert extract_code_block(reply) == "first"


class TestRetrievalAgent:
    def test_collects_distinct_sentences(self, databreach_schema):
        request = retrieval_prompt(databreach_schema)
        backend = Recorder(ScriptedBackend({request.fingerprint(): [EXAMPLE_SENTENCE, "Another one.", EXAMPLE_SENTENCE]}))
        assert run_retrieval_agent(backend, databreach_schema, k=3) == (EXAMPLE_SENTENCE, "Another one.")
        assert len(backend.calls) == 3

    def test_blank_replies_dropped(self, databreach_schema):
        request = retrieval_prompt(databreach_schema)
        backend = ScriptedBackend({request.fingerprint(): ["", "  \n", EXAMPLE_SENTENCE]})
        assert run_retrieval_agent(backend, databreach_schema, k=3) == (EXAMPLE_SENTENCE,)

    def test_all_blank_yields_no_sentences(self, databreach_schema):
        request = retrieval_prompt(databreach_schema)
        backend = Recorder(ScriptedBackend({request.fingerprint(): ""}))
        assert run_retrieval_agent(backend, databreach_schema, k=2) == ()
        assert len(backend.calls) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_context_warns_once_per_empty_schema_in_registry_order(self, databreach_schema, ransom_schema, workers):
        registry = SchemaRegistry([ransom_schema, databreach_schema])
        backend = ScriptedBackend(script((retrieval_prompt(ransom_schema), ""), (retrieval_prompt(databreach_schema), " ")))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            context = build_run_context(registry, backend, exemplar_k=2, map=pool.map)
        assert context.warnings == (
            "retrieval produced no usable sentences for Ransom",
            "retrieval produced no usable sentences for Databreach",
        )
        assert context.planning == planning_head(registry, ())

    def test_k_must_be_positive(self, databreach_schema):
        with pytest.raises(ValueError):
            run_retrieval_agent(ScriptedBackend({}), databreach_schema, k=0)


class TestExemplarCache:
    def test_factory_runs_once_per_event_type(self, databreach_schema):
        cache = ExemplarCache()
        calls = []

        def factory():
            calls.append(1)
            return (EXAMPLE_SENTENCE,)

        first = cache.get_or_create(databreach_schema, factory)
        second = cache.get_or_create(databreach_schema, factory)
        assert first is second
        assert calls == [1]

    def test_empty_result_is_kept(self, databreach_schema):
        cache = ExemplarCache()
        calls = []

        def factory():
            calls.append(1)
            return ()

        assert cache.get_or_create(databreach_schema, factory) == ()
        assert cache.get_or_create(databreach_schema, factory) == ()
        assert calls == [1]

    def test_different_event_types_fill_concurrently(self, databreach_schema, ransom_schema):
        # Each factory waits for the other at the barrier, which only
        # works if neither lookup blocks the other.
        cache = ExemplarCache()
        barrier = threading.Barrier(2, timeout=5)
        results = {}

        def lookup(schema):
            def factory():
                barrier.wait()
                return (schema.event_type,)

            results[schema.event_type] = cache.get_or_create(schema, factory)

        threads = [threading.Thread(target=lookup, args=(s,)) for s in (databreach_schema, ransom_schema)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert results == {
            "Databreach": ("Databreach",),
            "Ransom": ("Ransom",),
        }

    def test_failed_factory_is_not_memoized(self, databreach_schema):
        cache = ExemplarCache()

        def failing():
            raise BackendError("retrieval down")

        with pytest.raises(BackendError, match="retrieval down"):
            cache.get_or_create(databreach_schema, failing)
        recovered = (EXAMPLE_SENTENCE,)
        assert cache.get_or_create(databreach_schema, lambda: recovered) is recovered


def planning_reply(*items):
    return json.dumps(list(items))


class TestPlanningAgent:
    def registry(self, databreach_schema, ransom_schema):
        return SchemaRegistry([databreach_schema, ransom_schema])

    def test_worked_reply(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = (
            '[{"trigger": "demanded", "event_type": "Ransom"},'
            ' {"trigger": "infiltrating", "event_type": "Databreach"}]'
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [(h.trigger, h.event_type) for h in hypotheses] == [
            ("demanded", "Ransom"),
            ("infiltrating", "Databreach"),
        ]
        assert hypotheses[0].confidence == 1.0
        assert hypotheses[1].confidence == 0.5
        # At equal confidence the earlier mention in the text comes first.
        tied = planning_reply(
            {"trigger": "infiltrating", "event_type": "Databreach", "confidence": 0.5},
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.5},
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), tied)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert ransom_text.index("demanded") < ransom_text.index("infiltrating")
        assert [h.trigger for h in hypotheses] == ["demanded", "infiltrating"]

    def test_explicit_confidence_and_sorting(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.4},
            {"trigger": "infiltrating", "event_type": "Databreach", "confidence": 0.8},
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [h.trigger for h in hypotheses] == ["infiltrating", "demanded"]

    def test_sort_is_stable_on_ties(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.7},
            {"trigger": "ransom", "event_type": "Ransom", "confidence": 0.7},
            {"trigger": "infiltrating", "event_type": "Databreach", "confidence": 0.7},
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [h.trigger for h in hypotheses] == ["demanded", "ransom", "infiltrating"]

    def test_truncates_to_hypothesis_k(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            *[{"trigger": t, "event_type": "Ransom"} for t in ("demanded", "ransom", "servers", "hackers")]
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry), hypothesis_k=2)
        assert len(hypotheses) == 2
        assert [h.trigger for h in hypotheses] == ["demanded", "ransom"]

    def test_confidence_clamped(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 3.5},
            {"trigger": "ransom", "event_type": "Ransom", "confidence": -1},
            {"trigger": "bank", "event_type": "Ransom", "confidence": 10**400},
        )
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [(h.trigger, h.confidence) for h in hypotheses] == [
            ("demanded", 1.0),
            ("bank", 1.0),
            ("ransom", 0.0),
        ]

    def test_missing_and_null_confidences_get_the_rank_default(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.2},
            {"trigger": "ransom", "event_type": "Ransom"},
            {"trigger": "servers", "event_type": "Databreach", "confidence": None},
            {"trigger": "infiltrating", "event_type": "Databreach", "confidence": 0.9},
            {"trigger": "hackers", "event_type": "Databreach"},
        )
        backend = Recorder(ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply))))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry), hypothesis_k=5)
        # 1 - (rank-1)/n over all five entries, whichever are explicit.
        assert [(h.trigger, h.confidence) for h in hypotheses] == [
            ("infiltrating", 0.9),
            ("ransom", 0.8),
            ("servers", 0.6),
            ("demanded", 0.2),
            ("hackers", 1.0 - 4 / 5),
        ]
        assert len(backend.calls) == 1

    def test_offset_is_case_insensitive_and_optional(self, databreach_schema, ransom_schema):
        # "demanded" is found at 0 only when case is ignored, "MORE" at 9;
        # "paid" is not in the text, so it comes last.
        text = "DEMANDED more."
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(
            {"trigger": "paid", "event_type": "Ransom", "confidence": 0.5},
            {"trigger": "MORE", "event_type": "Ransom", "confidence": 0.5},
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.5},
        )
        backend = ScriptedBackend(script((planning_prompt(text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, text, planning_head(registry))
        assert [h.trigger for h in hypotheses] == ["demanded", "MORE", "paid"]

    # One case per rule of the best-first order, each in a reply whose
    # order, and whose trigger text, would put the other entry first.
    BEST_FIRST = {
        "higher-confidence": (
            [("demanded", "Ransom", 0.3), ("servers", "Databreach", 0.8)],
            [("servers", "Databreach"), ("demanded", "Ransom")],
        ),
        "earlier-offset": (
            [("bank", "Ransom", 0.5), ("demanded", "Ransom", 0.5)],
            [("demanded", "Ransom"), ("bank", "Ransom")],
        ),
        "not-found-last": (
            [("aaa", "Ransom", 0.5), ("servers", "Databreach", 0.5)],
            [("servers", "Databreach"), ("aaa", "Ransom")],
        ),
        "trigger-text": (
            [("demanded a", "Ransom", 0.5), ("demanded", "Ransom", 0.5)],
            [("demanded", "Ransom"), ("demanded a", "Ransom")],
        ),
        "reply-order": (
            [("demanded", "Ransom", 0.5), ("demanded", "Databreach", 0.5)],
            [("demanded", "Ransom"), ("demanded", "Databreach")],
        ),
    }

    @pytest.mark.parametrize("entries, expected", BEST_FIRST.values(), ids=BEST_FIRST)
    def test_best_first_order(self, ransom_text, databreach_schema, ransom_schema, entries, expected):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = planning_reply(*[{"trigger": t, "event_type": e, "confidence": c} for t, e, c in entries])
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [(h.trigger, h.event_type) for h in hypotheses] == expected

    def test_fenced_reply_accepted(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        reply = '```json\n[{"trigger": "demanded", "event_type": "Ransom"}]\n```'
        backend = ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), reply)))
        assert len(run_planning_agent(backend, ransom_text, planning_head(registry))) == 1

    def test_empty_array_is_a_valid_answer(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        backend = Recorder(ScriptedBackend(script((planning_prompt(ransom_text, planning_head(registry)), "[]"))))
        assert run_planning_agent(backend, ransom_text, planning_head(registry)) == []
        assert len(backend.calls) == 1

    @pytest.mark.parametrize(
        "bad_reply",
        [
            "no json at all",
            '{"trigger": "demanded"}',
            '["demanded"]',
            '[{"trigger": "", "event_type": "Ransom"}]',
            '[{"trigger": "demanded"}]',
            '[{"trigger": "demanded", "event_type": "Ransom", "confidence": "high"}]',
            '[{"trigger": "demanded", "event_type": "Ransom", "confidence": true}]',
            '[{"trigger": "demanded", "event_type": "Ransom", "rationale": 4}]',
            '[{"trigger": "demanded\\ud800", "event_type": "Ransom"}]',
            '[{"trigger": "demanded", "event_type": "Ransom\\udfff"}]',
            '[{"trigger": "demanded", "event_type": "Ransom", "rationale": "\\ud800"}]',
            pytest.param(
                '[{"trigger": "demanded", "event_type": "Ransom", "confidence": 1%s}]' % ("0" * 5000),
                id="integer-over-digit-limit",
            ),
            pytest.param("[" * 100000, id="deep-nesting"),
        ],
    )
    def test_malformed_reply_triggers_single_retry(
        self, bad_reply, ransom_text, databreach_schema, ransom_schema
    ):
        registry = self.registry(databreach_schema, ransom_schema)
        good = planning_reply({"trigger": "demanded", "event_type": "Ransom"})
        backend = Recorder(ScriptedBackend(
            script(
                (planning_prompt(ransom_text, planning_head(registry)), bad_reply),
                (planning_retry_prompt(ransom_text, planning_head(registry)), good),
            )
        ))
        hypotheses = run_planning_agent(backend, ransom_text, planning_head(registry))
        assert [h.trigger for h in hypotheses] == ["demanded"]
        assert [c.template_id for c in backend.calls] == ["planning", "planning_retry"]

    def test_two_malformed_replies_fail(self, ransom_text, databreach_schema, ransom_schema):
        registry = self.registry(databreach_schema, ransom_schema)
        backend = Recorder(ScriptedBackend(
            script(
                (planning_prompt(ransom_text, planning_head(registry)), "junk"),
                (planning_retry_prompt(ransom_text, planning_head(registry)), "more junk"),
            )
        ))
        with pytest.raises(PlanningError, match="not a JSON array"):
            run_planning_agent(backend, ransom_text, planning_head(registry))
        assert len(backend.calls) == 2

    def test_input_validation(self, databreach_schema):
        head = planning_head(SchemaRegistry([databreach_schema]))
        with pytest.raises(ValueError):
            run_planning_agent(ScriptedBackend({}), "", head)
        with pytest.raises(ValueError):
            run_planning_agent(ScriptedBackend({}), "text", head, hypothesis_k=0)


class TestCodingAgent:
    def hypothesis(self):
        return TriggerHypothesis("patched", "PatchVulnerability", 0.9, rationale="names the fix")

    def test_returns_code_text(self, patchvuln_schema, tuesday_text):
        hypothesis = self.hypothesis()
        request = coding_prompt(
            patchvuln_schema, "patched", tuesday_text, rationale="names the fix"
        )
        reply = '```python\nPatchVulnerability(mention="patched", time=["Tuesday"])\n```'
        backend = ScriptedBackend(script((request, reply)))
        code = run_coding_agent(backend, hypothesis, patchvuln_schema, tuesday_text)
        assert code == 'PatchVulnerability(mention="patched", time=["Tuesday"])'

    def test_diagnostic_is_forwarded_verbatim(self, patchvuln_schema, tuesday_text):
        hypothesis = self.hypothesis()
        diagnostic = "[T2] value 1234 is not of type str (at vulnerable_system)"
        request = coding_prompt(
            patchvuln_schema, "patched", tuesday_text,
            rationale="names the fix", diagnostic=diagnostic,
        )
        backend = Recorder(ScriptedBackend(script((request, '{"event_type": "PatchVulnerability", "trigger": "patched", "arguments": {}}'))))
        run_coding_agent(backend, hypothesis, patchvuln_schema, tuesday_text, diagnostic=diagnostic)
        assert diagnostic in backend.calls[0].messages[1].content

    def test_empty_reply_returns_empty_code(self, patchvuln_schema, tuesday_text):
        hypothesis = self.hypothesis()
        request = coding_prompt(
            patchvuln_schema, "patched", tuesday_text, rationale="names the fix"
        )
        backend = ScriptedBackend(script((request, "   \n")))
        assert run_coding_agent(backend, hypothesis, patchvuln_schema, tuesday_text) == ""


class TestSemanticJudge:
    def judge(self, reply, trigger="demanded", event_type="Ransom", text="Hackers demanded money."):
        backend = ScriptedBackend(script((judge_prompt(trigger, event_type, text), reply)))
        return judge_semantic_compat(backend, trigger, event_type, text)

    def test_yes(self):
        assert self.judge("Yes.").compatible
        assert self.judge("yes, clearly").compatible

    def test_no(self):
        outcome = self.judge("No, that is a payment.")
        assert not outcome.compatible
        assert outcome.warning is None

    def test_unclear_counts_as_no_with_warning(self):
        outcome = self.judge("It depends on context.")
        assert not outcome.compatible
        assert outcome.warning.startswith("unparseable judge reply:")


class TestHypothesisValidation:
    @pytest.mark.parametrize(
        "trigger, event_type, confidence, rationale, message",
        [
            ("", "Ransom", 0.5, "", "hypothesis trigger must be a non-empty string"),
            (None, "Ransom", 0.5, "", "hypothesis trigger must be a non-empty string"),
            ("demanded", "", 0.5, "", "hypothesis event_type must be a non-empty string"),
            ("demanded", ["Ransom"], 0.5, "", "hypothesis event_type must be a non-empty string"),
            ("demanded", "Ransom", 0.5, 4, "hypothesis rationale must be a string"),
            ("demanded", "Ransom", 1.5, "", "confidence 1.5 outside [0, 1]"),
            ("demanded", "Ransom", 0.5, "a\udc00", "string 'a\\udc00' holds a lone surrogate, which UTF-8 cannot encode"),
        ],
    )
    def test_bounds(self, trigger, event_type, confidence, rationale, message):
        with pytest.raises(ValueError) as excinfo:
            TriggerHypothesis(trigger, event_type, confidence, rationale)
        assert str(excinfo.value) == message


# One planning entry's fields, well and badly typed, surrogates included.
_FIELD = st.one_of(
    st.text(max_size=3), st.just("t\ud800"), st.none(), st.integers(), st.lists(st.text(max_size=1), max_size=1)
)


@st.composite
def _planning_entries(draw):
    entry = {key: draw(_FIELD) for key in ("trigger", "event_type", "rationale") if draw(st.booleans())}
    if draw(st.booleans()):
        entry["confidence"] = draw(st.none() | st.floats(0, 1))
    return entry


class TestPlanningReplyAgreement:
    @settings(deadline=None, max_examples=300)
    @given(_planning_entries())
    def test_an_entry_is_kept_exactly_when_the_class_accepts_it(self, drawn):
        # The reader sees the entry as JSON decodes it: an escaped surrogate
        # pair becomes one character, a lone surrogate stays.
        entry = json.loads(json.dumps(drawn))
        trigger, event_type, rationale = entry.get("trigger"), entry.get("event_type"), entry.get("rationale", "")
        confidence = entry.get("confidence")
        try:
            expected = [TriggerHypothesis(trigger, event_type, 1.0 if confidence is None else confidence, rationale)]
        except ValueError:
            expected = None
        assert _parse_planning_reply(json.dumps([drawn])) == expected
