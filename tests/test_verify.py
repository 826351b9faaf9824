"""The three-stage verifier: check behavior, ordering, and the verdict."""

import importlib
import json
import random

import pytest

from eventagents import (
    CodeObject,
    Diagnostic,
    EventObject,
    EventSchema,
    JudgeResult,
    Multiplicity,
    ParseFailure,
    RoleSpec,
    ValueType,
    VerificationResult,
    check_semantic,
    check_structure,
    check_types,
    parse_event_code,
    verify,
)
from eventagents.verify import contains_token_subsequence, tokenize
from oracles import brute_force_type_check, random_event_for_schema, random_schema

# The package re-exports the verify() function, which shadows the submodule
# as a package attribute; go through importlib for monkeypatching.
verify_module = importlib.import_module("eventagents.verify")


def as_code(event: EventObject, **kwargs) -> CodeObject:
    return CodeObject(raw_source="<built in test>", parsed=event, **kwargs)


class _FakeJudge:
    """Semantic judge that gives one fixed answer and records each question."""

    def __init__(self, compatible):
        self.compatible = compatible
        self.questions = []

    def __call__(self, trigger, event_type):
        self.questions.append((trigger, event_type))
        return JudgeResult(self.compatible)


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Hackers breached the company's database!") == [
            "hackers", "breached", "the", "company", "s", "database",
        ]

    def test_numbers_and_underscores(self):
        assert tokenize("10,000 records via vulnerable_system") == [
            "10", "000", "records", "via", "vulnerable", "system",
        ]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("  ... !!") == []


class TestTokenSubsequence:
    def test_contiguous_run_required(self):
        haystack = ["a", "b", "c", "d"]
        assert contains_token_subsequence(haystack, ["b", "c"])
        assert not contains_token_subsequence(haystack, ["b", "d"])
        assert not contains_token_subsequence(haystack, ["d", "a"])

    def test_empty_needle_is_absent(self):
        assert not contains_token_subsequence(["a"], [])

    def test_needle_longer_than_haystack(self):
        assert not contains_token_subsequence(["a"], ["a", "b"])


class TestSemanticCheck:
    TEXT = "Hackers demanded a million dollar ransom after infiltrating the bank's servers on Friday."

    def test_present_trigger_passes(self):
        event = EventObject("Ransom", "demanded", {})
        assert check_semantic(as_code(event), self.TEXT) is None

    def test_case_insensitive(self):
        event = EventObject("Ransom", "DEMANDED", {})
        assert check_semantic(as_code(event), self.TEXT) is None

    def test_multiword_trigger_contiguous(self):
        event = EventObject("Ransom", "million dollar ransom", {})
        assert check_semantic(as_code(event), self.TEXT) is None

    def test_trigger_spanning_the_whole_text_passes(self):
        event = EventObject("Ransom", "Ransom demanded!", {})
        assert check_semantic(as_code(event), "ransom demanded") is None

    def test_multiword_trigger_gap_fails(self):
        event = EventObject("Ransom", "million ransom", {})
        diagnostic = check_semantic(as_code(event), self.TEXT)
        assert diagnostic is not None
        assert diagnostic.failed_check == "T1"
        assert diagnostic.message == "trigger 'million ransom' not found in text"
        assert diagnostic.locus == "million ransom"

    def test_absent_trigger_fails(self):
        event = EventObject("Ransom", "paid", {})
        diagnostic = check_semantic(as_code(event), self.TEXT)
        assert diagnostic.as_line() == "[T1] trigger 'paid' not found in text (at paid)"

    def test_empty_trigger_fails_with_placeholder_locus(self):
        diagnostic = check_semantic(as_code(EventObject("Ransom", "", {})), self.TEXT)
        assert diagnostic is not None
        assert diagnostic.locus == "trigger"

    def test_punctuation_boundary_is_token_based(self):
        event = EventObject("Ransom", "bank", {})
        assert check_semantic(as_code(event), self.TEXT) is None

    def test_judge_is_asked_once_with_trigger_and_type(self):
        judge = _FakeJudge(True)
        assert check_semantic(as_code(EventObject("Ransom", "demanded", {})), self.TEXT, judge) is None
        assert judge.questions == [("demanded", "Ransom")]

    def test_judge_rejection(self):
        judge = _FakeJudge(False)
        diagnostic = check_semantic(as_code(EventObject("Databreach", "demanded", {})), self.TEXT, judge)
        assert diagnostic.as_line() == (
            "[T1] trigger 'demanded' judged not semantically compatible with event type 'Databreach'"
            " (at demanded)"
        )
        assert judge.questions == [("demanded", "Databreach")]

    def test_judge_skipped_when_trigger_absent(self):
        judge = _FakeJudge(True)
        diagnostic = check_semantic(as_code(EventObject("Ransom", "paid", {})), self.TEXT, judge)
        assert diagnostic.as_line() == "[T1] trigger 'paid' not found in text (at paid)"
        assert judge.questions == []

    def test_unparsed_code_is_a_usage_error(self):
        broken = CodeObject("x(", failure=ParseFailure("boom", 1, 1))
        with pytest.raises(ValueError):
            check_semantic(broken, self.TEXT)


class TestTypeCheck:
    SCHEMA = EventSchema(
        "PatchVulnerability",
        (
            RoleSpec("patch"),
            RoleSpec("cve"),
            RoleSpec("time"),
            RoleSpec("vulnerable_system"),
        ),
    )

    def test_conforming_event_passes(self):
        event = EventObject(
            "PatchVulnerability",
            "patched",
            {"time": ["Tuesday"], "vulnerable_system": ["web server"]},
        )
        assert check_types(as_code(event), self.SCHEMA) is None

    def test_worked_integer_in_string_role(self):
        event = EventObject("PatchVulnerability", "patched", {"vulnerable_system": [1234]})
        diagnostic = check_types(as_code(event), self.SCHEMA)
        assert diagnostic.as_line() == "[T2] value 1234 is not of type str (at vulnerable_system)"

    def test_event_type_mismatch(self):
        event = EventObject("Databreach", "patched", {})
        diagnostic = check_types(as_code(event), self.SCHEMA)
        assert diagnostic.message == "event type 'Databreach' does not match schema 'PatchVulnerability'"
        assert diagnostic.locus == "event_type"

    def test_unknown_role(self):
        event = EventObject("PatchVulnerability", "patched", {"victim": ["bank"]})
        diagnostic = check_types(as_code(event), self.SCHEMA)
        assert diagnostic.message == "role 'victim' is not defined by event type 'PatchVulnerability'"
        assert diagnostic.locus == "victim"

    def test_string_value_message_quotes_json(self):
        schema = EventSchema("A", (RoleSpec("n", ValueType.INTEGER),))
        event = EventObject("A", "t", {"n": ["5"]})
        diagnostic = check_types(as_code(event), schema)
        assert diagnostic.message == 'value "5" is not of type int'

    @pytest.mark.parametrize(
        "value_type, good, bad",
        [
            (ValueType.STRING, "x", 1),
            (ValueType.STRING, "x", True),
            (ValueType.INTEGER, 3, 2.5),
            (ValueType.INTEGER, -7, True),
            (ValueType.NUMBER, 2.5, "2.5"),
            (ValueType.NUMBER, 3, True),
            (ValueType.BOOLEAN, True, 1),
            (ValueType.BOOLEAN, False, "yes"),
        ],
    )
    def test_type_predicates(self, value_type, good, bad):
        schema = EventSchema("A", (RoleSpec("x", value_type),))
        assert check_types(as_code(EventObject("A", "t", {"x": [good]})), schema) is None
        assert check_types(as_code(EventObject("A", "t", {"x": [bad]})), schema) is not None

    def test_required_scalar_multiplicity(self):
        schema = EventSchema("A", (RoleSpec("x", multiplicity=Multiplicity.REQUIRED_SCALAR),))
        ok = EventObject("A", "t", {"x": ["v"]})
        assert check_types(as_code(ok), schema) is None
        two = EventObject("A", "t", {"x": ["v", "w"]})
        assert check_types(as_code(two), schema).message == "role 'x' expects exactly one value, got 2"
        empty = EventObject("A", "t", {"x": []})
        assert check_types(as_code(empty), schema).message == "role 'x' expects exactly one value, got 0"
        missing = EventObject("A", "t", {})
        assert check_types(as_code(missing), schema).message == "role 'x' expects exactly one value, got 0"

    def test_optional_scalar_multiplicity(self):
        schema = EventSchema("A", (RoleSpec("x", multiplicity=Multiplicity.OPTIONAL_SCALAR),))
        for arguments in ({}, {"x": []}, {"x": ["v"]}):
            assert check_types(as_code(EventObject("A", "t", dict(arguments))), schema) is None
        two = EventObject("A", "t", {"x": ["v", "w"]})
        assert check_types(as_code(two), schema).message == "role 'x' expects at most one value, got 2"

    def test_first_failure_follows_stored_order(self):
        schema = EventSchema("A", (RoleSpec("x", ValueType.INTEGER), RoleSpec("y", ValueType.INTEGER)))
        event = EventObject("A", "t", {"y": ["bad"], "x": ["worse"]})
        assert check_types(as_code(event), schema).locus == "y"

    def test_value_error_beats_multiplicity_within_a_role(self):
        schema = EventSchema("A", (RoleSpec("x", ValueType.INTEGER, Multiplicity.REQUIRED_SCALAR),))
        event = EventObject("A", "t", {"x": [1, "bad", 3]})
        diagnostic = check_types(as_code(event), schema)
        assert diagnostic.message == 'value "bad" is not of type int'

    def test_missing_required_reported_after_stored_arguments(self):
        schema = EventSchema(
            "A",
            (
                RoleSpec("x", multiplicity=Multiplicity.REQUIRED_SCALAR),
                RoleSpec("y", ValueType.INTEGER),
            ),
        )
        event = EventObject("A", "t", {"y": ["bad"]})
        assert check_types(as_code(event), schema).locus == "y"

    def test_missing_required_declaration_order(self):
        schema = EventSchema(
            "A",
            (
                RoleSpec("b", multiplicity=Multiplicity.REQUIRED_SCALAR),
                RoleSpec("a", multiplicity=Multiplicity.REQUIRED_SCALAR),
            ),
        )
        diagnostic = check_types(as_code(EventObject("A", "t", {})), schema)
        assert diagnostic.locus == "b"

    def test_agrees_with_brute_force_oracle(self):
        rng = random.Random(41)
        for _ in range(300):
            schema = random_schema(rng)
            event = random_event_for_schema(rng, schema)
            diagnostic = check_types(as_code(event), schema)
            expected_ok, expected_locus = brute_force_type_check(event, schema)
            assert (diagnostic is None) == expected_ok, (event, schema)
            if diagnostic is not None:
                assert diagnostic.locus == expected_locus, (event, schema)


class TestStructureCheck:
    def test_parse_failure_becomes_t3(self):
        code = parse_event_code("Databreach(mention=")
        diagnostic = check_structure(code)
        assert diagnostic.failed_check == "T3"
        assert diagnostic.locus == "source"
        assert diagnostic.message == code.failure.describe()

    def test_extra_fields_fail(self):
        code = parse_event_code(
            '{"event_type": "A", "trigger": "t", "arguments": {}, "confidence": 0.9}'
        )
        diagnostic = check_structure(code)
        assert diagnostic.message == "unexpected field 'confidence'"
        assert diagnostic.locus == "confidence"

    def test_attempts_no_serialization(self, monkeypatch):
        # EventObject refuses what JSON cannot carry (test_events.py), so
        # T3 has nothing left to probe by writing the event out.
        def refuse(*args, **kwargs):
            raise AssertionError("check_structure serialized the event")

        monkeypatch.setattr(json, "dumps", refuse)
        assert check_structure(as_code(EventObject("A", "t", {"x": ["v", 1.5]}))) is None

    def test_clean_object_passes(self):
        assert check_structure(as_code(EventObject("A", "t", {"x": ["v"]}))) is None


class TestVerify:
    TEXT = "On Tuesday the company patched a vulnerability in its web server."
    SCHEMA = TestTypeCheck.SCHEMA

    def test_pass_end_to_end(self):
        code = parse_event_code('PatchVulnerability(mention="patched", time=["Tuesday"])')
        result = verify(code, self.TEXT, self.SCHEMA)
        assert result == VerificationResult(None)

    def test_parse_failure_short_circuits_to_t3(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("semantic check must not run on unparsed code")

        monkeypatch.setattr(verify_module, "check_semantic", explode)
        monkeypatch.setattr(verify_module, "check_types", explode)
        code = parse_event_code("PatchVulnerability(")
        result = verify(code, self.TEXT, self.SCHEMA)
        assert not result.verdict
        assert result.diagnostic.failed_check == "T3"
        assert result.diagnostic.locus == "source"

    def test_t1_failure_stops_before_t2_and_t3(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("later checks must not run after a T1 failure")

        monkeypatch.setattr(verify_module, "check_types", explode)
        monkeypatch.setattr(verify_module, "check_structure", explode)
        code = parse_event_code('PatchVulnerability(mention="rebooted")')
        result = verify(code, self.TEXT, self.SCHEMA)
        assert result.diagnostic.failed_check == "T1"

    def test_t2_failure_reported_with_locus(self):
        code = parse_event_code('PatchVulnerability(mention="patched", vulnerable_system=[1234])')
        result = verify(code, self.TEXT, self.SCHEMA)
        assert not result.verdict
        assert result.diagnostic.as_line() == (
            "[T2] value 1234 is not of type str (at vulnerable_system)"
        )

    def test_t3_failure_after_t1_t2_pass(self):
        code = parse_event_code(
            json.dumps(
                {
                    "event_type": "PatchVulnerability",
                    "trigger": "patched",
                    "arguments": {"time": ["Tuesday"]},
                    "note": "extra",
                }
            )
        )
        result = verify(code, self.TEXT, self.SCHEMA)
        assert result.diagnostic.failed_check == "T3"
        assert result.diagnostic.message == "unexpected field 'note'"

    def test_judge_rejection_stops_before_t2(self):
        code = parse_event_code('PatchVulnerability(mention="patched", vulnerable_system=[1234])')
        result = verify(code, self.TEXT, self.SCHEMA, judge=_FakeJudge(False))
        assert result.diagnostic.as_line() == (
            "[T1] trigger 'patched' judged not semantically compatible with event type "
            "'PatchVulnerability' (at patched)"
        )


class TestResultShapes:
    def test_diagnostic_line_format(self):
        line = Diagnostic("T2", "value 1234 is not of type str", "vulnerable_system").as_line()
        assert line == "[T2] value 1234 is not of type str (at vulnerable_system)"

    def test_diagnostic_check_name_validated(self):
        with pytest.raises(ValueError):
            Diagnostic("T4", "message", "locus")

    def test_verdict_follows_the_diagnostic(self):
        diagnostic = Diagnostic("T1", "m", "l")
        assert VerificationResult().verdict is True
        assert VerificationResult(diagnostic).verdict is False
        assert VerificationResult(diagnostic) == VerificationResult(Diagnostic("T1", "m", "l"))
        assert VerificationResult(diagnostic) != VerificationResult()

    def test_verdict_is_not_a_stored_field(self):
        # Only the diagnostic is stored, so no result can disagree with it.
        assert list(vars(VerificationResult())) == ["diagnostic"]
        with pytest.raises(AttributeError):
            VerificationResult().verdict = False
