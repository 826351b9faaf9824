"""Parsing both code surface forms into events, and serializing back."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventagents import (
    CodeObject,
    EventObject,
    EventSchema,
    ParseFailure,
    RoleSpec,
    SchemaRegistry,
    order_arguments,
    parse_event_code,
    serialize_event,
)
from oracles import random_event, random_surface_pair


def parse_ok(source, **kwargs):
    code = parse_event_code(source, **kwargs)
    assert code.failure is None, code.failure and code.failure.describe()
    return code.parsed


def parse_fail(source, **kwargs):
    code = parse_event_code(source, **kwargs)
    assert code.parsed is None
    return code.failure


class TestEventObject:
    def test_validates_shapes(self):
        EventObject("A", "t", {"x": ["v", 1, 2.5, True]})
        EventObject("A", "", {})
        with pytest.raises(ValueError):
            EventObject("", "t", {})
        with pytest.raises(ValueError):
            EventObject("A", None, {})
        with pytest.raises(ValueError):
            EventObject("A", "t", {"x": "not-a-list"})
        with pytest.raises(ValueError):
            EventObject("A", "t", {"x": [None]})
        with pytest.raises(ValueError):
            EventObject("A", "t", {"": ["v"]})
        with pytest.raises(ValueError, match="^arguments must map role names to value lists$"):
            EventObject("A", "t", [("x", ["v"])])

    def test_code_object_requires_exactly_one_outcome(self):
        failure = ParseFailure("boom", 1, 1)
        CodeObject("src", parsed=EventObject("A", "t", {}))
        CodeObject("src", failure=failure)
        with pytest.raises(ValueError):
            CodeObject("src")
        with pytest.raises(ValueError):
            CodeObject("src", parsed=EventObject("A", "t", {}), failure=failure)

    def test_parse_failure_describe(self):
        assert ParseFailure("bad token", 3, 7).describe() == "line 3, col 7: bad token"


class TestConstructorForm:
    def test_basic_call(self):
        event = parse_ok('Databreach(mention="breach", tool=["malware"], victim=["company"])')
        assert event == EventObject(
            "Databreach", "breach", {"tool": ["malware"], "victim": ["company"]}
        )

    def test_scalars_become_singleton_lists(self):
        event = parse_ok('Ransom(mention="demanded", price=1000000, paid=True, rate=2.5)')
        assert event.arguments == {"price": [1000000], "paid": [True], "rate": [2.5]}

    def test_mention_position_is_free(self):
        event = parse_ok('A(x=["v"], mention="t")')
        assert event.trigger == "t"
        assert event.arguments == {"x": ["v"]}

    def test_hyphenated_keyword(self):
        event = parse_ok('Databreach(mention="breach", number-of-data=["10,000"])')
        assert event.arguments == {"number-of-data": ["10,000"]}

    def test_no_arguments(self):
        assert parse_ok('A(mention="t")') == EventObject("A", "t", {})

    def test_empty_list_and_trailing_commas(self):
        event = parse_ok('A(mention="t", xs=[], ys=[1, 2,],)')
        assert event.arguments == {"xs": [], "ys": [1, 2]}

    def test_number_shapes(self):
        event = parse_ok('A(mention="t", xs=[-3, 0.5, -2.25, 1e3, 2E-2])')
        assert event.arguments["xs"] == [-3, 0.5, -2.25, 1000.0, 0.02]
        assert isinstance(event.arguments["xs"][0], int)
        assert isinstance(event.arguments["xs"][3], float)

    def test_quote_styles_and_escapes(self):
        event = parse_ok("A(mention='it\\'s', x=[\"a\\\"b\", 'c\\nd', 'e\\tf', 'g\\\\h'])")
        assert event.trigger == "it's"
        assert event.arguments["x"] == ['a"b', "c\nd", "e\tf", "g\\h"]

    def test_multiline_call(self):
        event = parse_ok('A(\n    mention="t",\n    x=[\n        "v",\n    ],\n)')
        assert event.arguments == {"x": ["v"]}

    @pytest.mark.parametrize(
        "source, message",
        [
            ('A("t")', "positional arguments are not allowed"),
            ('A(mention="t", "v")', "positional arguments are not allowed"),
            ('A(mention="t", x)', "positional arguments are not allowed"),
            ('A(mention="t", x=["v"], x=["w"])', "duplicate keyword argument 'x'"),
            ('A(mention="t", x=[["v"]])', "nested lists are not allowed"),
            ("A(x=[1])", "missing required keyword 'mention'"),
            ("A(mention=1)", "keyword 'mention' must be a string literal"),
            ('A(mention="t") junk', "unexpected trailing content 'junk'"),
            ('A(mention="t', "unterminated string literal"),
            ('A(mention="t\\q")', "invalid escape sequence '\\q'"),
            ('A(mention="t", x=banana)', "expected a string, number, boolean or list, got 'banana'"),
            ('A(mention="t"; x=1)', "unexpected character ';'"),
            ("A(mention=", "expected a value, got end of input"),
            ("", "empty input"),
            ("A", "expected '(', got end of input"),
            pytest.param('A(mention="t", n=1%s)' % ("0" * 5000), "number literal out of range", id="long-integer"),
            ('A(mention="t", x=[1e999])', "number literal out of range"),
        ],
    )
    def test_rejections(self, source, message):
        failure = parse_fail(source)
        assert failure.message == message

    def test_failure_position_points_at_offender(self):
        failure = parse_fail('A(mention="t",\n   x=[["v"]])')
        assert (failure.line, failure.col) == (2, 7)

    # A diagnostic's text goes verbatim into the patch prompt, so the
    # position after an escape and the message at end of input are pinned,
    # and so is the column count: "\t", "\r" and an astral character are
    # one column each, and only "\n" starts a line.
    @pytest.mark.parametrize(
        "source, described",
        [
            ('Attack(mention="abc\\', "line 1, col 16: unterminated string literal"),
            ('A(mention="\\q', "line 1, col 12: invalid escape sequence '\\q'"),
            ('Attack(mention="a\\nb" x)', "line 1, col 23: expected ',' or ')', got 'x'"),
            ('A(mention="\\t\\q")', "line 1, col 14: invalid escape sequence '\\q'"),
            ('A(mention="t",\tx=;)', "line 1, col 18: unexpected character ';'"),
            ('A(mention="t",\r x=;)', "line 1, col 19: unexpected character ';'"),
            ('A(mention="t",\r\n x=;)', "line 2, col 4: unexpected character ';'"),
            ('A(mention="\U0001F600", x=;)', "line 1, col 18: unexpected character ';'"),
            ('A(mention="a\\\nb")', "line 1, col 13: invalid escape sequence '\\\n'"),
            ('A(mention="t\\\r\n")', "line 1, col 13: invalid escape sequence '\\\r'"),
            ('A(\n  mention="t",\n  x="v)', "line 3, col 5: unterminated string literal"),
            # The separator and '=' faults, at a token and at end of input.
            ('A(mention="t", x 1)', "line 1, col 18: expected '=' after 'x', got '1'"),
            ('A(mention="t", x', "line 1, col 17: expected '=' after 'x', got end of input"),
            ('A(mention="t", x=[1 2])', "line 1, col 21: expected ',' or ']', got '2'"),
            ('A(mention="t",\n  x=[1\n  2])', "line 3, col 3: expected ',' or ']', got '2'"),
            ('A(mention="t", x=[1', "line 1, col 20: expected ',' or ']', got end of input"),
            ('A(mention="t" x=1)', "line 1, col 15: expected ',' or ')', got 'x'"),
            ('A(mention="t"', "line 1, col 14: expected ',' or ')', got end of input"),
            # The whole source is scanned before parsing, so a lexical fault
            # wins over an earlier grammar fault.
            ('Foo(1 "abc', "line 1, col 7: unterminated string literal"),
        ],
    )
    def test_positions_around_escapes(self, source, described):
        assert parse_fail(source).describe() == described

    def test_true_false_literals(self):
        event = parse_ok('A(mention="t", flags=[True, False], solo=False)')
        assert event.arguments == {"flags": [True, False], "solo": [False]}
        assert all(isinstance(v, bool) for v in event.arguments["flags"])


class TestObjectNotationForm:
    def test_basic_object(self):
        event = parse_ok(
            '{"event_type": "Databreach", "trigger": "breach",'
            ' "arguments": {"tool": ["malware"]}}'
        )
        assert event == EventObject("Databreach", "breach", {"tool": ["malware"]})

    def test_scalars_become_singleton_lists(self):
        event = parse_ok('{"event_type": "A", "trigger": "t", "arguments": {"n": 3, "s": "v"}}')
        assert event.arguments == {"n": [3], "s": ["v"]}

    def test_extra_top_level_keys_are_recorded_not_fatal(self):
        code = parse_event_code(
            '{"event_type": "A", "trigger": "t", "arguments": {}, "confidence": 0.9, "note": "x"}'
        )
        assert code.failure is None
        assert code.extra_fields == ("confidence", "note")

    @pytest.mark.parametrize(
        "source, message",
        [
            ('{"trigger": "t", "arguments": {}}', "missing required field 'event_type'"),
            ('{"event_type": "A", "arguments": {}}', "missing required field 'trigger'"),
            ('{"event_type": "A", "trigger": "t"}', "missing required field 'arguments'"),
            ('{"event_type": "", "trigger": "t", "arguments": {}}', "'event_type' must be a non-empty string"),
            ('{"event_type": "A", "trigger": 5, "arguments": {}}', "'trigger' must be a string"),
            ('{"event_type": "A", "trigger": "t", "arguments": []}', "'arguments' must be an object"),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": [["v"]]}}',
                "nested lists are not allowed in role 'x'",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": [null]}}',
                "values of role 'x' must be strings, numbers or booleans",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": {"v": 1}}}',
                "values of role 'x' must be strings, numbers or booleans",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": [NaN]}}',
                "values of role 'x' must be strings, numbers or booleans",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": -Infinity}}',
                "values of role 'x' must be strings, numbers or booleans",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": 1e999}}',
                "values of role 'x' must be strings, numbers or booleans",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"": ["v"]}}',
                "argument role names must be non-empty",
            ),
            (
                '{"event_type": "A", "trigger": "t\\ud800", "arguments": {}}',
                "string 't\\ud800' holds a lone surrogate, which UTF-8 cannot encode",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"x": ["v", "\\udc00"]}}',
                "string '\\udc00' holds a lone surrogate, which UTF-8 cannot encode",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {"\\ud800": "v"}}',
                "string '\\ud800' holds a lone surrogate, which UTF-8 cannot encode",
            ),
            (
                '{"event_type": "A", "trigger": "t", "arguments": {}, "\\ud800": 1}',
                "string '\\ud800' holds a lone surrogate, which UTF-8 cannot encode",
            ),
            pytest.param(
                '{"event_type": "A", "trigger": "t", "arguments": {"n": 1%s}}' % ("0" * 5000),
                "malformed object notation: number literal out of range",
                id="long-integer",
            ),
            pytest.param(
                '{"event_type": "A", "trigger": "t", "arguments": ' + "[" * 100000,
                "malformed object notation: nesting too deep",
                id="deep-nesting",
            ),
        ],
    )
    def test_rejections(self, source, message):
        # Faults found after the JSON has parsed are placed at line 1, col 1.
        assert parse_fail(source).describe() == f"line 1, col 1: {message}"

    def test_escaped_surrogate_pair_is_text(self):
        event = parse_ok('{"event_type": "A", "trigger": "t", "arguments": {"x": "\\ud83d\\ude00"}}')
        assert event.arguments == {"x": ["\U0001F600"]}

    def test_malformed_json_reports_position(self):
        failure = parse_fail('{"event_type": "A",\n "trigger": }')
        assert failure.message.startswith("malformed object notation:")
        assert failure.line == 2

    @pytest.mark.parametrize(
        "source, described",
        [
            ('\n{"event_type": }', "line 2, col 16: malformed object notation: Expecting value"),
            ('\n{"trigger": "t", "arguments": {}}', "line 1, col 1: missing required field 'event_type'"),
        ],
        ids=["syntax", "semantic"],
    )
    def test_positions_after_a_leading_newline(self, source, described):
        assert parse_fail(source).describe() == described

    def test_json_array_is_rejected(self):
        # An array starts with '[', which is not a constructor name either.
        failure = parse_fail('["event"]')
        assert failure.message == "expected a class name, got '['"


class TestCanonicalOrder:
    SCHEMA = EventSchema("A", (RoleSpec("tool"), RoleSpec("victim"), RoleSpec("time")))

    def test_order_arguments_declaration_then_unknown_sorted(self):
        arguments = {"zz": [1], "time": ["now"], "aa": [2], "tool": ["saw"]}
        ordered = order_arguments(arguments, self.SCHEMA)
        assert list(ordered) == ["tool", "time", "aa", "zz"]
        assert ordered["time"] == ["now"]

    def test_parse_canonicalizes_when_registry_resolves(self):
        registry = SchemaRegistry([self.SCHEMA])
        event = parse_ok('A(mention="t", time=["now"], tool=["saw"])', registry=registry)
        assert list(event.arguments) == ["tool", "time"]

    def test_parse_keeps_order_for_unknown_types(self):
        registry = SchemaRegistry([self.SCHEMA])
        event = parse_ok('B(mention="t", zz=[1], aa=[2])', registry=registry)
        assert list(event.arguments) == ["zz", "aa"]


class TestSerialize:
    def test_exact_bytes(self):
        event = EventObject("Databreach", "breach", {"tool": ["malware"]})
        assert serialize_event(event) == (
            '{"event_type": "Databreach", "trigger": "breach", "arguments": {"tool": ["malware"]}}'
        )

    def test_unicode_stays_readable(self):
        event = EventObject("A", "café", {})
        assert '"café"' in serialize_event(event)

    def test_non_finite_numbers_are_rejected(self):
        event = EventObject("A", "t", {"x": [float("nan")]})
        with pytest.raises(ValueError):
            serialize_event(event)

    def test_round_trip_through_object_notation(self):
        rng = random.Random(11)
        for _ in range(200):
            event = random_event(rng)
            assert parse_ok(serialize_event(event)) == event


class TestSurfaceFormAgreement:
    def test_both_forms_parse_to_the_expected_event(self):
        rng = random.Random(13)
        for _ in range(200):
            constructor, object_text, expected = random_surface_pair(rng)
            from_call = parse_ok(constructor)
            from_object = parse_ok(object_text)
            assert from_call == expected
            assert from_object == expected



# Near-valid replies in both surface forms, with the literals and role
# names that used to escape the parser or break serialization.
_LITERALS = st.sampled_from(
    ['"v"', "'w'", "7", "-2.5", "1e999", "1" * 4400, "NaN", "-Infinity", "True", "null", "[1, [2]]", "[" * 2000]
)
_ROLES = st.sampled_from(["x", "y", "", "mention"])


@st.composite
def _near_valid_replies(draw):
    pairs = draw(st.lists(st.tuples(_ROLES, _LITERALS), max_size=3))
    if draw(st.booleans()):
        return 'A(mention="t"%s)' % "".join(f", {role}={value}" for role, value in pairs)
    arguments = ", ".join(f'"{role}": {value}' for role, value in pairs)
    return '{"event_type": "A", "trigger": "t", "arguments": {%s}}' % arguments


# Input that ends inside a string literal, just after a backslash.
_TRAILING_BACKSLASHES = st.builds(
    lambda head, body: f'{head}"{body}\\', st.sampled_from(["A(mention=", '{"event_type": ', ""]), st.text()
)


class TestParserIsTotal:
    @settings(deadline=None)
    @given(st.one_of(st.text(), _near_valid_replies(), _TRAILING_BACKSLASHES))
    def test_never_raises(self, source):
        code = parse_event_code(source)
        assert (code.parsed is None) != (code.failure is None)

    @settings(deadline=None)
    @given(_near_valid_replies())
    def test_parsed_events_serialize_and_round_trip(self, source):
        code = parse_event_code(source)
        if code.parsed is not None:
            assert parse_ok(serialize_event(code.parsed)) == code.parsed
