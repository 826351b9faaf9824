"""Readers of untrusted input are total: each returns a value or raises
its own error, whatever JSON it is given.

Documents are built from the keys each reader knows, so the examples
reach the checks behind the first few, and any key may instead hold an
arbitrary JSON value or be missing.
"""

import codecs
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventagents import SchemaRegistry, TriggerHypothesis
from eventagents.agents import PlanningError, run_planning_agent
from eventagents.backends import BackendError, _extract_content, load_scripted_fixture
from eventagents.cli import _load_config_file, _load_predictions, _write_line
from eventagents.corpus import CorpusError, load_corpus
from eventagents.errors import ConfigError, json_lines, load_json
from eventagents.events import EventObject, event_payload, parse_event_code
from eventagents.metrics import EvaluationError
from eventagents.prompts import planning_head
from eventagents.schemas import EventSchema, OntologyError, RoleSpec, load_ontology

TEXT = "Hackers demanded a ransom."
REGISTRY = SchemaRegistry([EventSchema("Ransom", (RoleSpec("victim"),))])

# Few distinct names, so they collide; the invalid ones come last
# because hypothesis favours early entries.
NAMES = st.sampled_from(["A", "B", "a-b", "demanded", "ransom", "mention", "x y", "", "d\ud800"])
VALUE_TYPES = st.sampled_from(["string", "integer", "number", "boolean"])
MULTIPLICITIES = st.sampled_from(["list", "optional-scalar", "required-scalar"])
WORDS = NAMES | VALUE_TYPES | MULTIPLICITIES | st.just(TEXT)
SMALL_INTS = st.integers(min_value=-2, max_value=len(TEXT) + 2)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | WORDS,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(WORDS, children, max_size=3),
    max_leaves=8,
)
HOSTILE_BYTES = st.sampled_from([b"[" * 100_000, b'{"n": ' + b"7" * 5_000 + b"}", b'"\xff"', b""])


def mostly(common, rare):
    """Draw mostly from ``common`` (three entries in four), else from ``rare``."""
    return st.sampled_from([common, common, common, rare]).flatmap(lambda strategy: strategy)


def shaped(fields):
    """JSON objects with a plausible value under every known key, or with
    each key missing, plausible or holding any JSON value."""
    return mostly(
        st.fixed_dictionaries(fields),
        st.fixed_dictionaries({}, optional={key: value | ANY_JSON for key, value in fields.items()}),
    )


def as_bytes(documents):
    """A JSON document's bytes, mostly shaped like ``documents``."""
    return mostly(
        documents.map(lambda document: json.dumps(document).encode("utf-8")),
        st.one_of(ANY_JSON.map(lambda value: json.dumps(value).encode("utf-8")), st.binary(), HOSTILE_BYTES),
    )


def as_lines(records):
    """Newline-delimited JSON records, mostly shaped like ``records``."""
    lines = st.lists(mostly(records, ANY_JSON), max_size=3)
    return mostly(
        lines.map(lambda items: "\n".join(json.dumps(item) for item in items).encode("utf-8")),
        st.binary() | HOSTILE_BYTES,
    )


ROLE = shaped({"name": NAMES, "value_type": VALUE_TYPES, "multiplicity": MULTIPLICITIES})
ONTOLOGIES = as_bytes(st.lists(shaped({"event_type": NAMES, "roles": st.lists(ROLE, max_size=4)}), max_size=3))

SPAN_TEXTS = st.sampled_from(["demanded", "ransom", ""])
SPAN_FIELDS = {"text": SPAN_TEXTS, "start": SMALL_INTS, "end": SMALL_INTS}
# Spans over TEXT: two aligned with their text, two one character off.
TEXT_SPANS = st.sampled_from([
    {"text": "demanded", "start": 8, "end": 16},
    {"text": "ransom", "start": 19, "end": 25},
    {"text": "demanded", "start": 9, "end": 17},
    {"text": "ransom", "start": 18, "end": 24},
])
ARGUMENT = mostly(
    st.tuples(NAMES, TEXT_SPANS).map(lambda pair: {"role": pair[0], **pair[1]}),
    shaped({"role": NAMES, **SPAN_FIELDS}),
)
GOLD_EVENT = shaped({
    "event_type": NAMES,
    "trigger": mostly(TEXT_SPANS, shaped(SPAN_FIELDS)),
    "arguments": st.lists(ARGUMENT, max_size=2),
})
# Records mostly carry a usable id, TEXT and its tokens, so that most
# examples reach the gold spans.
CORPORA = as_lines(shaped({
    "id": mostly(st.sampled_from(["d1", "d2"]), NAMES),
    "text": mostly(st.just(TEXT), st.sampled_from(["x y", "", "x\udfff"])),
    "tokens": mostly(
        st.just([[0, 7], [8, 16], [17, 18], [19, 26]]),
        st.lists(st.lists(SMALL_INTS, min_size=2, max_size=2), max_size=3),
    ),
    "events": st.lists(GOLD_EVENT, max_size=2),
}))

FIXTURES = as_bytes(st.dictionaries(NAMES, NAMES | st.lists(NAMES, max_size=3), max_size=3))

EVENT = shaped({
    "event_type": NAMES,
    "trigger": SPAN_TEXTS,
    "arguments": st.dictionaries(NAMES, WORDS | st.lists(WORDS | st.integers() | st.floats(), max_size=3), max_size=3),
})
PREDICTIONS = as_lines(shaped({"doc_id": NAMES, "events": st.lists(EVENT, max_size=2)}))

HYPOTHESIS = shaped({
    "trigger": st.sampled_from(["demanded", "RANSOM", "absent", ""]),
    "event_type": NAMES,
    "confidence": st.none() | st.floats() | st.integers(),
    "rationale": st.sampled_from(["", "the verb"]),
})
PLANNING_REPLIES = mostly(
    st.lists(HYPOTHESIS, max_size=5).map(json.dumps),
    st.one_of(
        st.lists(HYPOTHESIS, max_size=5).map(lambda items: "```json\n%s\n```" % json.dumps(items)),
        ANY_JSON.map(json.dumps),
        st.text(max_size=20),
    ),
)


@settings(deadline=None)
@given(ONTOLOGIES)
def test_load_ontology_is_total(source):
    try:
        assert isinstance(load_ontology(source), SchemaRegistry)
    except OntologyError:
        pass


@settings(deadline=None)
@given(CORPORA)
def test_load_corpus_is_total(source):
    try:
        documents = load_corpus(source)
    except CorpusError:
        return
    for document in documents:
        (document.id + document.text).encode("utf-8")
        for event in document.gold_events:
            for span in (event.trigger, *(span for _, span in event.arguments)):
                assert span.text == document.text[span.start : span.end]


@settings(deadline=None)
@given(FIXTURES)
def test_load_scripted_fixture_is_total(source):
    try:
        fixture = load_scripted_fixture(source)
    except ConfigError:
        return
    for replies in fixture.values():
        "".join(replies).encode("utf-8")


def parser_verdict(raw_event) -> tuple[EventObject | None, str | None]:
    """What parsing an event's object notation as a coding reply makes of
    it: the event, or why eval refuses it."""
    if not isinstance(raw_event, dict):
        return None, "event must be an object"
    code = parse_event_code(json.dumps(raw_event))
    if code.failure is not None:
        return None, code.failure.message
    return code.parsed, f"unexpected field {code.extra_fields[0]!r}" if code.extra_fields else None


def test_load_predictions_is_total(tmp_path):
    path = tmp_path / "predictions.jsonl"

    @settings(deadline=None)
    @given(PREDICTIONS)
    def check(source):
        path.write_bytes(source)
        try:
            predictions = _load_predictions(str(path))
        except EvaluationError as exc:
            head, bad_event, problem = str(exc).partition(": bad event for ")
            if bad_event:
                line_no = int(head.rpartition("line ")[2])
                record = load_json(source.splitlines()[line_no - 1], ValueError, "")
                refusals = [why for _, why in map(parser_verdict, record["events"]) if why]
                assert problem == f"{record['doc_id']!r}: {refusals[0]}"
            return
        assert isinstance(predictions, dict)
        for _, record in json_lines(source, ValueError):
            assert predictions[record["doc_id"]] == [event for event, _ in map(parser_verdict, record.get("events", []))]

    check()


# Text that extract may write, weighted towards the characters that end a
# line for str.splitlines() but may stand raw inside a JSON string.
SEPARATORS = st.sampled_from(["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", " "])
WRITTEN_TEXT = st.text(SEPARATORS | st.characters(blacklist_categories=("Cs",)), max_size=6)
WRITTEN_VALUE = WRITTEN_TEXT | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
WRITTEN_EVENT = st.builds(
    EventObject,
    WRITTEN_TEXT.filter(bool),
    WRITTEN_TEXT,
    st.dictionaries(WRITTEN_TEXT.filter(bool), st.lists(WRITTEN_VALUE, max_size=3), max_size=3),
)


def test_load_predictions_returns_what_extract_writes(tmp_path):
    path = tmp_path / "predictions.jsonl"

    @settings(deadline=None)
    @given(st.dictionaries(WRITTEN_TEXT, st.lists(WRITTEN_EVENT, max_size=2), max_size=3))
    def check(events_by_doc):
        with open(path, "w", encoding="utf-8") as file:
            for doc_id, events in events_by_doc.items():
                _write_line(file, {"doc_id": doc_id, "events": [event_payload(event) for event in events]})
        assert _load_predictions(str(path)) == events_by_doc

    check()


def read_file(reader):
    """``reader`` of a path, as a reader of bytes written to a file."""

    def read(source, tmp_path):
        path = tmp_path / "input"
        path.write_bytes(source)
        return reader(str(path))

    return read


# Each reader of a file: how it reads bytes, a document it accepts, and its error.
FILE_READERS = {
    "ontology": (lambda source, _: list(load_ontology(source)), [{"event_type": "Ransom", "roles": []}], OntologyError),
    "corpus": (lambda source, _: load_corpus(source), {"id": "d1", "text": TEXT}, CorpusError),
    "fixture": (lambda source, _: load_scripted_fixture(source), {"fp": "reply"}, ConfigError),
    "config": (read_file(_load_config_file), {"runs": 2}, ConfigError),
    "predictions": (read_file(_load_predictions), {"doc_id": "d1", "events": []}, EvaluationError),
}


@pytest.mark.parametrize("name", FILE_READERS)
def test_one_leading_byte_order_mark_is_dropped(tmp_path, name):
    read, document, error = FILE_READERS[name]
    source = json.dumps(document).encode("utf-8")
    assert read(codecs.BOM_UTF8 + source, tmp_path) == read(source, tmp_path)
    with pytest.raises(error):
        read(codecs.BOM_UTF8 * 2 + source, tmp_path)
    # A codec fault keeps its position in its document or record, counting the mark.
    with pytest.raises(error, match="byte 0xff in position 4: "):
        read(codecs.BOM_UTF8 + b'"\xff"', tmp_path)


# Every reader of outside JSON, the reply body of a backend among them.
READERS = {
    **FILE_READERS,
    "reply": (lambda source, _: _extract_content(source), {"choices": [{"message": {"content": "r"}}]}, BackendError),
}
# What each reader's fault reads before the fault's own words.
FAULT_PREFIXES = {
    "ontology": "malformed ontology document: ",
    "corpus": "line {line}: malformed record: ",
    "fixture": "malformed scripted fixture: ",
    "config": "config file {path} is not valid JSON: ",
    "predictions": "{path}: line {line}: malformed record: ",
    "reply": "backend response is not valid JSON: ",
}


def fault_of(name, source, tmp_path):
    """The message of the error ``READERS[name]`` raises on ``source``."""
    read, _, error = READERS[name]
    with pytest.raises(error) as caught:
        read(source, tmp_path)
    return str(caught.value)


def worded(name, fault, tmp_path, line=1):
    """``fault`` as reader ``name`` words it for ``line`` of the file ``read_file`` writes."""
    return FAULT_PREFIXES[name].format(path=tmp_path / "input", line=line) + fault


@pytest.mark.parametrize("name", READERS)
def test_a_second_byte_order_mark_is_named_in_plain_words(tmp_path, name):
    source = codecs.BOM_UTF8 * 2 + json.dumps(READERS[name][1]).encode("utf-8")
    assert fault_of(name, source, tmp_path) == worded(name, "more than one byte order mark", tmp_path)


@pytest.mark.parametrize("name", ["corpus", "config", "predictions"])
def test_a_codec_fault_is_worded_like_any_other_fault_of_its_reader(tmp_path, name):
    fault = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"
    assert fault_of(name, codecs.BOM_UTF8 + b'"\xff"', tmp_path) == worded(name, fault, tmp_path)


def test_a_config_fault_position_counts_the_files_own_characters(tmp_path):
    fault = "Expecting value: line 2 column 1 (char 10)"
    assert fault_of("config", b'{"runs":\r\n}', tmp_path) == worded("config", fault, tmp_path)


# The two JSON Lines readers, each with its record for a document id.
RECORDS = {
    "corpus": lambda doc_id: {"id": doc_id, "text": TEXT},
    "predictions": lambda doc_id: {"doc_id": doc_id, "events": []},
}


def jsonl(*lines):
    """JSON Lines bytes: each dict as its JSON, each bytes line as it is."""
    return b"\n".join(json.dumps(line).encode("utf-8") if isinstance(line, dict) else line for line in lines)


@pytest.mark.parametrize("name", RECORDS)
def test_a_mark_at_the_start_of_a_later_record_is_dropped(tmp_path, name):
    read, record = READERS[name][0], RECORDS[name]
    expected = read(jsonl(record("d1"), record("d2")), tmp_path)
    assert read(jsonl(record("d1"), codecs.BOM_UTF8 + jsonl(record("d2"))), tmp_path) == expected


@pytest.mark.parametrize("name", RECORDS)
def test_a_mark_on_a_line_of_its_own_is_a_blank_line(tmp_path, name):
    read, record = READERS[name][0], RECORDS[name]
    assert read(jsonl(codecs.BOM_UTF8, record("d1")), tmp_path) == read(jsonl(record("d1")), tmp_path)


@pytest.mark.parametrize("space", ["\u2028", "\xa0"], ids=["U+2028", "U+00A0"])
@pytest.mark.parametrize("name", RECORDS)
def test_a_line_of_non_ascii_whitespace_is_a_malformed_record(tmp_path, name, space):
    source = jsonl(RECORDS[name]("d1"), space.encode("utf-8"), RECORDS[name]("d2"))
    assert fault_of(name, source, tmp_path) == worded(name, "Expecting value", tmp_path, line=2)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_decoded_in_line_order_from_their_own_start(tmp_path, name):
    fault = "'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
    bad_byte = b'{"id": "\xff"}'
    assert fault_of(name, jsonl(RECORDS[name]("d1"), bad_byte), tmp_path) == worded(name, fault, tmp_path, line=2)
    fault = "Expecting property name enclosed in double quotes"
    assert fault_of(name, jsonl(b"{broken", bad_byte), tmp_path) == worded(name, fault, tmp_path)


@settings(deadline=None)
@given(PLANNING_REPLIES, PLANNING_REPLIES, st.integers(min_value=1, max_value=4))
def test_planning_returns_bounded_ranked_hypotheses_or_fails(reply, retry_reply, hypothesis_k):
    replies = iter([reply, retry_reply])

    class Backend:
        def complete(self, request):
            return next(replies)

    try:
        hypotheses = run_planning_agent(Backend(), TEXT, planning_head(REGISTRY), hypothesis_k=hypothesis_k)
    except PlanningError:
        return
    assert len(hypotheses) <= hypothesis_k
    assert all(isinstance(h, TriggerHypothesis) and 0.0 <= h.confidence <= 1.0 for h in hypotheses)
    confidences = [h.confidence for h in hypotheses]
    assert confidences == sorted(confidences, reverse=True)
