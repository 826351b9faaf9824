"""Corpus ingestion, dataset statistics, and uniform sampling.

Corpora are newline-delimited JSON records::

    {"id": "doc-1",
     "text": "...",
     "tokens": [[0, 7], [8, 16], ...],
     "events": [{"event_type": "Ransom",
                 "trigger": {"text": "demanded", "start": 8, "end": 16},
                 "arguments": [{"role": "price", "text": "...", "start": 27, "end": 47}]}]}

``tokens`` and ``events`` are optional.  A record without tokens loads
with ``tokens=None``, and ``dataset_stats`` splits its text at
whitespace (offset-preserving) instead; missing events mean an
unannotated document, and events without an ``arguments`` key load with
empty argument lists, which is how trigger-only corpora are represented.
"""

from __future__ import annotations

import random
import re
from typing import Sequence

from .errors import EventAgentsError, has_surrogate, json_lines
from .records import FrozenRecord, set_field

_WHITESPACE_TOKEN_RE = re.compile(r"\S+")


class CorpusError(EventAgentsError):
    """A corpus file could not be loaded or a record is inconsistent."""


class Span(FrozenRecord):
    """A text span with its character offsets into the document."""

    def __init__(self, text: str, start: int, end: int):
        set_field(self, "text", text)
        set_field(self, "start", start)
        set_field(self, "end", end)


class GoldEvent(FrozenRecord):
    def __init__(self, event_type: str, trigger: Span, arguments: tuple[tuple[str, Span], ...] = ()):
        set_field(self, "event_type", event_type)
        set_field(self, "trigger", trigger)
        set_field(self, "arguments", arguments)


class Document(FrozenRecord):
    """One corpus record.  ``tokens`` is None when the record gave none."""

    def __init__(
        self,
        id: str,
        text: str,
        tokens: tuple[tuple[int, int], ...] | None,
        gold_events: tuple[GoldEvent, ...] = (),
    ):
        set_field(self, "id", id)
        set_field(self, "text", text)
        set_field(self, "tokens", tokens)
        set_field(self, "gold_events", gold_events)


def _whitespace_tokens(text: str) -> tuple[tuple[int, int], ...]:
    return tuple((m.start(), m.end()) for m in _WHITESPACE_TOKEN_RE.finditer(text))


def _check_span(doc_id: str, what: str, start, end, text: str) -> None:
    if not isinstance(start, int) or not isinstance(end, int) or isinstance(start, bool) or isinstance(end, bool):
        raise CorpusError(f"record {doc_id!r}: {what} offsets must be integers")
    if start < 0 or end > len(text) or start >= end:
        raise CorpusError(f"record {doc_id!r}: {what} span [{start}, {end}) out of bounds")


def _check_text(doc_id: str, what: str, value: str) -> None:
    if has_surrogate(value):
        raise CorpusError(f"record {doc_id!r}: {what} holds a lone surrogate, which UTF-8 cannot encode")


def _load_span(doc_id: str, what: str, raw, text: str) -> Span:
    if not isinstance(raw, dict):
        raise CorpusError(f"record {doc_id!r}: {what} must be an object")
    span_text = raw.get("text")
    if not isinstance(span_text, str) or not span_text:
        raise CorpusError(f"record {doc_id!r}: {what} needs a non-empty 'text'")
    start, end = raw.get("start"), raw.get("end")
    _check_span(doc_id, what, start, end, text)
    if span_text != text[start:end]:
        raise CorpusError(
            f"record {doc_id!r}: {what} text {span_text!r} does not match the document text "
            f"{text[start:end]!r} at [{start}, {end})"
        )
    return Span(span_text, start, end)


def _load_record(line_no: int, raw: dict) -> Document:
    doc_id = raw.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"line {line_no}: record has no usable 'id'")
    _check_text(doc_id, "'id'", doc_id)
    text = raw.get("text")
    if not isinstance(text, str):
        raise CorpusError(f"record {doc_id!r}: 'text' must be a string")
    _check_text(doc_id, "'text'", text)

    raw_tokens = tokens = raw.get("tokens")
    if raw_tokens is not None:
        if not isinstance(raw_tokens, list):
            raise CorpusError(f"record {doc_id!r}: 'tokens' must be an array")
        tokens = []
        previous_end = 0
        for pair in raw_tokens:
            if not isinstance(pair, list) or len(pair) != 2:
                raise CorpusError(f"record {doc_id!r}: token entries must be [start, end] pairs")
            start, end = pair
            _check_span(doc_id, "token", start, end, text)
            if start < previous_end:
                raise CorpusError(f"record {doc_id!r}: tokens must be sorted and non-overlapping")
            previous_end = end
            tokens.append((start, end))
        tokens = tuple(tokens)

    events = []
    raw_events = raw.get("events", [])
    if not isinstance(raw_events, list):
        raise CorpusError(f"record {doc_id!r}: 'events' must be an array")
    for raw_event in raw_events:
        if not isinstance(raw_event, dict):
            raise CorpusError(f"record {doc_id!r}: event entries must be objects")
        event_type = raw_event.get("event_type")
        if not isinstance(event_type, str) or not event_type:
            raise CorpusError(f"record {doc_id!r}: event has no usable 'event_type'")
        _check_text(doc_id, "'event_type'", event_type)
        trigger = _load_span(doc_id, "trigger", raw_event.get("trigger"), text)
        arguments = []
        raw_arguments = raw_event.get("arguments", [])
        if not isinstance(raw_arguments, list):
            raise CorpusError(f"record {doc_id!r}: 'arguments' must be an array")
        for raw_argument in raw_arguments:
            if not isinstance(raw_argument, dict):
                raise CorpusError(f"record {doc_id!r}: argument entries must be objects")
            role = raw_argument.get("role")
            if not isinstance(role, str) or not role:
                raise CorpusError(f"record {doc_id!r}: argument has no usable 'role'")
            _check_text(doc_id, "'role'", role)
            arguments.append((role, _load_span(doc_id, f"argument {role!r}", raw_argument, text)))
        events.append(GoldEvent(event_type, trigger, tuple(arguments)))
    return Document(doc_id, text, tokens, tuple(events))


def load_corpus(source: bytes) -> list[Document]:
    """Load a newline-delimited corpus, the bytes of a UTF-8 file; blank
    lines are ignored.

    Malformed lines are reported with their line number, inconsistent
    records with their document id.  Duplicate ids are rejected because
    predictions are keyed by id.
    """
    documents: list[Document] = []
    seen_ids: set[str] = set()
    for line_no, raw in json_lines(source, CorpusError):
        if not isinstance(raw, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object")
        document = _load_record(line_no, raw)
        if document.id in seen_ids:
            raise CorpusError(f"line {line_no}: duplicate document id {document.id!r}")
        seen_ids.add(document.id)
        documents.append(document)
    return documents


class DatasetStats(FrozenRecord):
    def __init__(
        self, documents: int, event_mentions: int, avg_doc_length_tokens: float, multiword_trigger_pct: float
    ):
        set_field(self, "documents", documents)
        set_field(self, "event_mentions", event_mentions)
        set_field(self, "avg_doc_length_tokens", avg_doc_length_tokens)
        set_field(self, "multiword_trigger_pct", multiword_trigger_pct)


def _tokens_overlapping(tokens: Sequence[tuple[int, int]], start: int, end: int) -> int:
    return sum(1 for s, e in tokens if s < end and start < e)


def dataset_stats(corpus: Sequence[Document]) -> DatasetStats:
    """Document count, event mentions, mean token length, multi-word %.

    A trigger is multi-word when its character span overlaps more than
    one document token; a document without tokens has its whitespace
    tokens.  Percentages are over all gold triggers; both ratios are 0.0
    on the corresponding empty denominator.
    """
    documents = len(corpus)
    event_mentions = total_tokens = multiword = 0
    for doc in corpus:
        tokens = _whitespace_tokens(doc.text) if doc.tokens is None else doc.tokens
        total_tokens += len(tokens)
        for event in doc.gold_events:
            event_mentions += 1
            if _tokens_overlapping(tokens, event.trigger.start, event.trigger.end) > 1:
                multiword += 1
    return DatasetStats(
        documents=documents,
        event_mentions=event_mentions,
        avg_doc_length_tokens=total_tokens / documents if documents else 0.0,
        multiword_trigger_pct=100.0 * multiword / event_mentions if event_mentions else 0.0,
    )


def sample_split(corpus: Sequence[Document], n: int, seed: int) -> list[Document]:
    """Uniform sample without replacement, preserving corpus order."""
    if n < 0:
        raise ValueError("sample size must be non-negative")
    if n > len(corpus):
        raise ValueError(f"sample size {n} exceeds corpus size {len(corpus)}")
    indices = random.Random(seed).sample(range(len(corpus)), n)
    return [corpus[i] for i in sorted(indices)]
