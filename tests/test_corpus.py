"""Corpus loading, dataset statistics, and split sampling."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventagents import (
    CorpusError,
    DatasetStats,
    Document,
    GoldEvent,
    Span,
    dataset_stats,
    load_corpus,
    sample_split,
)
from oracles import random_gold_corpus, recount_stats


def record(doc_id="doc-1", text="Hackers demanded money.", **extra):
    data = {"id": doc_id, "text": text}
    data.update(extra)
    return data


def corpus_bytes(*records):
    return "\n".join(json.dumps(r) for r in records).encode("utf-8")


class TestLoadCorpus:
    def test_minimal_record_has_no_tokens(self):
        docs = load_corpus(corpus_bytes(record()))
        assert docs == [Document("doc-1", "Hackers demanded money.", None)]
        assert docs[0].tokens is None
        assert docs[0].gold_events == ()

    def test_blank_lines_skipped(self):
        text = b"\n" + corpus_bytes(record()) + b"\n\n" + corpus_bytes(record(doc_id="doc-2")) + b"\n"
        assert [d.id for d in load_corpus(text)] == ["doc-1", "doc-2"]

    def test_explicit_tokens_respected(self):
        docs = load_corpus(corpus_bytes(record(tokens=[[0, 7], [8, 16], [17, 22], [22, 23]])))
        assert docs[0].tokens == ((0, 7), (8, 16), (17, 22), (22, 23))

    def test_events_with_arguments(self):
        text = "Hackers demanded a ransom of $1m."
        docs = load_corpus(
            corpus_bytes(
                record(
                    text=text,
                    events=[
                        {
                            "event_type": "Ransom",
                            "trigger": {"text": "demanded", "start": 8, "end": 16},
                            "arguments": [
                                {"role": "price", "text": "$1m", "start": 29, "end": 32}
                            ],
                        }
                    ],
                )
            )
        )
        event = docs[0].gold_events[0]
        assert event == GoldEvent(
            "Ransom", Span("demanded", 8, 16), (("price", Span("$1m", 29, 32)),)
        )
        assert text[8:16] == "demanded"

    def test_events_without_arguments_load_empty(self):
        docs = load_corpus(
            corpus_bytes(
                record(
                    events=[
                        {"event_type": "Ransom", "trigger": {"text": "demanded", "start": 8, "end": 16}}
                    ]
                )
            )
        )
        assert docs[0].gold_events[0].arguments == ()

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("{not json}", "line 1: malformed record"),
            ('"just a string"', "line 1: record must be a JSON object"),
            ('{"text": "x"}', "line 1: record has no usable 'id'"),
            ('{"id": "", "text": "x"}', "line 1: record has no usable 'id'"),
            ('{"id": "d", "text": 5}', "record 'd': 'text' must be a string"),
            ('{"id": "d", "text": "x", "tokens": {}}', "'tokens' must be an array"),
            ('{"id": "d", "text": "x", "tokens": [[0]]}', "token entries must be [start, end] pairs"),
            ('{"id": "d", "text": "ab", "tokens": [[0, 5]]}', "token span [0, 5) out of bounds"),
            ('{"id": "d", "text": "ab", "tokens": [[1, 1]]}', "token span [1, 1) out of bounds"),
            ('{"id": "d", "text": "abcd", "tokens": [[0, 2], [1, 3]]}', "sorted and non-overlapping"),
            ('{"id": "d", "text": "ab", "tokens": [[0, true]]}', "offsets must be integers"),
            ('{"id": "d", "text": "x", "events": {}}', "'events' must be an array"),
            ('{"id": "d", "text": "x", "events": [5]}', "event entries must be objects"),
            (
                '{"id": "d", "text": "ab", "events": [{"event_type": "A", "trigger": "ab"}]}',
                "record 'd': trigger must be an object",
            ),
            (
                '{"id": "d", "text": "ab", "events": [{"event_type": "A",'
                ' "trigger": {"text": "ab", "start": 0, "end": 2}, "arguments": {}}]}',
                "record 'd': 'arguments' must be an array",
            ),
            (
                '{"id": "d", "text": "ab", "events": [{"event_type": "A",'
                ' "trigger": {"text": "ab", "start": 0, "end": 2}, "arguments": ["role"]}]}',
                "record 'd': argument entries must be objects",
            ),
            ('{"id": "d", "text": "x", "events": [{"trigger": {}}]}', "no usable 'event_type'"),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A", "trigger": {"text": "x"}}]}',
                "trigger offsets must be integers",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A",'
                ' "trigger": {"text": "", "start": 0, "end": 2}}]}',
                "record 'd': trigger needs a non-empty 'text'",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A",'
                ' "trigger": {"text": "ab", "start": 0, "end": 9}}]}',
                "trigger span [0, 9) out of bounds",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A",'
                ' "trigger": {"text": "ab", "start": 0, "end": 2}, "arguments": [{"text": "c"}]}]}',
                "argument has no usable 'role'",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A", "trigger": {"text": "ab", "start": 0,'
                ' "end": 2}, "arguments": [{"role": "", "text": "c", "start": 2, "end": 3}]}]}',
                "record 'd': argument has no usable 'role'",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A",'
                ' "trigger": {"text": "bc", "start": 0, "end": 2}}]}',
                "record 'd': trigger text 'bc' does not match the document text 'ab' at [0, 2)",
            ),
            (
                '{"id": "d", "text": "abc", "events": [{"event_type": "A", "trigger": {"text": "ab", "start": 0,'
                ' "end": 2}, "arguments": [{"role": "r", "text": "b", "start": 2, "end": 3}]}]}',
                "record 'd': argument 'r' text 'b' does not match the document text 'c' at [2, 3)",
            ),
            ('{"id": "d", "text": "a\\udfffb"}', "record 'd': 'text' holds a lone surrogate"),
            (
                '{"id": "d", "text": "ab", "events": [{"event_type": "A\\ud800",'
                ' "trigger": {"text": "ab", "start": 0, "end": 2}}]}',
                "record 'd': 'event_type' holds a lone surrogate",
            ),
            (
                '{"id": "d", "text": "ab", "events": [{"event_type": "A", "trigger": {"text": "ab", "start": 0,'
                ' "end": 2}, "arguments": [{"role": "\\ud800", "text": "a", "start": 0, "end": 1}]}]}',
                "record 'd': 'role' holds a lone surrogate",
            ),
            pytest.param(
                '{"id": "d", "text": "x", "n": 1%s}' % ("0" * 5000),
                "line 1: malformed record: number literal out of range",
                id="long-integer",
            ),
            pytest.param("[" * 100000, "line 1: malformed record: nesting too deep", id="deep-nesting"),
        ],
    )
    def test_rejections(self, payload, fragment):
        with pytest.raises(CorpusError) as exc_info:
            load_corpus(payload.encode())
        assert fragment in str(exc_info.value)

    def test_duplicate_ids_rejected(self):
        text = corpus_bytes(record(), record())
        with pytest.raises(CorpusError, match="line 2: duplicate document id 'doc-1'"):
            load_corpus(text)

    def test_error_names_the_later_line(self):
        text = corpus_bytes(record()) + b"\n{broken"
        with pytest.raises(CorpusError, match="line 2: malformed record"):
            load_corpus(text)

    def test_empty_corpus(self):
        assert load_corpus(b"") == []
        assert load_corpus(b"\n\n") == []
        assert load_corpus(b" \n\t\r\n") == []

    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_a_record_may_hold_a_unicode_line_separator_raw(self, separator):
        text = f"Hackers demanded{separator}a ransom."
        source = json.dumps({"id": "d1", "text": text}, ensure_ascii=False).encode("utf-8")
        assert separator.encode("utf-8") in source
        assert load_corpus(source) == [Document("d1", text, None)]

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"])
    def test_a_malformed_record_after_a_raw_separator_keeps_its_line_number(self, newline):
        first = json.dumps(record(text="Hackers demanded\u2028a ransom."), ensure_ascii=False)
        source = newline.join([first, "", "{broken", ""]).encode("utf-8")
        with pytest.raises(CorpusError, match="^line 3: malformed record: "):
            load_corpus(source)


def whitespace_tokens(text: str) -> list[list[int]]:
    """[start, end] of each maximal run of non-space characters."""
    tokens, start = [], None
    for index, char in enumerate(text + " "):
        if not char.isspace():
            start = index if start is None else start
        elif start is not None:
            tokens.append([start, index])
            start = None
    return tokens


def make_doc(doc_id, text, triggers=()):
    """Whitespace-tokenized document with single-type gold events."""
    tokens = []
    cursor = 0
    for word in text.split(" "):
        if word:
            tokens.append((cursor, cursor + len(word)))
        cursor += len(word) + 1
    events = tuple(
        GoldEvent("E", Span(text[start:end], start, end)) for start, end in triggers
    )
    return Document(doc_id, text, tuple(tokens), events)


class TestDatasetStats:
    def test_hand_computed_case(self):
        # doc-a: 4 tokens, triggers "demanded" (single) and "struck down" (two tokens).
        # doc-b: 2 tokens, no events.
        doc_a = make_doc("a", "They demanded and struck down", triggers=[(5, 13), (18, 29)])
        doc_b = make_doc("b", "Nothing here")
        stats = dataset_stats([doc_a, doc_b])
        assert stats == DatasetStats(
            documents=2,
            event_mentions=2,
            avg_doc_length_tokens=(5 + 2) / 2,
            multiword_trigger_pct=50.0,
        )

    def test_empty_corpus_is_all_zero(self):
        assert dataset_stats([]) == DatasetStats(0, 0, 0.0, 0.0)

    def test_no_events_means_zero_percent(self):
        stats = dataset_stats([make_doc("a", "No events at all")])
        assert stats.event_mentions == 0
        assert stats.multiword_trigger_pct == 0.0

    def test_partial_token_overlap_counts(self):
        # Trigger covers the tail of token 1 and head of token 2.
        doc = make_doc("a", "counter attack now", triggers=[(4, 11)])
        stats = dataset_stats([doc])
        assert stats.multiword_trigger_pct == 100.0

    def test_a_token_that_only_touches_the_trigger_does_not_count(self):
        # Given tokens may abut: "ab" and "cd" each cover one token of "abcd".
        events = tuple(GoldEvent("E", span) for span in (Span("ab", 0, 2), Span("cd", 2, 4)))
        doc = Document("a", "abcd", ((0, 2), (2, 4)), events)
        assert dataset_stats([doc]).multiword_trigger_pct == 0.0

    def test_missing_tokens_are_whitespace_tokens(self):
        stats = dataset_stats(load_corpus(corpus_bytes(record(text=" Hackers\tdemanded  money. "))))
        assert stats.avg_doc_length_tokens == 3.0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tokenless_corpus_has_the_stats_of_its_whitespace_tokens(self, data):
        records = []
        for i in range(data.draw(st.integers(0, 4))):
            text = data.draw(st.text(alphabet="abé \t\n\x1f\u00a0\u2003", max_size=30))
            events = []
            for _ in range(data.draw(st.integers(0, 3)) if text else 0):
                start = data.draw(st.integers(0, len(text) - 1))
                end = data.draw(st.integers(start + 1, len(text)))
                events.append({"event_type": "E", "trigger": {"text": text[start:end], "start": start, "end": end}})
            records.append(record(f"d{i}", text, events=events))
        tokenless = load_corpus(corpus_bytes(*records))
        given = load_corpus(corpus_bytes(*[{**r, "tokens": whitespace_tokens(r["text"])} for r in records]))
        assert all(doc.tokens is None for doc in tokenless)
        assert dataset_stats(tokenless) == dataset_stats(given)

    def test_agrees_with_recount_oracle(self):
        rng = random.Random(77)
        for _ in range(50):
            corpus = random_gold_corpus(rng, rng.randint(0, 12))
            stats = dataset_stats(corpus)
            expected = recount_stats(corpus)
            assert stats.documents == expected["documents"]
            assert stats.event_mentions == expected["event_mentions"]
            assert stats.avg_doc_length_tokens == expected["avg_doc_length_tokens"]
            assert stats.multiword_trigger_pct == expected["multiword_trigger_pct"]


class TestSampleSplit:
    def corpus(self, n=6):
        return [make_doc(f"doc-{i}", "Some text here") for i in range(n)]

    def test_subset_without_replacement_in_corpus_order(self):
        corpus = self.corpus()
        sample = sample_split(corpus, 3, seed=5)
        ids = [doc.id for doc in sample]
        assert len(set(ids)) == 3
        positions = [int(i.split("-")[1]) for i in ids]
        assert positions == sorted(positions)
        assert all(doc in corpus for doc in sample)

    def test_same_seed_same_sample(self):
        corpus = self.corpus()
        assert sample_split(corpus, 3, seed=9) == sample_split(corpus, 3, seed=9)

    def test_different_seeds_differ_somewhere(self):
        corpus = self.corpus(10)
        draws = {tuple(d.id for d in sample_split(corpus, 3, seed=s)) for s in range(20)}
        assert len(draws) > 1

    def test_full_and_empty_samples(self):
        corpus = self.corpus(4)
        assert sample_split(corpus, 4, seed=0) == corpus
        assert sample_split(corpus, 0, seed=0) == []

    def test_oversized_sample_rejected(self):
        with pytest.raises(ValueError, match="exceeds corpus size"):
            sample_split(self.corpus(2), 3, seed=0)
        with pytest.raises(ValueError):
            sample_split(self.corpus(2), -1, seed=0)
