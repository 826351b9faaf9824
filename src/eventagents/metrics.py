"""Micro-averaged TI/TC/AI/AC scoring.

* TI: the predicted trigger string exactly matches a gold trigger span.
* TC: TI plus the event type.
* AI: a predicted (event type, argument value) pair matches a gold
  (event type, argument span) pair.
* AC: AI plus the role name.

Predictions are strings while gold is offset-based, so matching compares
the predicted string against the text at the gold span; a predicted
string equal to a gold span's text necessarily occurs in the document at
that span.  Items pair up one-to-one, and since compatibility is plain
string(-tuple) equality the largest such matching is the multiset
intersection of the predicted and the gold items.
Counts are pooled over all documents before precision and recall are
computed.  By convention an empty-vs-empty comparison scores 1.0 and
zero predictions against non-empty gold score 0.0, so scoring gold
against itself is 1.0 on any corpus, including an empty one.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

from .corpus import Document
from .errors import EventAgentsError
from .events import EventObject
from .records import FrozenRecord, set_field


class EvaluationError(EventAgentsError):
    """Predictions reference unknown documents or cannot be read."""


class MetricScores(FrozenRecord):
    def __init__(self, precision: float, recall: float, f1: float, num_pred: int, num_gold: int, num_correct: int):
        set_field(self, "precision", precision)
        set_field(self, "recall", recall)
        set_field(self, "f1", f1)
        set_field(self, "num_pred", num_pred)
        set_field(self, "num_gold", num_gold)
        set_field(self, "num_correct", num_correct)


_SCORE_HEADER = f"{'Metric':<8}{'Precision':>10}{'Recall':>10}{'F1':>10}"


def _score_row(name: str, precision: float, recall: float, f1: float) -> str:
    return f"{name:<8}{precision:>10.4f}{recall:>10.4f}{f1:>10.4f}"


class MetricsReport(FrozenRecord):
    def __init__(self, ti: MetricScores, tc: MetricScores, ai: MetricScores, ac: MetricScores):
        set_field(self, "ti", ti)
        set_field(self, "tc", tc)
        set_field(self, "ai", ai)
        set_field(self, "ac", ac)

    def as_dict(self) -> dict:
        return {name: vars(scores) for name, scores in self._rows()}

    def as_table(self) -> str:
        lines = [_SCORE_HEADER + f"{'Pred':>8}{'Gold':>8}{'Correct':>9}"]
        for name, s in self._rows():
            lines.append(
                _score_row(name, s.precision, s.recall, s.f1)
                + f"{s.num_pred:>8}{s.num_gold:>8}{s.num_correct:>9}"
            )
        return "\n".join(lines)

    def _rows(self):
        return (("TI", self.ti), ("TC", self.tc), ("AI", self.ai), ("AC", self.ac))


def _greedy_correct(pred_keys: Sequence, gold_keys: Sequence) -> int:
    """The size of the one-to-one matching: the multiset intersection."""
    return (Counter(pred_keys) & Counter(gold_keys)).total()


def _items(events: Iterable[tuple[str, str, list[tuple[str, str]]]]) -> tuple[list, list, list, list]:
    """The TI, TC, AI and AC items of one document's events, each given as
    (trigger text, event type, its (role, value text) pairs)."""
    ti, tc, ai, ac = [], [], [], []
    for trigger, event_type, arguments in events:
        ti.append(trigger)
        tc.append((trigger, event_type))
        for role, value in arguments:
            ai.append((event_type, value))
            ac.append((event_type, role, value))
    return ti, tc, ai, ac


def _scores(num_pred: int, num_gold: int, num_correct: int) -> MetricScores:
    if num_pred == 0 and num_gold == 0:
        return MetricScores(1.0, 1.0, 1.0, 0, 0, 0)
    precision = num_correct / num_pred if num_pred else 0.0
    recall = num_correct / num_gold if num_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricScores(precision, recall, f1, num_pred, num_gold, num_correct)


def score(predictions: Mapping[str, Sequence[EventObject]], gold: Sequence[Document]) -> MetricsReport:
    """Micro-F1 over a corpus; documents without predictions count as empty."""
    gold_ids = {doc.id for doc in gold}
    for doc_id in predictions:
        if doc_id not in gold_ids:
            raise EvaluationError(f"predictions reference unknown document id {doc_id!r}")

    pooled = {name: [0, 0, 0] for name in ("ti", "tc", "ai", "ac")}
    for doc in gold:
        text = doc.text
        pred_items = _items(
            (e.trigger, e.event_type, [(role, str(v)) for role, values in e.arguments.items() for v in values])
            for e in predictions.get(doc.id, ())
        )
        gold_items = _items(
            (text[e.trigger.start : e.trigger.end], e.event_type, [(role, text[a.start : a.end]) for role, a in e.arguments])
            for e in doc.gold_events
        )
        for counts, pred_keys, gold_keys in zip(pooled.values(), pred_items, gold_items):
            counts[0] += len(pred_keys)
            counts[1] += len(gold_keys)
            counts[2] += _greedy_correct(pred_keys, gold_keys)

    return MetricsReport(**{name: _scores(*counts) for name, counts in pooled.items()})


def mean_of_reports(reports: Sequence[MetricsReport]) -> dict:
    """Arithmetic mean of precision/recall/F1 per metric across runs."""
    if not reports:
        raise ValueError("at least one report is required")
    out: dict = {}
    for name in ("TI", "TC", "AI", "AC"):
        rows = [report.as_dict()[name] for report in reports]
        out[name] = {
            key: sum(row[key] for row in rows) / len(rows)
            for key in ("precision", "recall", "f1")
        }
    return out


def mean_table(mean: Mapping[str, Mapping[str, float]]) -> str:
    """The :func:`mean_of_reports` result in :meth:`MetricsReport.as_table`'s
    layout, without the count columns."""
    return "\n".join([_SCORE_HEADER] + [_score_row(name, **row) for name, row in mean.items()])
