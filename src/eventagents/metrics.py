"""Micro-averaged TI/TC/AI/AC scoring.

* TI: the predicted trigger string exactly matches a gold trigger span.
* TC: TI plus the event type.
* AI: a predicted (event type, argument value) pair matches a gold
  (event type, argument span) pair.
* AC: AI plus the role name.

Predictions are strings while gold is offset-based, so matching compares
the predicted string against the text at the gold span; a predicted
string equal to a gold span's text necessarily occurs in the document at
that span.  Items pair up one-to-one, greedily in position order, which
is optimal here because compatibility is plain string(-tuple) equality.
Counts are pooled over all documents before precision and recall are
computed.  By convention an empty-vs-empty comparison scores 1.0 and
zero predictions against non-empty gold score 0.0, so scoring gold
against itself is 1.0 on any corpus, including an empty one.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

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
    """One-to-one matching, predictions claiming gold items in order."""
    remaining = Counter(gold_keys)
    correct = 0
    for key in pred_keys:
        if remaining[key] > 0:
            remaining[key] -= 1
            correct += 1
    return correct


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
        doc_predictions = list(predictions.get(doc.id, ()))

        pred_triggers = [event.trigger for event in doc_predictions]
        pred_typed = [(event.trigger, event.event_type) for event in doc_predictions]
        gold_triggers = [doc.text[e.trigger.start : e.trigger.end] for e in doc.gold_events]
        gold_typed = [
            (doc.text[e.trigger.start : e.trigger.end], e.event_type) for e in doc.gold_events
        ]

        pred_args = [
            (event.event_type, str(value))
            for event in doc_predictions
            for values in event.arguments.values()
            for value in values
        ]
        pred_args_typed = [
            (event.event_type, role, str(value))
            for event in doc_predictions
            for role, values in event.arguments.items()
            for value in values
        ]
        gold_args = [
            (e.event_type, doc.text[span.start : span.end])
            for e in doc.gold_events
            for _, span in e.arguments
        ]
        gold_args_typed = [
            (e.event_type, role, doc.text[span.start : span.end])
            for e in doc.gold_events
            for role, span in e.arguments
        ]

        for name, pred_keys, gold_keys in (
            ("ti", pred_triggers, gold_triggers),
            ("tc", pred_typed, gold_typed),
            ("ai", pred_args, gold_args),
            ("ac", pred_args_typed, gold_args_typed),
        ):
            pooled[name][0] += len(pred_keys)
            pooled[name][1] += len(gold_keys)
            pooled[name][2] += _greedy_correct(pred_keys, gold_keys)

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
