"""The retrieval, planning, coding and judging operations.

Each operation builds a prompt from the catalog, sends it through a
backend, and normalizes the reply; none keeps state between calls.
Running retrieval once per run rather than once per document is
``refine.build_run_context``'s job.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from .errors import EventAgentsError, has_surrogate
from .prompts import (
    PlanningHead,
    coding_prompt,
    judge_prompt,
    planning_prompt,
    planning_retry_prompt,
    retrieval_prompt,
)
from .records import FrozenRecord, set_field
from .schemas import EventSchema
from .verify import JudgeResult

_FENCE_RE = re.compile(r"```[^\n`]*\n(.*?)```", re.DOTALL)


class PlanningError(EventAgentsError):
    """The planning reply stayed unparseable after the one retry."""


class TriggerHypothesis(FrozenRecord):
    """A candidate (trigger span, event type) pair from planning."""

    def __init__(self, trigger: str, event_type: str, confidence: float, rationale: str = ""):
        if not trigger:
            raise ValueError("hypothesis trigger must be non-empty")
        if not event_type:
            raise ValueError("hypothesis event_type must be non-empty")
        if not 0.0 <= confidence <= 1.0:
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        set_field(self, "trigger", trigger)
        set_field(self, "event_type", event_type)
        set_field(self, "confidence", confidence)
        set_field(self, "rationale", rationale)


def extract_code_block(reply: str) -> str:
    """First fenced code block if present, else the whole reply, stripped."""
    match = _FENCE_RE.search(reply)
    if match:
        return match.group(1).strip()
    return reply.strip()


def run_retrieval_agent(backend, schema: EventSchema, k: int) -> tuple[str, ...]:
    """Generate up to k exemplar sentences for a schema, deduplicated.

    Issues k independent single-sentence prompts and keeps the distinct
    non-blank replies in reply order.  The result may be empty; the
    pipeline then proceeds without that schema's exemplars.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    request = retrieval_prompt(schema)
    sentences: list[str] = []
    for _ in range(k):
        reply = backend.complete(request).strip()
        if reply and reply not in sentences:
            sentences.append(reply)
    return tuple(sentences)


class ExemplarCache:
    """Per-run exemplar memo, keyed by event type.

    The first lookup of a type runs the factory and keeps its result;
    later lookups of that type return it.  A factory that raises stores
    nothing, so a later lookup runs it again.  Lookups are not
    synchronised: concurrent lookups of one type may each run the
    factory, which cannot happen in a run, because a registry holds
    each event type once.
    """

    def __init__(self):
        self._sets: dict[str, tuple[str, ...]] = {}

    def get_or_create(self, schema: EventSchema, factory: Callable[[], tuple[str, ...]]) -> tuple[str, ...]:
        exemplars = self._sets.get(schema.event_type)
        if exemplars is None:
            exemplars = self._sets[schema.event_type] = factory()
        return exemplars


def _parse_planning_reply(reply: str) -> list[TriggerHypothesis] | None:
    """None means the reply is malformed and a retry is warranted."""
    try:
        data = json.loads(extract_code_block(reply))
    except (ValueError, RecursionError):  # also oversized integers and deep nesting
        return None
    if not isinstance(data, list):
        return None
    hypotheses = []
    for rank, entry in enumerate(data, start=1):
        if not isinstance(entry, dict):
            return None
        trigger = entry.get("trigger")
        event_type = entry.get("event_type")
        confidence = entry.get("confidence")
        rationale = entry.get("rationale", "")
        if not isinstance(trigger, str) or not trigger:
            return None
        if not isinstance(event_type, str) or not event_type:
            return None
        if not isinstance(rationale, str):
            return None
        if any(map(has_surrogate, (trigger, event_type, rationale))):
            return None
        if confidence is None:
            confidence = 1.0 - (rank - 1) / len(data)
        elif isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
            return None
        hypotheses.append(
            TriggerHypothesis(
                trigger=trigger,
                event_type=event_type,
                # Clamp before converting: float() overflows on huge integers.
                confidence=float(min(1.0, max(0.0, confidence))),
                rationale=rationale,
            )
        )
    return hypotheses


def run_planning_agent(
    backend,
    text: str,
    head: PlanningHead,
    hypothesis_k: int = 3,
) -> list[TriggerHypothesis]:
    """Produce the ranked hypothesis list for one document.

    ``head`` is the run's definitions and exemplar block, from
    :func:`~eventagents.prompts.planning_head`.  Missing confidences
    default to 1 - (rank-1)/n in reply order, which preserves the
    model's implicit ranking.  The result is the first hypothesis_k in
    the one best-first order: confidence, then the earliest
    case-insensitive mention in ``text`` (none comes last), then trigger
    text, then reply order.  A malformed reply earns exactly one retry
    with a format reminder before the call fails.
    """
    if not text:
        raise ValueError("text must be non-empty")
    if hypothesis_k < 1:
        raise ValueError("hypothesis_k must be >= 1")
    reply = backend.complete(planning_prompt(text, head))
    hypotheses = _parse_planning_reply(reply)
    if hypotheses is None:
        reply = backend.complete(planning_retry_prompt(text, head))
        hypotheses = _parse_planning_reply(reply)
        if hypotheses is None:
            raise PlanningError(
                f"planning reply is not a JSON array of trigger/event_type objects: {reply[:200]!r}"
            )
    lowered = text.lower()

    def rank(h: TriggerHypothesis) -> tuple:
        offset = lowered.find(h.trigger.lower())
        return (-h.confidence, offset < 0, offset, h.trigger)

    hypotheses.sort(key=rank)  # stable: reply order breaks the ties left
    return hypotheses[:hypothesis_k]


def run_coding_agent(
    backend,
    hypothesis: TriggerHypothesis,
    schema: EventSchema,
    text: str,
    diagnostic: str | None = None,
) -> str:
    """Ask for the event construction realizing a hypothesis.

    With a diagnostic, the prompt becomes a patch request embedding the
    diagnostic line verbatim.  Returns the reply's code text (first
    fenced block if any, else the stripped reply).  An empty reply comes
    back as empty text, which fails parsing and so costs one attempt.
    """
    request = coding_prompt(
        schema,
        hypothesis.trigger,
        text,
        rationale=hypothesis.rationale,
        diagnostic=diagnostic or "",
    )
    return extract_code_block(backend.complete(request))


def judge_semantic_compat(backend, trigger: str, event_type: str, text: str) -> JudgeResult:
    """Yes/no compatibility judgment; anything unclear counts as no."""
    reply = backend.complete(judge_prompt(trigger, event_type, text))
    head = reply.strip().lower()
    if head.startswith("yes"):
        return JudgeResult(True)
    if head.startswith("no"):
        return JudgeResult(False)
    return JudgeResult(False, warning=f"unparseable judge reply: {reply[:80]!r}")
