"""Dual-loop refinement: hypothesis backtracking around a patch loop.

The outer loop takes the hypotheses of the pool, a plain list the search
consumes, front to back: planning ranked them best first.  The inner
loop gives the coding agent up to ``patch_attempts`` tries for that
hypothesis, feeding the previous attempt's diagnostic line back into the
prompt from the second try on.  A hypothesis leaves the pool when it is
taken up: one that verifies ends the search with its event, and after
one that exhausts its attempts the outer loop takes the next.  An empty
pool ends the search with None and the trace's outcome ``"exhausted"``,
which is a result, not an error: evaluation counts failed documents as
zero predictions.

Each document's :class:`RefinementTrace` is its one result, whatever
the outcome: :func:`extract_document` turns a planning, coding or judge
failure before any event was accepted into outcome ``"aborted"`` with
the reason in ``error``, and :func:`trace_to_records` ends every
document's records with its outcome.

Planning keeps at most hypothesis_k hypotheses and each is taken up
once, so a document costs at most hypothesis_k * patch_attempts
coding-agent calls, with an ``event_cap`` above 1 too.
"""

from __future__ import annotations

import functools
from typing import Callable

from .agents import (
    ExemplarCache,
    TriggerHypothesis,
    judge_semantic_compat,
    run_coding_agent,
    run_planning_agent,
    run_retrieval_agent,
)
from .errors import EventAgentsError
from .events import EventObject, event_payload, parse_event_code
from .prompts import PlanningHead, planning_head
from .records import FrozenRecord, Record, set_field
from .schemas import SchemaRegistry
from .verify import JudgeResult, verify

MODE_STRICT = "strict"
MODE_LLM = "llm"
MODES = (MODE_STRICT, MODE_LLM)


class PipelineConfig(FrozenRecord):
    """Refinement and document-pipeline knobs."""

    def __init__(
        self,
        hypothesis_k: int = 3,
        patch_attempts: int = 3,
        mode: str = MODE_STRICT,
        exemplar_k: int = 3,
        event_cap: int = 1,
    ):
        for name, value in (("hypothesis_k", hypothesis_k), ("patch_attempts", patch_attempts)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if mode not in MODES:
            raise ValueError(f"mode must be '{MODE_STRICT}' or '{MODE_LLM}', got {mode!r}")
        for name, value in (("exemplar_k", exemplar_k), ("event_cap", event_cap)):
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        set_field(self, "hypothesis_k", hypothesis_k)
        set_field(self, "patch_attempts", patch_attempts)
        set_field(self, "mode", mode)
        set_field(self, "exemplar_k", exemplar_k)
        set_field(self, "event_cap", event_cap)


class RefinementTrace(Record):
    """Everything that happened to one document: its one result.

    ``attempts`` holds one trace record per coding attempt, in call
    order: a dict of the record's fields without ``doc_id``, whose
    ``verdict`` and ``diagnostic`` stay None when verification raised.
    ``outcome`` ends ``"accepted"``, ``"exhausted"``, ``"no-hypotheses"``
    or ``"aborted"``; ``error``, the reason the document was skipped, is
    set exactly when :func:`extract_document` aborted it.
    """

    def __init__(
        self,
        attempts: list[dict] | None = None,
        notes: list[str] | None = None,
        outcome: str = "pending",
        error: str | None = None,
    ):
        self.attempts = [] if attempts is None else attempts
        self.notes = [] if notes is None else notes
        self.outcome = outcome
        self.error = error


def document_judge(
    mode: str, backend, text: str, notes: list[str]
) -> Callable[[str, str], JudgeResult] | None:
    """The T1 semantic judge for one document: None in strict mode.

    In llm mode it asks :func:`judge_semantic_compat` about ``text`` and
    remembers each (trigger, event type) answer, so a question is put to
    the backend at most once however often refinement verifies it.  An
    answer's warning (an unparseable reply, which counts as no) is
    appended to ``notes``, so once per question.
    """
    if mode == MODE_STRICT:
        return None

    @functools.cache
    def judge(trigger: str, event_type: str) -> JudgeResult:
        result = judge_semantic_compat(backend, trigger, event_type, text)
        if result.warning:
            notes.append(f"semantic judge on ({trigger!r}, {event_type!r}): {result.warning}")
        return result

    return judge


def refine(
    pool: list[TriggerHypothesis],
    text: str,
    registry: SchemaRegistry,
    config: PipelineConfig,
    backend,
    trace: RefinementTrace,
    judge: Callable[[str, str], JudgeResult] | None = None,
) -> EventObject | None:
    """Run the dual loop until an event verifies or the pool runs out.

    Takes ``pool`` front to back and consumes it in place: a hypothesis
    is removed when it is taken up, so the caller's list holds exactly
    the ones not taken, also after a backend failure.  Every hypothesis
    may be tried, because ``hypothesis_k`` is planning's cut, not a
    budget here: the ``hypothesis_k * patch_attempts`` bound on coding
    calls holds per document, not per call.  Returns the accepted event, or None once the pool is
    spent, with the trace's outcome ``"exhausted"``.  Hypotheses whose
    event type is not in the registry are consumed without costing any
    coding calls.  Each coding attempt is appended to ``trace.attempts``
    as its trace record before verification.  A backend failure raises
    with nothing attached; ``trace`` keeps what was recorded up to it.
    ``judge`` is the document's T1 judge from :func:`document_judge`;
    None means no semantic judge, as for :func:`~eventagents.verify.verify`.
    """
    while pool:
        hypothesis = pool.pop(0)
        schema = registry.get(hypothesis.event_type)
        if schema is None:
            trace.notes.append(
                f"hypothesis ({hypothesis.trigger!r}, {hypothesis.event_type!r}) skipped: unknown event type"
            )
            continue
        diagnostic_line = None
        for attempt in range(1, config.patch_attempts + 1):
            code_text = run_coding_agent(backend, hypothesis, schema, text, diagnostic=diagnostic_line)
            code = parse_event_code(code_text, registry=registry)
            # Recorded before verification, so a failed judge call
            # still leaves the paid coding reply in the trace.
            record = {
                "trigger": hypothesis.trigger,
                "event_type": hypothesis.event_type,
                "confidence": hypothesis.confidence,
                "attempt": attempt,
                "code": code.raw_source,
                "event": None if code.parsed is None else event_payload(code.parsed),
                "verdict": None,
                "diagnostic": None,
            }
            trace.attempts.append(record)
            result = verify(code, text, schema, judge)
            record["verdict"] = result.verdict
            if result.verdict:
                trace.outcome = "accepted"
                return code.parsed
            diagnostic_line = record["diagnostic"] = result.diagnostic.as_line()
    trace.outcome = "exhausted"
    return None


class RunContext(FrozenRecord):
    """What every document of a run shares, built once per run.

    ``planning`` holds the definitions and each distinct exemplar
    sentence once, ``warnings`` one line per schema whose retrieval came
    back empty, both in registry order.  A schema whose sentences all
    repeat earlier ones gets no warning.
    """

    def __init__(self, planning: PlanningHead, warnings: tuple[str, ...]):
        set_field(self, "planning", planning)
        set_field(self, "warnings", warnings)


def build_run_context(
    registry: SchemaRegistry,
    backend,
    exemplar_k: int,
    map: Callable = map,
) -> RunContext:
    """Retrieve every schema's exemplars and assemble the run context.

    The context's planning head joins the definitions and the exemplar
    block once; every planning request of the run reuses it.

    ``map`` runs one retrieval task per schema; pass an executor's
    ``map`` to retrieve schemas concurrently.  Each task keeps its
    schema's ``exemplar_k`` calls in order, so scripted reply lists
    replay the same way at any concurrency.  An empty registry and a
    retrieval failure raise.
    """
    if len(registry) == 0:
        raise EventAgentsError("the ontology declares no event types")
    cache = ExemplarCache()

    def retrieve(schema):
        return cache.get_or_create(schema, lambda: run_retrieval_agent(backend, schema, exemplar_k))

    exemplars = tuple(map(retrieve, registry))
    return RunContext(
        planning_head(registry, [sentence for sentences in exemplars for sentence in sentences]),
        tuple(
            f"retrieval produced no usable sentences for {schema.event_type}"
            for schema, sentences in zip(registry, exemplars)
            if not sentences
        ),
    )


def extract_document(
    text: str,
    registry: SchemaRegistry,
    config: PipelineConfig,
    backend,
    context: RunContext,
) -> tuple[list[EventObject], RefinementTrace]:
    """Full per-document pipeline: planning and refinement.

    ``context`` comes from :func:`build_run_context` over the same
    registry.  Every document comes back as ``(events, trace)``: no
    :class:`EventAgentsError` is raised.  At most ``event_cap`` events
    are returned: after each accepted event below the cap, refinement
    re-runs with accepted (trigger, type) pairs excluded until the pool
    empties.  Empty planning output is a normal empty extraction, not an
    error.  Blank text (before any backend call) and a planning, coding
    or judge failure return no events and an ``"aborted"`` trace whose
    ``error`` says why, unless a continuation fails after an event was
    accepted: then the accepted events are returned, the outcome is
    ``"accepted"``, and a trace note names the failure.  The semantic
    judge is asked each (trigger, event type) question at most once per
    call.
    """
    if not text.strip():
        return [], RefinementTrace(outcome="aborted", error="document text is empty")
    trace = RefinementTrace(notes=list(context.warnings))
    events: list[EventObject] = []
    try:
        hypotheses = run_planning_agent(backend, text, context.planning, hypothesis_k=config.hypothesis_k)
        if not hypotheses:
            trace.notes.append("planning produced no hypotheses")
            trace.outcome = "no-hypotheses"
            return [], trace
        judge = document_judge(config.mode, backend, text, trace.notes)
        while (event := refine(hypotheses, text, registry, config, backend, trace, judge)) is not None:
            events.append(event)
            hypotheses = [h for h in hypotheses if (h.trigger, h.event_type) != (event.trigger, event.event_type)]
            if len(events) == config.event_cap or not hypotheses:
                break
            trace.notes.append(
                f"multi-event: continuing after accepting ({event.trigger!r}, {event.event_type!r})"
            )
    except EventAgentsError as exc:
        if not events:
            trace.outcome = "aborted"
            trace.error = str(exc)
            return [], trace
        trace.notes.append(f"multi-event: continuation failed, keeping {len(events)} accepted event(s): {exc}")
    if events:
        trace.outcome = "accepted"
    return events, trace


def trace_to_records(trace: RefinementTrace, doc_id: str) -> list[dict]:
    """Flatten a trace into JSON-ready records: its notes, one record per
    coding attempt, the outcome, then ``document skipped: <error>`` when
    the document was skipped, so the log replays the whole search.
    """
    records = [{"doc_id": doc_id, "note": note} for note in trace.notes]
    records += [{"doc_id": doc_id, **record} for record in trace.attempts]
    records.append({"doc_id": doc_id, "outcome": trace.outcome})
    if trace.error is not None:
        records.append({"doc_id": doc_id, "note": f"document skipped: {trace.error}"})
    return records
