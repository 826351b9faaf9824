"""Per-layer metrics from one traced extract call.

Inputs are the spans written by tracer.py, the stub's counters for the
same call, and the number of documents attempted.  A layer's self time is
its spans' durations minus the part of each interval that the span's
children cover (children of the root run on worker threads and may
overlap, hence the interval union).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import NamedTuple

TEMPLATES = ("retrieval", "planning", "planning_retry", "coding", "semantic_judge")
SELF_TIME_LAYERS = ("cli", "backends", "agents", "refine")
PROMPT_SPANS = (
    "prompts.retrieval_prompt", "prompts.planning_prompt", "prompts.planning_retry_prompt",
    "prompts.coding_prompt", "prompts.judge_prompt",
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    doc: str | None
    attrs: dict | None
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*json.loads(line)) for line in handle]


def _covered(parent: Span, children: list[Span]) -> float:
    covered, reach = 0.0, parent.start
    for child in sorted(children, key=lambda s: s.start):
        start, end = max(child.start, reach), min(child.end, parent.end)
        if end > start:
            covered += end - start
            reach = end
    return covered


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], stub: dict, docs: int) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        children[span.parent].append(span)

    def self_time(span: Span) -> float:
        return span.duration - _covered(span, children[span.id])

    def attr(span: Span, key: str):
        return (span.attrs or {}).get(key)

    m: dict[str, float] = {}
    root = by_name["cli.main"][0]
    doc_spans = by_name["refine.extract_document"]
    m["cli.pre_doc_s"] = (min(s.start for s in doc_spans) if doc_spans else root.end) - root.start

    retrieval = by_name["agents.run_retrieval_agent"]
    busy = sum(s.duration for s in retrieval)
    m["agents.retrieval.calls"] = len(retrieval)
    m["agents.retrieval.busy_s"] = busy
    window = max((s.end for s in retrieval), default=0.0) - min((s.start for s in retrieval), default=0.0)
    m["agents.retrieval.concurrency"] = _share(busy, window)

    lookups = by_name["agents.exemplar_cache.get_or_create"]
    m["agents.exemplar_cache.wait_s"] = sum(
        s.duration - sum(c.duration for c in children[s.id] if c.name == "agents.exemplar_cache.factory")
        for s in lookups
    )
    m["agents.exemplar_cache.hit_share"] = _share(sum(not attr(s, "filled") for s in lookups), len(lookups))
    m["agents.judge.busy_s"] = sum(s.duration for s in by_name["agents.judge_semantic_compat"])

    calls = by_name["backends.complete"]
    for template in TEMPLATES:
        mine = [s for s in calls if attr(s, "template") == template]
        m[f"backends.calls.{template}"] = len(mine)
        m[f"backends.prompt_chars.{template}"] = sum(attr(s, "chars") for s in mine)
    m["agents.planning.retry_share"] = _share(m["backends.calls.planning_retry"], m["backends.calls.planning"])

    coding = by_name["agents.run_coding_agent"]
    verified = by_name["verify.verify"]
    accepted = [s for s in verified if attr(s, "verdict")]
    patches = [s for s in coding if attr(s, "attempt") >= 2]
    aborted = sum(s.error is not None for s in coding) + sum(s.error is not None for s in verified)
    started = sum(attr(s, "attempt") == 1 for s in coding)
    m["refine.attempts_per_doc"] = len(coding) / docs
    m["refine.useful_attempt_share"] = _share(len(accepted), len(coding))
    m["refine.patch_success_share"] = _share(sum(attr(s, "attempt") >= 2 for s in accepted), len(patches))
    m["refine.exhausted_hypotheses_per_doc"] = (started - len(accepted) - aborted) / docs
    doc_ms = [s.duration * 1000 for s in doc_spans]
    m["refine.doc_p50_ms"] = _percentile(doc_ms, 50)
    m["refine.doc_p95_ms"] = _percentile(doc_ms, 95)

    parses = by_name["events.parse_event_code"]
    m["events.parse_failure_share"] = _share(sum(bool(attr(s, "failed")) for s in parses), len(parses))
    m["events.parse_ms_per_doc"] = sum(s.duration for s in parses) * 1000 / docs
    for check in ("T1", "T2", "T3"):
        m[f"verify.fail_share.{check}"] = _share(sum(attr(s, "check") == check for s in verified), len(verified))
    m["verify.self_ms_per_doc"] = sum(self_time(s) for s in verified) * 1000 / docs

    requests = sum(stub["requests"].values()) + stub["failed"]
    completed = [s for s in calls if s.error is None]
    call_ms = [s.duration * 1000 for s in calls]
    m["backends.connections_per_call"] = _share(stub["connections"], requests)
    m["backends.overhead_ms_per_call"] = _share(sum(call_ms) - stub["service_s"] * 1000, len(calls))
    m["backends.call_p50_ms"] = _percentile(call_ms, 50)
    m["backends.call_p95_ms"] = _percentile(call_ms, 95)
    m["backends.retries"] = requests - len(completed)
    m["backends.prefix_cached_share"] = _share(stub["cached_chars"], stub["serialized_chars"])

    renders = by_name["schemas.render_schema_as_code"]
    m["schemas.render_calls_per_doc"] = len(renders) / docs
    m["schemas.render_ms_per_doc"] = sum(s.duration for s in renders) * 1000 / docs
    m["schemas.load_ms"] = sum(s.duration for s in by_name["schemas.load_ontology"]) * 1000
    m["corpus.load_ms"] = sum(s.duration for s in by_name["corpus.load_corpus"]) * 1000
    m["prompts.build_ms_per_doc"] = sum(self_time(s) for b in PROMPT_SPANS for s in by_name[b]) * 1000 / docs
    shares = [attr(s, "prefix_share") for s in by_name["prompts.planning_prompt"]]
    shares = [share for share in shares if share is not None]
    m["prompts.planning_prefix_share"] = statistics.fmean(shares) if shares else 0.0

    for layer in SELF_TIME_LAYERS:
        total = sum(self_time(s) for s in spans if s.name.split(".", 1)[0] == layer)
        m[f"{layer}.self_ms_per_doc"] = total * 1000 / docs
    return m
