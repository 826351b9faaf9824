"""The whole per-document pipeline stays total and bounded under hostile replies.

``extract_document`` is driven with random and near-valid replies for
every prompt template, in strict and llm mode, at an event cap of 1
and above.  Replies are valid text, as every backend
guarantees, but the JSON inside them may carry ``\\ud800``-style
escapes that decode to lone surrogates.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import JUDGE_READS, dual_loop_oracle
from eventagents import (
    BackendError,
    EventSchema,
    Multiplicity,
    PipelineConfig,
    RoleSpec,
    SchemaRegistry,
    ValueType,
    extract_document,
)
from eventagents.events import event_payload
from eventagents.prompts import planning_head
from eventagents.refine import RunContext, build_run_context, trace_to_records
from eventagents.schemas import render_schema_as_code

TEXT = "Hackers demanded a ransom of 500 coins after the breach on Friday."
REGISTRY = SchemaRegistry([
    EventSchema("Ransom", (
        RoleSpec("price", ValueType.INTEGER, Multiplicity.OPTIONAL_SCALAR),
        RoleSpec("victim"),
    )),
    EventSchema("Databreach", (RoleSpec("time", multiplicity=Multiplicity.REQUIRED_SCALAR),)),
])

# Strings that json.dumps writes with a lone-surrogate escape come last,
# because hypothesis favours early entries.
TRIGGERS = st.sampled_from(["demanded", "breach", "ransom", "absent", "", "demanded\ud800"])
# Names a constructor call spells out as they are, so they hold no surrogate.
TYPE_NAMES = ["Ransom", "Databreach", "Unknown", ""]
ROLE_NAMES = ["price", "victim", "time", "extra", ""]
EVENT_TYPES = st.sampled_from([*TYPE_NAMES, "Ransom\udfff"])
ROLES = st.sampled_from([*ROLE_NAMES, "\ud800"])
VALUES = st.sampled_from(["Friday", 500, 2.5, True, None, [1, [2]], float("nan"), "\udc00"])
LITERALS = st.sampled_from(['"Friday"', "500", "-2.5", "True", "[1, 2]", '"\\q"', "1e999", '"\\ud800"'])

RETRIEVAL = st.sampled_from(["", "  ", "Attackers demanded a ransom."]) | st.text(max_size=20)
HYPOTHESIS = st.fixed_dictionaries(
    {"trigger": TRIGGERS, "event_type": EVENT_TYPES},
    optional={
        "confidence": st.none() | st.floats() | st.integers(),
        "rationale": st.sampled_from(["", "why\ud800"]),
    },
)
# One bad entry makes the whole planning reply malformed, so most
# replies hold only usable entries.
USABLE_HYPOTHESIS = st.fixed_dictionaries(
    {
        "trigger": st.sampled_from(["demanded", "breach", "ransom", "absent"]),
        "event_type": st.sampled_from(TYPE_NAMES[:3]),
    },
    optional={"confidence": st.floats(0, 1)},
)
PLANNING = st.one_of(
    st.lists(USABLE_HYPOTHESIS, min_size=1, max_size=4).map(json.dumps),
    st.lists(USABLE_HYPOTHESIS, max_size=4).map(lambda items: "```json\n%s\n```" % json.dumps(items)),
    st.lists(USABLE_HYPOTHESIS | HYPOTHESIS, min_size=1, max_size=3).map(json.dumps),
    st.sampled_from(["[]", "no events here"]) | st.text(max_size=20),
)
# Replies that verify for a matching hypothesis, and one that would if
# a lone surrogate counted as text.
VALID_CODING = st.sampled_from([
    'Ransom(mention="demanded", price=500, victim=["the bank"])',
    'Databreach(mention="breach", time="Friday")',
    '{"event_type": "Ransom", "trigger": "ransom", "arguments": {"price": 500}}',
    '{"event_type": "Ransom", "trigger": "demanded", "arguments": {"victim": ["\\ud800"]}}',
])
OBJECT_NOTATION = st.builds(
    lambda event_type, trigger, arguments: json.dumps(
        {"event_type": event_type, "trigger": trigger, "arguments": arguments}
    ),
    EVENT_TYPES,
    TRIGGERS,
    st.dictionaries(ROLES, VALUES | st.lists(VALUES, max_size=2), max_size=3),
)
CONSTRUCTOR = st.builds(
    lambda event_type, trigger, pairs: "%s(mention=%s%s)" % (
        event_type,
        json.dumps(trigger),
        "".join(f", {role}={literal}" for role, literal in pairs),
    ),
    st.sampled_from(TYPE_NAMES),
    TRIGGERS,
    st.lists(st.tuples(st.sampled_from(ROLE_NAMES), LITERALS), max_size=3),
)
CODING = st.one_of(
    VALID_CODING,
    VALID_CODING,
    VALID_CODING,
    OBJECT_NOTATION,
    CONSTRUCTOR,
    CONSTRUCTOR.map(lambda code: f"```python\n{code}\n```"),
    st.text(max_size=30),
)
JUDGE = st.sampled_from(["yes", "no", "Yes, it fits.", "maybe", ""])
REPLIES = {
    "retrieval": RETRIEVAL,
    "planning": PLANNING,
    "planning_retry": PLANNING,
    "coding": CODING,
    "semantic_judge": JUDGE,
}

CONFIGS = st.builds(
    PipelineConfig,
    hypothesis_k=st.integers(1, 3),
    patch_attempts=st.integers(1, 3),
    mode=st.sampled_from(["strict", "llm"]),
    exemplar_k=st.integers(1, 2),
    event_cap=st.integers(1, 3),
)


class DrawingBackend:
    """Answers each request with a reply drawn for its template; unless
    built with ``fails=False``, now and then the call fails instead.
    Records the template of every answer, and of the failed call."""

    def __init__(self, data, fails=True):
        self.data = data
        self.fails = fails
        self.answered: list[str] = []
        self.failed: str | None = None

    def complete(self, request):
        if self.fails and self.data.draw(st.integers(0, 49)) == 0:
            self.failed = request.template_id
            raise BackendError("backend down")
        reply = self.data.draw(REPLIES[request.template_id])
        self.answered.append(request.template_id)
        return reply


ATTEMPT_KEYS = ["trigger", "event_type", "confidence", "attempt", "code", "event", "verdict", "diagnostic"]


def encodes(record) -> None:
    json.dumps(record, ensure_ascii=False, allow_nan=False).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(CONFIGS, st.data())
def test_extract_document_is_total_and_bounded(config, data):
    # Retrieval runs before, on a backend that never fails, so every drawn
    # failure lands in planning, coding or the judge.
    context = build_run_context(REGISTRY, DrawingBackend(data, fails=False), config.exemplar_k)
    backend = DrawingBackend(data)
    events, trace = extract_document(TEXT, REGISTRY, config, backend, context=context)

    # A skipped document says why, and returns no events.
    assert (trace.error is not None) == (trace.outcome == "aborted")
    if trace.outcome == "aborted":
        assert events == []
    attempts = trace.attempts
    assert all(list(attempt) == ATTEMPT_KEYS for attempt in attempts)
    coding_calls = backend.answered.count("coding")
    # Every paid coding reply is in the trace, even one whose judge call failed.
    assert coding_calls == len(attempts)
    # Each kept hypothesis is taken up once per document, event cap or not.
    assert coding_calls <= config.hypothesis_k * config.patch_attempts
    # The judge is asked about the (trigger, type) pairs of parsed events, each at most once.
    pairs = {(a["event"]["trigger"], a["event"]["event_type"]) for a in attempts if a["event"] is not None}
    judge_calls = backend.answered.count("semantic_judge")
    assert judge_calls <= len(pairs)
    if config.mode == "strict":
        assert judge_calls == 0

    for event in events:
        encodes(event_payload(event))
    for record in trace_to_records(trace, "doc-1"):
        encodes(record)


# Planning entries that are all usable, so that the reply parses, but
# tie, default, clamp, vary in case, miss the text or name unknown types.
RANKED_HYPOTHESIS = st.fixed_dictionaries(
    {
        "trigger": st.sampled_from(["demanded", "Demanded", "BREACH", "breach", "ransom", "Friday", "absent", "zzz"]),
        "event_type": st.sampled_from(TYPE_NAMES[:3]),
    },
    optional={"confidence": st.sampled_from([0.5, 0.5, 0.9, 0.0, 1.0, -1, 2, 10**400, None]) | st.floats()},
)


class PlannedBackend:
    """Answers planning with one reply and fails every coding attempt
    with an empty reply."""

    def __init__(self, planning):
        self.planning = planning

    def complete(self, request):
        return self.planning if request.template_id == "planning" else ""


def tried(planning, hypothesis_k):
    config = PipelineConfig(hypothesis_k=hypothesis_k, patch_attempts=1)
    context = RunContext(planning_head(REGISTRY), ())
    _, trace = extract_document(TEXT, REGISTRY, config, PlannedBackend(planning), context=context)
    return [(attempt["trigger"], attempt["event_type"]) for attempt in trace.attempts]


@settings(max_examples=300, deadline=None)
@given(st.lists(RANKED_HYPOTHESIS, min_size=1, max_size=6).map(json.dumps), st.integers(1, 4))
def test_a_smaller_hypothesis_k_tries_a_prefix(planning, hypothesis_k):
    # Planning keeps the first k of one best-first order, and refine takes
    # them front to back, so one more hypothesis only extends the tries.
    smaller, larger = tried(planning, hypothesis_k), tried(planning, hypothesis_k + 1)
    assert larger[: len(smaller)] == smaller
    # A repeated (trigger, type) pair takes one slot and is tried once.
    assert len(set(larger)) == len(larger)


# A mention and whether it occurs in TEXT as words; planned triggers come
# from the same table, so they tie in position and differ only in case.
MENTIONS = {"demanded": True, "Demanded": True, "ransom": True, "breach": True, "Friday": True, "absent": False, "zzz": False}
MENTIONS.update({mention.swapcase(): found for mention, found in MENTIONS.items()})
KNOWN_TYPES = ("Ransom", "Databreach")
# Arguments that pass or fail the type check, per event type.
ARGUMENTS = {
    ("Ransom", True): ", price=500",
    ("Ransom", False): ', price="lots"',
    ("Databreach", True): ', time="Friday"',
    ("Databreach", False): "",
}
UNPARSEABLE = ["", "Ransom(mention=", "no code here"]
TYPE_OF_DEFINITION = {render_schema_as_code(schema): schema.event_type for schema in REGISTRY}
# Mostly yes, so that llm-mode documents get past the judge.
JUDGE_ANSWERS = st.sampled_from(["yes", "Yes, it fits.", "yes", *JUDGE_READS])
PLANNED = st.tuples(
    st.sampled_from(list(MENTIONS)),
    st.sampled_from([*KNOWN_TYPES, "Unknown"]),
    st.sampled_from([0.5, 0.9, 0.2]),
)


@st.composite
def coding_reply(draw, trigger, event_type):
    """One coding reply for a hypothesis, as text and as the oracle reads
    it: valid with the planned mention, the planned mention in another
    case, or another mention; a T2 fault; the wrong event type; or
    unparseable or empty."""
    kind = draw(st.integers(0, 7))  # hypothesis favours 0, so valid replies come first
    if kind == 7:
        return draw(st.sampled_from(UNPARSEABLE)), None
    mention = trigger
    if kind == 3:
        mention = trigger.swapcase()
    elif kind == 4:
        mention = draw(st.sampled_from(list(MENTIONS)))
    reply_type = event_type if event_type in KNOWN_TYPES else KNOWN_TYPES[0]
    if kind == 6:
        reply_type = KNOWN_TYPES[1 - KNOWN_TYPES.index(reply_type)]
    code = f"{reply_type}(mention={json.dumps(mention)}{ARGUMENTS[reply_type, kind != 5]})"
    return code, (mention, reply_type, MENTIONS[mention], kind < 5)


class TableBackend:
    """Answers planning with one reply, each coding call from the table of
    its hypothesis's attempts, and the judge from a table of questions.
    The call numbered ``fail_at`` fails; answered calls are counted per
    template."""

    def __init__(self, planning, coding, judge, fail_at):
        self.planning, self.coding, self.judge, self.fail_at = planning, coding, judge, fail_at
        self.answered: dict[str, int] = {}
        self.attempts: dict[tuple[str, str], int] = {}

    def complete(self, request):
        if sum(self.answered.values()) == self.fail_at:
            raise BackendError("backend down")
        bindings = dict(request.bindings)
        if request.template_id == "planning":
            reply = self.planning
        elif request.template_id == "coding":
            pair = (bindings["trigger"], TYPE_OF_DEFINITION[bindings["definition"]])
            self.attempts[pair] = self.attempts.get(pair, 0) + 1
            reply = self.coding[pair][self.attempts[pair] - 1]
        else:
            reply = self.judge[bindings["trigger"], bindings["event_type"]]
        self.answered[request.template_id] = self.answered.get(request.template_id, 0) + 1
        return reply


def run_and_expect(config, planned, replies, judge, fail_at):
    """What ``extract_document`` does with one case through a table
    backend, and what the reference loop says it should do."""
    planning = json.dumps([{"trigger": t, "event_type": e, "confidence": c} for t, e, c in planned])
    backend = TableBackend(
        planning, {pair: [code for code, _ in codes] for pair, codes in replies.items()}, judge, fail_at
    )
    events, trace = extract_document(TEXT, REGISTRY, config, backend, RunContext(planning_head(REGISTRY), ()))
    actual = (
        [(a["trigger"], a["event_type"], a["attempt"]) for a in trace.attempts],
        [(event.trigger, event.event_type) for event in events],
        trace.outcome,
        trace.notes,
        trace.error,
        backend.answered,
    )
    reads = {pair: [read for _, read in codes] for pair, codes in replies.items()}
    return actual, dual_loop_oracle(TEXT, planned, KNOWN_TYPES, config, reads, judge, fail_at)


@settings(max_examples=500, deadline=None)
@given(
    CONFIGS,
    st.lists(PLANNED, min_size=3, max_size=6),
    st.fixed_dictionaries({(m, t): JUDGE_ANSWERS for m in MENTIONS for t in KNOWN_TYPES}),
    st.data(),
)
def test_extract_document_follows_the_reference_loop(config, planned, judge, data):
    replies = {
        (trigger, event_type): [data.draw(coding_reply(trigger, event_type)) for _ in range(config.patch_attempts)]
        for trigger, event_type, _ in planned
    }
    reads = {pair: [read for _, read in codes] for pair, codes in replies.items()}
    # The failing call, if any, is one the document makes, counted from
    # its last, so that multi-event continuations fail often.
    calls = sum(dual_loop_oracle(TEXT, planned, KNOWN_TYPES, config, reads, judge)[5].values())
    fail_at = data.draw(st.none() | st.integers(1, calls).map(lambda back: calls - back))
    actual, expected = run_and_expect(config, planned, replies, judge, fail_at)
    assert actual == expected


def valid(mention, event_type):
    """A coding reply that verifies in strict mode, as text and as the oracle reads it."""
    return f"{event_type}(mention={json.dumps(mention)}{ARGUMENTS[event_type, True]})", (mention, event_type, True, True)


@pytest.mark.parametrize(
    "planned, replies, fail_at",
    [
        # The coder names the accepted trigger in another case; the
        # accepted hypothesis must still leave the pool.
        ([("Demanded", "Ransom", 0.9)], {("Demanded", "Ransom"): [valid("demanded", "Ransom")] * 2}, None),
        # The continuation's coding call fails; the accepted event stays.
        (
            [("demanded", "Ransom", 0.9), ("breach", "Databreach", 0.5)],
            {("demanded", "Ransom"): [valid("demanded", "Ransom")], ("breach", "Databreach"): [valid("breach", "Databreach")]},
            2,
        ),
    ],
    ids=["accepted-case-variant", "failed-continuation"],
)
def test_extract_document_follows_the_reference_loop_in_multi_event_mode(planned, replies, fail_at):
    config = PipelineConfig(patch_attempts=1, event_cap=2)
    actual, expected = run_and_expect(config, planned, replies, {}, fail_at)
    assert actual == expected


def test_the_reference_loop_gives_criterion_2s_counts():
    # Criterion 2's two scripts, whose answers are known: a rescue after
    # three failed attempts, and three hypotheses exhausted.
    text = "On Tuesday the company patched a vulnerability in its web server."
    triggers = ["patched", "vulnerability", "company"]
    planned = [(trigger, "PatchVulnerability", 0.9 - 0.1 * i) for i, trigger in enumerate(triggers)]
    broken = {(t, "PatchVulnerability"): [(t, "PatchVulnerability", True, False)] * 3 for t in triggers}
    rescued = {**broken, ("vulnerability", "PatchVulnerability"): [("vulnerability", "PatchVulnerability", True, True)]}

    tried, events, outcome, _, _, calls = dual_loop_oracle(
        text, planned[:2], {"PatchVulnerability"}, PipelineConfig(), rescued, {}
    )
    assert [attempt for _, _, attempt in tried] == [1, 2, 3, 1]
    assert (events, outcome, calls) == ([("vulnerability", "PatchVulnerability")], "accepted", {"planning": 1, "coding": 4})

    tried, events, outcome, _, _, calls = dual_loop_oracle(text, planned, {"PatchVulnerability"}, PipelineConfig(), broken, {})
    assert len(tried) == 9
    assert (events, outcome, calls) == ([], "exhausted", {"planning": 1, "coding": 9})
