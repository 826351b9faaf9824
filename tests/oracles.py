"""Independent reference implementations and data generators.

Everything here is deliberately written with different algorithms and
predicates than the package code (collect-all-then-minimize instead of
first-return, type identity instead of isinstance chains, bitmask search
instead of greedy matching) so agreement between the two is meaningful
evidence, not an echo.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache

from eventagents import (
    Document,
    EventObject,
    EventSchema,
    GoldEvent,
    Multiplicity,
    RoleSpec,
    Span,
    ValueType,
)

EVENT_TYPE_POOL = [
    "Databreach", "Ransom", "PatchVulnerability", "Protest", "Attack",
    "Merger", "Outbreak", "Launch",
]

ROLE_NAME_POOL = [
    "tool", "victim", "time", "place", "price", "patch", "cve",
    "number-of-data", "damage-amount", "vulnerable_system", "target",
    "actor", "amount", "device",
]

WORD_POOL = [
    "breach", "malware", "hospital", "Tuesday", "ransom", "server",
    "records", "phishing", "bank", "update", "June", "office", "spear",
    "million", "cafe", "laptop", "clinic", "network",
]

TRICKY_STRINGS = [
    "New York",
    "10,000 records",
    "café branch",
    "line\nbreak",
    "tab\tseparated",
    'quote"inside',
    "apostrophe's",
    "back\\slash",
]


# ---------------------------------------------------------------------------
# Type-check oracle


def _type_ok(value, value_type: ValueType) -> bool:
    if value_type is ValueType.STRING:
        return type(value) is str
    if value_type is ValueType.BOOLEAN:
        return type(value) is bool
    if value_type is ValueType.INTEGER:
        return type(value) is int
    return type(value) in (int, float)


def brute_force_type_check(event: EventObject, schema: EventSchema) -> tuple[bool, str | None]:
    """Reference verdict for the type stage: (ok, first offending locus).

    Collects every violation with an ordering key and minimizes, instead
    of returning on the first hit.
    """
    if event.event_type != schema.event_type:
        return False, "event_type"
    role_specs = {role.name: role for role in schema.roles}
    violations: list[tuple[tuple, str]] = []
    for i, (name, values) in enumerate(event.arguments.items()):
        spec = role_specs.get(name)
        if spec is None:
            violations.append(((i, 0, 0), name))
            continue
        for j, value in enumerate(values):
            if not _type_ok(value, spec.value_type):
                violations.append(((i, 1, j), name))
        count = len(values)
        if spec.multiplicity is Multiplicity.REQUIRED_SCALAR and count != 1:
            violations.append(((i, 2, 0), name))
        elif spec.multiplicity is Multiplicity.OPTIONAL_SCALAR and count > 1:
            violations.append(((i, 2, 0), name))
    base = len(event.arguments)
    for d, role in enumerate(schema.roles):
        if role.multiplicity is Multiplicity.REQUIRED_SCALAR and role.name not in event.arguments:
            violations.append(((base + d + 1, 0, 0), role.name))
    if not violations:
        return True, None
    return False, min(violations)[1]


# ---------------------------------------------------------------------------
# Optimal one-to-one matcher


def optimal_correct(pred_keys, gold_keys) -> int:
    """Maximum one-to-one matching size, by exhaustive bitmask search."""
    preds = tuple(pred_keys)
    gold = tuple(gold_keys)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(preds):
            return 0
        result = best(i + 1, used)
        for j, g in enumerate(gold):
            if not used >> j & 1 and preds[i] == g:
                result = max(result, 1 + best(i + 1, used | 1 << j))
        return result

    answer = best(0, 0)
    best.cache_clear()
    return answer


# ---------------------------------------------------------------------------
# Statistics recount


def recount_stats(docs) -> dict:
    n_docs = len(docs)
    mentions = 0
    token_total = 0
    multiword = 0
    for doc in docs:
        token_total += len(doc.tokens)
        for event in doc.gold_events:
            mentions += 1
            covering = [
                t for t in doc.tokens
                if not (t[1] <= event.trigger.start or t[0] >= event.trigger.end)
            ]
            if len(covering) > 1:
                multiword += 1
    return {
        "documents": n_docs,
        "event_mentions": mentions,
        "avg_doc_length_tokens": token_total / n_docs if n_docs else 0.0,
        "multiword_trigger_pct": 100.0 * multiword / mentions if mentions else 0.0,
    }


# ---------------------------------------------------------------------------
# Generators


def random_schema(rng: random.Random, max_roles: int = 5) -> EventSchema:
    event_type = rng.choice(EVENT_TYPE_POOL)
    names = rng.sample(ROLE_NAME_POOL, rng.randint(0, max_roles))
    roles = tuple(
        RoleSpec(name, rng.choice(list(ValueType)), rng.choice(list(Multiplicity)))
        for name in names
    )
    return EventSchema(event_type, roles)


def valid_value(rng: random.Random, value_type: ValueType):
    if value_type is ValueType.STRING:
        return rng.choice(WORD_POOL)
    if value_type is ValueType.INTEGER:
        return rng.randint(-1000, 1000)
    if value_type is ValueType.NUMBER:
        if rng.random() < 0.5:
            return rng.randint(-50, 50)
        return round(rng.uniform(-10, 10), 3)
    return rng.random() < 0.5


def invalid_value(rng: random.Random, value_type: ValueType):
    if value_type is ValueType.STRING:
        return rng.choice([rng.randint(0, 99), True, 1.5])
    if value_type is ValueType.INTEGER:
        return rng.choice(["word", True, 2.5])
    if value_type is ValueType.NUMBER:
        return rng.choice(["word", True, False])
    return rng.choice(["yes", 1, 0.25])


def random_event_for_schema(rng: random.Random, schema: EventSchema) -> EventObject:
    """An event that may or may not conform to the schema: wrong types,
    bad multiplicities, hallucinated or missing roles, stored in random
    order."""
    event_type = schema.event_type
    if rng.random() < 0.08:
        event_type = schema.event_type + "X"
    arguments: dict[str, list] = {}
    for role in schema.roles:
        if rng.random() >= 0.75:
            continue
        if role.multiplicity is Multiplicity.REQUIRED_SCALAR:
            count = rng.choice([1, 1, 1, 0, 2])
        elif role.multiplicity is Multiplicity.OPTIONAL_SCALAR:
            count = rng.choice([0, 1, 1, 2])
        else:
            count = rng.randint(0, 3)
        values = []
        for _ in range(count):
            if rng.random() < 0.85:
                values.append(valid_value(rng, role.value_type))
            else:
                values.append(invalid_value(rng, role.value_type))
        arguments[role.name] = values
    if rng.random() < 0.15:
        spare = [n for n in ROLE_NAME_POOL if schema.find_role(n) is None and n not in arguments]
        if spare:
            arguments[rng.choice(spare)] = [rng.choice(WORD_POOL)]
    items = list(arguments.items())
    rng.shuffle(items)
    return EventObject(event_type, rng.choice(WORD_POOL), dict(items))


def random_event(rng: random.Random) -> EventObject:
    """An arbitrary well-formed event, schema-free, for round-trip tests."""
    arguments: dict[str, list] = {}
    for name in rng.sample(ROLE_NAME_POOL, rng.randint(0, 4)):
        values = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(5)
            if kind == 0:
                values.append(rng.choice(WORD_POOL))
            elif kind == 1:
                values.append(rng.choice(TRICKY_STRINGS))
            elif kind == 2:
                values.append(rng.randint(-10_000, 10_000))
            elif kind == 3:
                values.append(round(rng.uniform(-100, 100), 4))
            else:
                values.append(rng.random() < 0.5)
        arguments[name] = values
    trigger = rng.choice(WORD_POOL + ["data breach", "struck down"])
    return EventObject(rng.choice(EVENT_TYPE_POOL), trigger, arguments)


def _render_string(rng: random.Random, text: str) -> str:
    quote = rng.choice(["'", '"'])
    out = []
    for ch in text:
        if ch == "\\":
            out.append("\\\\")
        elif ch == quote:
            out.append("\\" + quote)
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    return quote + "".join(out) + quote


def _render_scalar(rng: random.Random, value) -> str:
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, str):
        return _render_string(rng, value)
    return repr(value)


def _space(rng: random.Random) -> str:
    return rng.choice(["", " ", "  ", "\n    ", " "])


def random_surface_pair(rng: random.Random) -> tuple[str, str, EventObject]:
    """(constructor text, object-notation text, expected event).

    Both texts are rendered here, independently of the package, with
    fuzzed spacing, quoting, scalar-vs-singleton forms and trailing
    commas.
    """
    event_type = rng.choice(EVENT_TYPE_POOL)
    trigger = rng.choice(WORD_POOL + TRICKY_STRINGS)
    roles: dict[str, list] = {}
    for name in rng.sample(ROLE_NAME_POOL, rng.randint(0, 4)):
        values = []
        for _ in range(rng.randint(0, 3)):
            kind = rng.randrange(4)
            if kind == 0:
                values.append(rng.choice(WORD_POOL))
            elif kind == 1:
                values.append(rng.choice(TRICKY_STRINGS))
            elif kind == 2:
                values.append(rng.randint(-999, 999))
            else:
                values.append(rng.random() < 0.5)
        roles[name] = values

    kwargs = [("mention", trigger)] + [(name, values) for name, values in roles.items()]
    rng.shuffle(kwargs)
    rendered = []
    for name, value in kwargs:
        if name == "mention":
            rhs = _render_string(rng, value)
        elif len(value) == 1 and rng.random() < 0.4:
            rhs = _render_scalar(rng, value[0])
        else:
            inner = ("," + _space(rng)).join(_render_scalar(rng, v) for v in value)
            if value and rng.random() < 0.2:
                inner += ","
            rhs = "[" + _space(rng) + inner + _space(rng) + "]"
        rendered.append(f"{name}{_space(rng)}={_space(rng)}{rhs}")
    body = ("," + _space(rng)).join(rendered)
    if rendered and rng.random() < 0.2:
        body += ","
    constructor = f"{event_type}{_space(rng)}({_space(rng)}{body}{_space(rng)})"

    json_arguments = {
        name: (values[0] if len(values) == 1 and rng.random() < 0.4 else values)
        for name, values in roles.items()
    }
    payload = {"event_type": event_type, "trigger": trigger, "arguments": json_arguments}
    object_text = json.dumps(payload, indent=rng.choice([None, None, 2]), ensure_ascii=rng.random() < 0.5)

    expected = EventObject(event_type, trigger, {name: list(values) for name, values in roles.items()})
    return constructor, object_text, expected


def canonical_event_for_schema(rng: random.Random, schema: EventSchema) -> EventObject:
    """A schema-conforming event whose stored role order is canonical."""
    arguments: dict[str, list] = {}
    for role in schema.roles:
        if role.multiplicity is Multiplicity.REQUIRED_SCALAR:
            count = 1
        elif role.multiplicity is Multiplicity.OPTIONAL_SCALAR:
            count = rng.randint(0, 1)
        else:
            count = rng.randint(0, 3)
        if count or role.multiplicity is Multiplicity.LIST and rng.random() < 0.5:
            arguments[role.name] = [valid_value(rng, role.value_type) for _ in range(count)]
    return EventObject(schema.event_type, rng.choice(WORD_POOL), arguments)


# ---------------------------------------------------------------------------
# Corpus generators


def random_gold_document(rng: random.Random, doc_id: str, event_types=None) -> Document:
    """A synthetic document with offset-consistent tokens and gold events."""
    event_types = event_types or EVENT_TYPE_POOL
    words = [rng.choice(WORD_POOL) for _ in range(rng.randint(4, 14))]
    text = " ".join(words)
    tokens = []
    cursor = 0
    for word in words:
        tokens.append((cursor, cursor + len(word)))
        cursor += len(word) + 1
    events = []
    for _ in range(rng.randint(0, 3)):
        width = rng.choice([1, 1, 1, 2])
        start_index = rng.randrange(0, len(tokens) - width + 1)
        start = tokens[start_index][0]
        end = tokens[start_index + width - 1][1]
        arguments = []
        for _ in range(rng.randint(0, 2)):
            arg_index = rng.randrange(len(tokens))
            arg_span = Span(text[tokens[arg_index][0] : tokens[arg_index][1]], *tokens[arg_index])
            arguments.append((rng.choice(ROLE_NAME_POOL), arg_span))
        events.append(
            GoldEvent(rng.choice(event_types), Span(text[start:end], start, end), tuple(arguments))
        )
    return Document(doc_id, text, tuple(tokens), tuple(events))


def random_gold_corpus(rng: random.Random, n_docs: int, **kwargs) -> list[Document]:
    return [random_gold_document(rng, f"doc-{i}", **kwargs) for i in range(n_docs)]


def perturbed_predictions(rng: random.Random, docs) -> dict[str, list[EventObject]]:
    """Predictions derived from gold with noise: kept, mistyped, dropped
    and spurious events; argument values likewise perturbed."""
    predictions: dict[str, list[EventObject]] = {}
    for doc in docs:
        events = []
        for gold_event in doc.gold_events:
            draw = rng.random()
            if draw < 0.25:
                continue
            trigger = doc.text[gold_event.trigger.start : gold_event.trigger.end]
            if draw < 0.35:
                trigger = trigger + "x"
            event_type = gold_event.event_type
            if rng.random() < 0.25:
                event_type = rng.choice(EVENT_TYPE_POOL)
            arguments: dict[str, list] = {}
            for role, span in gold_event.arguments:
                if rng.random() < 0.3:
                    continue
                value = doc.text[span.start : span.end]
                if rng.random() < 0.2:
                    value += "x"
                if rng.random() < 0.25:
                    role = rng.choice(ROLE_NAME_POOL)
                arguments.setdefault(role, []).append(value)
            events.append(EventObject(event_type, trigger, arguments))
        if rng.random() < 0.3:
            events.append(
                EventObject(rng.choice(EVENT_TYPE_POOL), rng.choice(WORD_POOL), {})
            )
        predictions[doc.id] = events
    return predictions


# ---------------------------------------------------------------------------
# Dual-loop oracle

# How the semantic judge reads each answer the dual-loop tests script:
# compatible, incompatible, or unparseable, which counts as incompatible.
JUDGE_READS = {"yes": True, "Yes, it fits.": True, "no": False, "No.": False, "maybe": None, "": None}


class _BackendDown(Exception):
    """The one failing backend call of a dual-loop case."""


def dual_loop_oracle(text, planned, known_types, config, coding, judge, fail_at=None, error="backend down"):
    """What ``extract_document`` makes of one document, transcribed from
    the ``run_planning_agent``, ``refine`` and ``extract_document``
    docstrings rather than from their code.

    ``planned`` is the planning reply as (trigger, event type, confidence)
    entries in reply order, and ``known_types`` the registry's event types.
    ``coding[(trigger, event_type)]`` holds one reply per attempt for that
    hypothesis: None for code that does not parse, else (mention, event
    type, whether the mention occurs in the text, whether the arguments
    pass the type check).  ``judge[(mention, event_type)]`` is the judge's
    answer, one of :data:`JUDGE_READS`.  The backend call numbered
    ``fail_at`` (planning is call 0) fails with ``error``.

    Returns ``(tried, events, outcome, notes, error, calls)``: ``tried``
    holds (trigger, event type, attempt) per coding call, ``events`` the
    accepted (mention, event type) pairs, and ``calls`` the answered calls
    per template.
    """
    calls: dict[str, int] = {}

    def call(template):
        if sum(calls.values()) == fail_at:
            raise _BackendDown
        calls[template] = calls.get(template, 0) + 1

    def position(trigger):
        found = text.lower().find(trigger.lower())
        return len(text) if found == -1 else found  # absent sorts after every offset

    # Best first: confidence, earliest mention, trigger text, reply order;
    # the first entry of each pair stands for it, and k of them are kept.
    order = sorted(range(len(planned)), key=lambda i: (-planned[i][2], position(planned[i][0]), planned[i][0], i))
    pool: list[tuple[str, str]] = []
    for i in order:
        if planned[i][:2] not in pool:
            pool.append(planned[i][:2])
    del pool[config.hypothesis_k :]

    tried: list[tuple[str, str, int]] = []
    events: list[tuple[str, str]] = []
    notes: list[str] = []
    answers: dict[tuple[str, str], bool | None] = {}
    cap = config.event_cap if config.multi_event else 1
    try:
        call("planning")
        if not pool:
            return tried, events, "no-hypotheses", ["planning produced no hypotheses"], None, calls
        while pool and len(events) < cap:
            if events:
                notes.append(f"multi-event: continuing after accepting {events[-1]!r}")
            accepted = None
            while pool and accepted is None:
                trigger, event_type = pool.pop(0)
                if event_type not in known_types:
                    notes.append(f"hypothesis ({trigger!r}, {event_type!r}) skipped: unknown event type")
                    continue
                for attempt in range(1, config.patch_attempts + 1):
                    call("coding")
                    tried.append((trigger, event_type, attempt))
                    reply = coding[trigger, event_type][attempt - 1]
                    if reply is None or not reply[2]:
                        continue  # T3, or T1 before any judge call
                    mention, reply_type, _, types_ok = reply
                    if config.mode == "llm":
                        question = (mention, reply_type)
                        if question not in answers:
                            call("semantic_judge")
                            answers[question] = JUDGE_READS[judge[question]]
                            if answers[question] is None:
                                notes.append(
                                    f"semantic judge on {question!r}: unparseable judge reply: {judge[question]!r}"
                                )
                        if not answers[question]:
                            continue
                    if types_ok:
                        accepted = (mention, event_type)
                        break
            if accepted is None:
                break
            events.append(accepted)
            pool = [pair for pair in pool if pair != accepted]
    except _BackendDown:
        if not events:
            return tried, [], "aborted", notes, error, calls
        notes.append(f"multi-event: continuation failed, keeping {len(events)} accepted event(s): {error}")
    return tried, events, "accepted" if events else "exhausted", notes, None, calls
