"""Three-stage verification of generated event objects.

The verdict is the conjunction of three checks, reported with the first
failure only:

* T1 (semantic): the trigger occurs in the input text as a contiguous,
  case-insensitive token subsequence; when a judge is given, it must
  also agree the trigger fits the event type.  The judge is any
  ``judge(trigger, event_type) -> JudgeResult`` callable; refinement
  passes one that asks the backend in llm mode, so this module itself
  never calls a model.
* T2 (type): every argument role is declared by the schema, every value
  matches the role's value type, and multiplicity constraints hold.
* T3 (structural): the source parsed, and the object carries exactly
  the fields event_type/trigger/arguments.  What the object holds needs
  no check here: :class:`~eventagents.events.EventObject` refuses
  anything JSON cannot carry.

Check order for parsed objects is T1, T2, T3.  Source that does not
parse cannot be inspected at all, so it short-circuits straight to a T3
diagnostic carrying the parser's position message.

T2 walks the event's arguments in stored order and reports, per role:
first an undeclared-role diagnostic, then value type errors in list
order, then the multiplicity violation; schema roles missing from the
arguments are checked for required-scalar multiplicity afterwards, in
declaration order.  This ordering is part of the contract: diagnostics
must be reproducible because the patch prompt embeds them verbatim.
"""

from __future__ import annotations

import json
import re
from typing import Callable

from .events import CodeObject
from .records import FrozenRecord, set_field
from .schemas import EventSchema, Multiplicity, SCALAR_TYPE_NAMES, ValueType

_WORD_RE = re.compile(r"[^\W_]+")


class Diagnostic(FrozenRecord):
    """First-failure record: which check failed, why, and where."""

    def __init__(self, failed_check: str, message: str, locus: str):
        if failed_check not in ("T1", "T2", "T3"):
            raise ValueError(f"unknown check name {failed_check!r}")
        set_field(self, "failed_check", failed_check)
        set_field(self, "message", message)
        set_field(self, "locus", locus)

    def as_line(self) -> str:
        """Single-line rendering consumed verbatim by the patch prompt."""
        return f"[{self.failed_check}] {self.message} (at {self.locus})"


class JudgeResult(FrozenRecord):
    """The semantic judge's answer for one (trigger, event type) question."""

    def __init__(self, compatible: bool, warning: str | None = None):
        set_field(self, "compatible", compatible)
        set_field(self, "warning", warning)


class VerificationResult(FrozenRecord):
    """The first failure's diagnostic, or None when every check passed."""

    def __init__(self, diagnostic: Diagnostic | None = None):
        set_field(self, "diagnostic", diagnostic)

    @property
    def verdict(self) -> bool:
        return self.diagnostic is None


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens, split at whitespace and punctuation."""
    return _WORD_RE.findall(text.lower())


def contains_token_subsequence(haystack: list[str], needle: list[str]) -> bool:
    """True iff needle occurs in haystack as a contiguous run."""
    if not needle or len(needle) > len(haystack):
        return False
    span = len(needle)
    return any(haystack[i : i + span] == needle for i in range(len(haystack) - span + 1))


def check_semantic(
    code: CodeObject,
    text: str,
    judge: Callable[[str, str], JudgeResult] | None = None,
) -> Diagnostic | None:
    """T1: trigger occurrence, then the compatibility judge if one is given.

    ``judge(trigger, event_type)`` answers for this ``text``; it is only
    asked once the trigger has been found in the text.
    """
    _require_parsed(code)
    event = code.parsed
    if not contains_token_subsequence(tokenize(text), tokenize(event.trigger)):
        return Diagnostic("T1", f"trigger {event.trigger!r} not found in text", event.trigger or "trigger")
    if judge is not None and not judge(event.trigger, event.event_type).compatible:
        return Diagnostic(
            "T1",
            f"trigger {event.trigger!r} judged not semantically compatible with event type {event.event_type!r}",
            event.trigger,
        )
    return None


def _matches_type(value, value_type: ValueType) -> bool:
    if value_type is ValueType.STRING:
        return isinstance(value, str)
    if value_type is ValueType.BOOLEAN:
        return isinstance(value, bool)
    if value_type is ValueType.INTEGER:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_types(code: CodeObject, schema: EventSchema) -> Diagnostic | None:
    """T2: role existence, value types, and multiplicity."""
    _require_parsed(code)
    event = code.parsed
    if event.event_type != schema.event_type:
        return Diagnostic(
            "T2",
            f"event type {event.event_type!r} does not match schema {schema.event_type!r}",
            "event_type",
        )
    for role_name, values in event.arguments.items():
        role = schema.find_role(role_name)
        if role is None:
            return Diagnostic(
                "T2",
                f"role {role_name!r} is not defined by event type {schema.event_type!r}",
                role_name,
            )
        expected = SCALAR_TYPE_NAMES[role.value_type]
        for value in values:
            if not _matches_type(value, role.value_type):
                return Diagnostic(
                    "T2",
                    f"value {json.dumps(value)} is not of type {expected}",
                    role_name,
                )
        if role.multiplicity is Multiplicity.REQUIRED_SCALAR and len(values) != 1:
            return Diagnostic(
                "T2",
                f"role {role_name!r} expects exactly one value, got {len(values)}",
                role_name,
            )
        if role.multiplicity is Multiplicity.OPTIONAL_SCALAR and len(values) > 1:
            return Diagnostic(
                "T2",
                f"role {role_name!r} expects at most one value, got {len(values)}",
                role_name,
            )
    for role in schema.roles:
        if role.multiplicity is Multiplicity.REQUIRED_SCALAR and role.name not in event.arguments:
            return Diagnostic(
                "T2",
                f"role {role.name!r} expects exactly one value, got 0",
                role.name,
            )
    return None


def check_structure(code: CodeObject) -> Diagnostic | None:
    """T3: parsed, exact field set."""
    if code.failure is not None:
        return Diagnostic("T3", code.failure.describe(), "source")
    if code.extra_fields:
        return Diagnostic("T3", f"unexpected field {code.extra_fields[0]!r}", code.extra_fields[0])
    return None


def verify(
    code: CodeObject,
    text: str,
    schema: EventSchema,
    judge: Callable[[str, str], JudgeResult] | None = None,
) -> VerificationResult:
    """Run T1, T2, T3 in order and stop at the first failure.

    Unparsed source returns a T3 diagnostic immediately.  ``judge`` is
    passed to :func:`check_semantic`; an exception it raises, such as a
    backend failure, propagates: it is an operational problem, not a
    verdict.
    """
    if code.failure is not None:
        return VerificationResult(check_structure(code))
    diagnostic = (
        check_semantic(code, text, judge)
        or check_types(code, schema)
        or check_structure(code)
    )
    return VerificationResult(diagnostic)


def _require_parsed(code: CodeObject) -> None:
    if code.parsed is None:
        raise ValueError("check requires a parsed CodeObject; unparsed source belongs to check_structure")
