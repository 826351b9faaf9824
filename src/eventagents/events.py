"""The constrained event-construction language and its canonical form.

The coding agent answers with a single event construction in one of two
surface forms:

* a constructor call mirroring the rendered schema classes, for example
  ``Databreach(mention="breach", tool=["malware"])``, whose keyword
  arguments carry string, number or boolean literals, or flat lists of
  them;
* object notation, a JSON object with the keys ``event_type``,
  ``trigger`` and ``arguments``.

Both normalize to the same :class:`EventObject`; ``mention`` in the
constructor form maps to ``trigger``.  Nothing is ever executed.  Parsing
is total: bad input produces a :class:`CodeObject` carrying a positioned
:class:`ParseFailure` instead of an exception, and the failure text is
what the refinement loop feeds back to the coding agent.  A fault is
found at one character offset into the source, which becomes ``line,
col`` by :class:`json.JSONDecodeError`'s rule: lines end at ``\\n`` only,
and every other character (``\\t``, ``\\r``, one outside the Basic
Multilingual Plane) is one column.

Scalar argument values are normalized to singleton lists so multiplicity
checking is uniform downstream.  Unknown roles are kept; rejecting them
is the type checker's job, not the parser's.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, NamedTuple

from .errors import json_fault, refuse_surrogates
from .records import FrozenRecord, set_field
from .schemas import _IDENT_RE, MENTION_FIELD, EventSchema, SchemaRegistry

EVENT_FIELDS = ("event_type", "trigger", "arguments")


def _is_scalar(value: Any) -> bool:
    """A string, boolean or number JSON can carry: not NaN, an infinity, or
    an integer longer than Python writes as decimal text."""
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, int):
        try:
            str(value)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            return False
        return True
    return isinstance(value, str)


class EventObject(FrozenRecord):
    """A fully specified event: type, trigger span text, role values.

    A role takes a list of values or one scalar, kept as a one-element
    list.  The constructor refuses what object notation refuses, in its
    words, then a lone surrogate, so every event can be written as UTF-8
    JSON.  The event keeps its own copy of the dict and its lists.
    """

    def __init__(self, event_type: str, trigger: str, arguments: dict[str, Any]):
        if not isinstance(event_type, str) or not event_type:
            raise ValueError("'event_type' must be a non-empty string")
        if not isinstance(trigger, str):
            raise ValueError("'trigger' must be a string")
        if not isinstance(arguments, dict):
            raise ValueError("'arguments' must be an object")
        arguments = {role: list(values) if isinstance(values, list) else [values] for role, values in arguments.items()}
        for role, values in arguments.items():
            if not isinstance(role, str):
                raise ValueError(f"argument role name {role!r} is not a string")
            if not role:
                raise ValueError("argument role names must be non-empty")
            for value in values:
                if isinstance(value, list):
                    raise ValueError(f"nested lists are not allowed in role {role!r}")
                if not _is_scalar(value):
                    raise ValueError(f"values of role {role!r} must be strings, numbers or booleans")
        strings = [value for values in arguments.values() for value in values if isinstance(value, str)]
        refuse_surrogates(event_type, trigger, *arguments, *strings)
        set_field(self, "event_type", event_type)
        set_field(self, "trigger", trigger)
        set_field(self, "arguments", arguments)


class ParseFailure(FrozenRecord):
    """Why a piece of generated code was rejected, and where."""

    def __init__(self, message: str, line: int, col: int):
        set_field(self, "message", message)
        set_field(self, "line", line)
        set_field(self, "col", col)

    def describe(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class CodeObject(FrozenRecord):
    """Generated source text together with its parse outcome.

    ``extra_fields`` records unexpected top-level keys seen in object
    notation; they parse fine but fail the structural check later.
    """

    def __init__(
        self,
        raw_source: str,
        parsed: EventObject | None = None,
        failure: ParseFailure | None = None,
        extra_fields: tuple[str, ...] = (),
    ):
        if (parsed is None) == (failure is None):
            raise ValueError("exactly one of parsed/failure must be set")
        set_field(self, "raw_source", raw_source)
        set_field(self, "parsed", parsed)
        set_field(self, "failure", failure)
        set_field(self, "extra_fields", extra_fields)


class _ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.pos = pos


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_ESCAPES = {"\\": "\\", "'": "'", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_ESCAPE_RE = re.compile(r"\\(.)")
_VALID_ESCAPE = r"\\[%s]" % re.escape("".join(_ESCAPES))
# One alternative per token kind, tried in order; the group name is the
# kind.  A string without its closing quote matches ``open_string`` up to
# its first fault: a bad escape (a backslash at the very end is none), a
# newline, or the end of the input.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<lbracket>\[)|(?P<rbracket>\])|(?P<comma>,)|(?P<equals>=)"
    rf"""|(?P<string>"(?:[^"\\\n]|{_VALID_ESCAPE})*"|'(?:[^'\\\n]|{_VALID_ESCAPE})*')"""
    rf"""|(?P<open_string>["'](?:[^\\\n]|{_VALID_ESCAPE})*)"""
    r"|(?P<number>-?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    r"|(?P<other>[\s\S])"
)


def _scan(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind, text, pos = m.lastgroup, m.group(), m.start()
        if kind is None:  # whitespace
            continue
        if kind == "string":
            text = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], text[1:-1])
        elif kind == "open_string":
            end = m.end()
            if source.startswith("\\", end) and end + 1 < len(source):
                raise _ParseError(f"invalid escape sequence '\\{source[end + 1]}'", end)
            raise _ParseError("unterminated string literal", pos)
        elif kind == "other":
            raise _ParseError(f"unexpected character {text!r}", pos)
        tokens.append(_Token(kind, text, pos))
    tokens.append(_Token("eof", "", len(source)))
    return tokens


def _show(tok: _Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


def _as_number(tok: _Token) -> int | float:
    text = tok.text
    is_float = "." in text or "e" in text or "E" in text
    if not is_float and text.lstrip("-").startswith("0") and text.strip("-0"):
        raise _ParseError("leading zeros in integer literals are not allowed", tok.pos)
    try:
        value = float(text) if is_float else int(text)
    except ValueError:  # more digits than int() converts
        value = None
    if not _is_scalar(value):
        raise _ParseError("number literal out of range", tok.pos)
    return value


class _ConstructorParser:
    """Recursive descent over the tiny constructor-call grammar."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise _ParseError(f"expected {what}, got {_show(tok)}", tok.pos)
        return tok

    def parse(self) -> EventObject:
        name = self.expect("ident", "a class name")
        self.expect("lparen", "'('")
        kwargs: dict[str, Any] = {}
        while (tok := self.peek()).kind != "rparen":
            if tok.kind in ("string", "number", "lbracket"):
                raise _ParseError("positional arguments are not allowed", tok.pos)
            name_tok = self.expect("ident", "a keyword argument")
            nxt = self.peek()
            if nxt.kind != "equals":
                if nxt.kind in ("comma", "rparen"):
                    raise _ParseError("positional arguments are not allowed", name_tok.pos)
                raise _ParseError(f"expected '=' after {name_tok.text!r}, got {_show(nxt)}", nxt.pos)
            self.advance()
            if name_tok.text in kwargs:
                raise _ParseError(f"duplicate keyword argument {name_tok.text!r}", name_tok.pos)
            kwargs[name_tok.text] = self.parse_value(allow_list=True)
            if self.peek().kind != "rparen":
                self.expect("comma", "',' or ')'")
        rparen = self.advance()
        trailing = self.peek()
        if trailing.kind != "eof":
            raise _ParseError(f"unexpected trailing content {_show(trailing)}", trailing.pos)
        if MENTION_FIELD not in kwargs:
            raise _ParseError(f"missing required keyword {MENTION_FIELD!r}", rparen.pos)
        mention = kwargs.pop(MENTION_FIELD)
        if not isinstance(mention, str):
            raise _ParseError(f"keyword {MENTION_FIELD!r} must be a string literal", name.pos)
        return EventObject(name.text, mention, kwargs)

    def parse_value(self, allow_list: bool) -> Any:
        tok = self.advance()
        if tok.kind == "string":
            return tok.text
        if tok.kind == "number":
            return _as_number(tok)
        if tok.kind == "ident":
            if tok.text == "True":
                return True
            if tok.text == "False":
                return False
            raise _ParseError(
                f"expected a string, number, boolean or list, got {tok.text!r}", tok.pos
            )
        if tok.kind == "lbracket":
            if not allow_list:
                raise _ParseError("nested lists are not allowed", tok.pos)
            values: list[Any] = []
            while self.peek().kind != "rbracket":
                values.append(self.parse_value(allow_list=False))
                if self.peek().kind != "rbracket":
                    self.expect("comma", "',' or ']'")
            self.advance()
            return values
        raise _ParseError(f"expected a value, got {_show(tok)}", tok.pos)


def event_from_object(data) -> tuple[EventObject, tuple[str, ...]]:
    """A decoded object notation's event and unexpected keys; a fault raises ``ValueError``."""
    if not isinstance(data, dict):
        raise ValueError("event must be an object")
    for key in EVENT_FIELDS:
        if key not in data:
            raise ValueError(f"missing required field {key!r}")
    event = EventObject(data["event_type"], data["trigger"], data["arguments"])
    extras = tuple(key for key in data if key not in EVENT_FIELDS)
    refuse_surrogates(*extras)
    return event, extras


def _parse_object_notation(source: str) -> tuple[EventObject, tuple[str, ...]]:
    try:
        data = json.loads(source)
    except (ValueError, RecursionError) as exc:
        position = exc.pos if isinstance(exc, json.JSONDecodeError) else 0
        raise _ParseError(f"malformed object notation: {json_fault(exc)}", position) from None
    return event_from_object(data)


def order_arguments(arguments: dict[str, list], schema: EventSchema) -> dict[str, list]:
    """Order roles by schema declaration, then unknown roles lexicographically."""
    known = [role.name for role in schema.roles if role.name in arguments]
    unknown = sorted(name for name in arguments if schema.find_role(name) is None)
    return {name: arguments[name] for name in [*known, *unknown]}


def parse_event_code(source: str, registry: SchemaRegistry | None = None) -> CodeObject:
    """Parse generated code text into a :class:`CodeObject`; never raises.

    A registry is only consulted to put a recognized event type's
    arguments into canonical role order; unresolved names still parse
    and fail later in verification.
    """
    head = source.lstrip()
    try:
        if not head:
            raise _ParseError("empty input", 0)
        if head.startswith("{"):
            event, extras = _parse_object_notation(source)
        else:
            event = _ConstructorParser(_scan(source)).parse()
            extras = ()
    except ValueError as exc:  # a refusal of the event itself has no position: offset 0
        pos = exc.pos if isinstance(exc, _ParseError) else 0
        line = source.count("\n", 0, pos) + 1
        col = pos - source.rfind("\n", 0, pos)
        return CodeObject(raw_source=source, failure=ParseFailure(str(exc), line, col))
    if registry is not None:
        schema = registry.get(event.event_type)
        if schema is not None:
            event = EventObject(event.event_type, event.trigger, order_arguments(event.arguments, schema))
    return CodeObject(raw_source=source, parsed=event, extra_fields=extras)


def event_payload(event: EventObject) -> dict:
    """An event's object notation as a JSON-ready dict.

    Key order is fixed: ``event_type``, ``trigger``, ``arguments``, and
    argument roles keep their stored order.  ``parse_event_code`` with a
    registry stores a known event type's roles in canonical order, so
    pipeline output is canonical.
    """
    copied = {role: list(values) for role, values in event.arguments.items()}
    return {"event_type": event.event_type, "trigger": event.trigger, "arguments": copied}


def serialize_event(event: EventObject) -> str:
    """Render :func:`event_payload` as one line of valid JSON."""
    return json.dumps(event_payload(event), ensure_ascii=False, allow_nan=False)

