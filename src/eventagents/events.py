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

from .errors import has_surrogate, json_fault
from .records import FrozenRecord, Record, set_field
from .schemas import _IDENT_RE, EventSchema, SchemaRegistry

EVENT_FIELDS = ("event_type", "trigger", "arguments")


class EventObject(Record):
    """A fully specified event: type, trigger span text, role values."""

    def __init__(self, event_type: str, trigger: str, arguments: dict[str, list]):
        if not isinstance(event_type, str) or not event_type:
            raise ValueError("event_type must be a non-empty string")
        if not isinstance(trigger, str):
            raise ValueError("trigger must be a string")
        if not isinstance(arguments, dict):
            raise ValueError("arguments must map role names to value lists")
        for role, values in arguments.items():
            if not isinstance(role, str) or not role:
                raise ValueError("argument role names must be non-empty strings")
            if not isinstance(values, list):
                raise ValueError(f"values of role {role!r} must be a list")
            for value in values:
                if not isinstance(value, (str, int, float, bool)):
                    raise ValueError(f"role {role!r} holds an unsupported value {value!r}")
        self.event_type = event_type
        self.trigger = trigger
        self.arguments = arguments


class ParseFailure(FrozenRecord):
    """Why a piece of generated code was rejected, and where."""

    def __init__(self, message: str, line: int, col: int):
        set_field(self, "message", message)
        set_field(self, "line", line)
        set_field(self, "col", col)

    def describe(self) -> str:
        return f"line {self.line}, col {self.col}: {self.message}"


class CodeObject(Record):
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
        self.raw_source = raw_source
        self.parsed = parsed
        self.failure = failure
        self.extra_fields = extra_fields


class _ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(message)
        self.message = message
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
    r"|(?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
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
    try:
        value = float(text) if "." in text or "e" in text or "E" in text else int(text)
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
        if "mention" not in kwargs:
            raise _ParseError("missing required keyword 'mention'", rparen.pos)
        mention = kwargs.pop("mention")
        if not isinstance(mention, str):
            raise _ParseError("keyword 'mention' must be a string literal", name.pos)
        arguments = {k: v if isinstance(v, list) else [v] for k, v in kwargs.items()}
        return EventObject(event_type=name.text, trigger=mention, arguments=arguments)

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


def _is_scalar(value: Any) -> bool:
    """A string, boolean or number JSON can carry (NaN and infinities cannot)."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, (str, int, bool))


def _parse_object_notation(source: str) -> tuple[EventObject, tuple[str, ...]]:
    try:
        data = json.loads(source)
    except (ValueError, RecursionError) as exc:
        position = exc.pos if isinstance(exc, json.JSONDecodeError) else 0
        raise _ParseError(f"malformed object notation: {json_fault(exc)}", position) from None
    # parse_event_code sends only text whose first non-blank character is
    # "{", so what parsed is an object.
    for key in EVENT_FIELDS:
        if key not in data:
            raise _ParseError(f"missing required field {key!r}", 0)
    event_type = data["event_type"]
    trigger = data["trigger"]
    raw_arguments = data["arguments"]
    if not isinstance(event_type, str) or not event_type:
        raise _ParseError("'event_type' must be a non-empty string", 0)
    if not isinstance(trigger, str):
        raise _ParseError("'trigger' must be a string", 0)
    if not isinstance(raw_arguments, dict):
        raise _ParseError("'arguments' must be an object", 0)
    arguments: dict[str, list] = {}
    for role, value in raw_arguments.items():
        if not role:
            raise _ParseError("argument role names must be non-empty", 0)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, list):
                    raise _ParseError(f"nested lists are not allowed in role {role!r}", 0)
                if not _is_scalar(item):
                    raise _ParseError(
                        f"values of role {role!r} must be strings, numbers or booleans", 0
                    )
            arguments[role] = list(value)
        elif _is_scalar(value):
            arguments[role] = [value]
        else:
            raise _ParseError(
                f"values of role {role!r} must be strings, numbers or booleans", 0
            )
    strings = [*data, event_type, trigger, *arguments]
    strings += [value for values in arguments.values() for value in values if isinstance(value, str)]
    for value in strings:
        if has_surrogate(value):
            raise _ParseError(f"string {value!r} holds a lone surrogate, which UTF-8 cannot encode", 0)
    extras = tuple(k for k in data if k not in EVENT_FIELDS)
    return EventObject(event_type=event_type, trigger=trigger, arguments=arguments), extras


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
    except _ParseError as exc:
        line = source.count("\n", 0, exc.pos) + 1
        col = exc.pos - source.rfind("\n", 0, exc.pos)
        return CodeObject(raw_source=source, failure=ParseFailure(exc.message, line, col))
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

