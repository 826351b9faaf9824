"""Event schemas, ontology loading, and the schema-as-code rendering.

An event schema pairs an event type name with an ordered list of argument
roles.  Each role declares a value type (``string``, ``integer``, ``number``
or ``boolean``) and a multiplicity (``list``, ``optional-scalar`` or
``required-scalar``).  Schemas are rendered as dataclass-style source text
so they can be embedded verbatim in prompts::

    @dataclass
    class Databreach:
        mention: str
        tool: List
        number-of-data: List
        victim: List
        time: List
        place: List

The ``mention`` field is always first and holds the trigger span.  Role
names may contain hyphens; the rendered text keeps them verbatim and the
parser treats a hyphenated name as a single token.  ``render_schema_as_code``
and ``parse_schema_code`` are mutual inverses: parsing a rendered schema
yields an equal schema, and rendering a parsed schema yields a canonical
reformatting of the source.

Ontologies are UTF-8 JSON documents: an array of objects with keys
``event_type`` and ``roles``, where each role object has ``name`` plus
optional ``value_type`` (default ``string``) and ``multiplicity``
(default ``list``).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Iterator

from .errors import EventAgentsError


class OntologyError(EventAgentsError):
    """Raised when an ontology document cannot be loaded."""


class SchemaCodeError(EventAgentsError):
    """Raised when class-definition text does not conform to the grammar."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class ValueType(str, Enum):
    STRING = "string"
    INTEGER = "integer"
    NUMBER = "number"
    BOOLEAN = "boolean"


class Multiplicity(str, Enum):
    LIST = "list"
    OPTIONAL_SCALAR = "optional-scalar"
    REQUIRED_SCALAR = "required-scalar"


# Grammar type names used in rendered annotations and diagnostics.
SCALAR_TYPE_NAMES = {
    ValueType.STRING: "str",
    ValueType.INTEGER: "int",
    ValueType.NUMBER: "float",
    ValueType.BOOLEAN: "bool",
}

_NAME_BY_SCALAR = {v: k for k, v in SCALAR_TYPE_NAMES.items()}

# Identifiers may contain interior hyphens ("number-of-data"); the
# schema-code grammar and the event-construction scanner share this.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

# The first body field of every rendered class; reserved, never a role name.
MENTION_FIELD = "mention"


def _is_ident(name: str) -> bool:
    return bool(_IDENT_RE.fullmatch(name))


@dataclass(frozen=True)
class RoleSpec:
    """One argument role: its name, expected value type and multiplicity."""

    name: str
    value_type: ValueType = ValueType.STRING
    multiplicity: Multiplicity = Multiplicity.LIST

    def __post_init__(self):
        if not self.name:
            raise ValueError("role name must be non-empty")
        if not _is_ident(self.name):
            raise ValueError(f"role name {self.name!r} is not a valid identifier (hyphens allowed)")
        if self.name == MENTION_FIELD:
            raise ValueError(f"role name {MENTION_FIELD!r} is reserved for the trigger field")


@dataclass(frozen=True)
class EventSchema:
    """An event type plus its ordered argument roles."""

    event_type: str
    roles: tuple[RoleSpec, ...] = ()

    def __post_init__(self):
        if not self.event_type:
            raise ValueError("event_type must be non-empty")
        if not _is_ident(self.event_type):
            raise ValueError(f"event type {self.event_type!r} is not a valid identifier")
        object.__setattr__(self, "roles", tuple(self.roles))
        seen = set()
        for role in self.roles:
            if role.name in seen:
                raise ValueError(f"duplicate role name {role.name!r} in event type {self.event_type!r}")
            seen.add(role.name)

    def role_names(self) -> tuple[str, ...]:
        return tuple(role.name for role in self.roles)

    def find_role(self, name: str) -> RoleSpec | None:
        for role in self.roles:
            if role.name == name:
                return role
        return None


class SchemaRegistry:
    """Immutable lookup table from event type to schema, in insertion order."""

    def __init__(self, schemas: Iterable[EventSchema] = ()):
        self._schemas: dict[str, EventSchema] = {}
        for schema in schemas:
            if schema.event_type in self._schemas:
                raise OntologyError(f"duplicate event type {schema.event_type!r}")
            self._schemas[schema.event_type] = schema

    def get(self, event_type: str) -> EventSchema | None:
        return self._schemas.get(event_type)

    def __contains__(self, event_type: str) -> bool:
        return event_type in self._schemas

    def __iter__(self) -> Iterator[EventSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    def event_types(self) -> tuple[str, ...]:
        return tuple(self._schemas)

    @cached_property
    def definitions(self) -> str:
        """Every schema rendered as code, separated by blank lines; the
        planning prompts of a run all reuse this one rendering."""
        return "\n\n".join(render_schema_as_code(schema).rstrip("\n") for schema in self)


def load_ontology(source: bytes | str | Any) -> SchemaRegistry:
    """Load an ontology document into a registry.

    ``source`` may be raw bytes, a decoded string, or a readable file
    object.  Declaration order of event types and roles is preserved.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        try:
            source = bytes(source).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OntologyError(f"ontology document is not valid UTF-8: {exc}") from exc
    try:
        document = json.loads(source)
    except (ValueError, RecursionError) as exc:  # also oversized integers and deep nesting
        raise OntologyError(f"malformed ontology document: {exc}") from exc
    if not isinstance(document, list):
        raise OntologyError("ontology document must be an array of event type declarations")

    schemas = []
    for i, entry in enumerate(document):
        if not isinstance(entry, dict):
            raise OntologyError(f"declaration #{i + 1} is not an object")
        event_type = entry.get("event_type")
        if not isinstance(event_type, str) or not event_type:
            raise OntologyError(f"declaration #{i + 1} has no usable 'event_type'")
        raw_roles = entry.get("roles", [])
        if not isinstance(raw_roles, list):
            raise OntologyError(f"'roles' of event type {event_type!r} must be an array")
        roles = []
        for raw in raw_roles:
            if not isinstance(raw, dict) or not isinstance(raw.get("name"), str) or not raw["name"]:
                raise OntologyError(f"event type {event_type!r} has a role without a usable 'name'")
            name = raw["name"]
            vt_name = raw.get("value_type", ValueType.STRING.value)
            try:
                value_type = ValueType(vt_name)
            except ValueError:
                raise OntologyError(
                    f"unknown value_type {vt_name!r} for role {name!r} in event type {event_type!r}"
                ) from None
            mult_name = raw.get("multiplicity", Multiplicity.LIST.value)
            try:
                multiplicity = Multiplicity(mult_name)
            except ValueError:
                raise OntologyError(
                    f"unknown multiplicity {mult_name!r} for role {name!r} in event type {event_type!r}"
                ) from None
            try:
                roles.append(RoleSpec(name, value_type, multiplicity))
            except ValueError as exc:
                raise OntologyError(f"event type {event_type!r}: {exc}") from None
        try:
            schemas.append(EventSchema(event_type, tuple(roles)))
        except ValueError as exc:
            raise OntologyError(str(exc)) from None
    return SchemaRegistry(schemas)


def _annotation(role: RoleSpec) -> str:
    scalar = SCALAR_TYPE_NAMES[role.value_type]
    if role.multiplicity is Multiplicity.LIST:
        # List of strings renders bare, matching the prompt listings.
        return "List" if role.value_type is ValueType.STRING else f"List[{scalar}]"
    if role.multiplicity is Multiplicity.OPTIONAL_SCALAR:
        return f"Optional[{scalar}]"
    return scalar


def render_schema_as_code(schema: EventSchema) -> str:
    """Render a schema as dataclass-style source text.

    Deterministic: the same schema always yields byte-identical text.  The
    ``mention`` field comes first, then one field per role in declaration
    order.
    """
    lines = ["@dataclass", f"class {schema.event_type}:", f"    {MENTION_FIELD}: str"]
    for role in schema.roles:
        lines.append(f"    {role.name}: {_annotation(role)}")
    return "\n".join(lines) + "\n"


def _parse_annotation(text: str, line_no: int, col: int) -> tuple[ValueType, Multiplicity]:
    text = text.strip()
    if text == "List":
        return ValueType.STRING, Multiplicity.LIST
    m = re.fullmatch(r"List\[\s*(\w+)\s*\]", text)
    if m:
        scalar = _NAME_BY_SCALAR.get(m.group(1))
        if scalar is None:
            raise SchemaCodeError(f"unknown field type {m.group(1)!r}", line_no, col)
        return scalar, Multiplicity.LIST
    m = re.fullmatch(r"Optional\[\s*(\w+)\s*\]", text)
    if m:
        scalar = _NAME_BY_SCALAR.get(m.group(1))
        if scalar is None:
            raise SchemaCodeError(f"unknown field type {m.group(1)!r}", line_no, col)
        return scalar, Multiplicity.OPTIONAL_SCALAR
    if text in _NAME_BY_SCALAR:
        return _NAME_BY_SCALAR[text], Multiplicity.REQUIRED_SCALAR
    raise SchemaCodeError(f"unknown field type {text!r}", line_no, col)


_CLASS_RE = re.compile(rf"class\s+({_IDENT_RE.pattern})\s*:\s*$")
_FIELD_RE = re.compile(rf"({_IDENT_RE.pattern})\s*:\s*(.+?)\s*$")


def parse_schema_code(source: str) -> EventSchema:
    """Parse class-definition text back into an :class:`EventSchema`.

    Accepts the output of :func:`render_schema_as_code` plus cosmetic
    variation (blank lines, arbitrary indentation width, optional
    decorator line).  Exactly one class definition is expected.
    """
    lines = source.splitlines()
    event_type: str | None = None
    class_line = 0
    roles: list[RoleSpec] = []
    saw_mention = False

    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if event_type is None:
            if stripped.startswith("@"):
                if not re.fullmatch(r"@\w+", stripped):
                    raise SchemaCodeError(f"unexpected decorator {stripped!r}", line_no)
                continue
            m = _CLASS_RE.fullmatch(stripped)
            if not m:
                raise SchemaCodeError("expected a class definition header", line_no)
            event_type = m.group(1)
            class_line = line_no
            continue
        if not raw[:1].isspace():
            raise SchemaCodeError("unexpected text after class body; expected a single class definition", line_no)
        indent = len(raw) - len(raw.lstrip())
        m = _FIELD_RE.fullmatch(stripped)
        if not m:
            raise SchemaCodeError(f"expected 'name: type' field, got {stripped!r}", line_no, indent + 1)
        name, annotation = m.group(1), m.group(2)
        col = indent + 1
        if not saw_mention:
            if name != MENTION_FIELD:
                raise SchemaCodeError(
                    f"first field must be {MENTION_FIELD!r}, got {name!r}", line_no, col
                )
            if annotation.strip() != "str":
                raise SchemaCodeError(f"field {MENTION_FIELD!r} must be of type str", line_no, col)
            saw_mention = True
            continue
        if name == MENTION_FIELD:
            raise SchemaCodeError(f"duplicate field {MENTION_FIELD!r}", line_no, col)
        if any(role.name == name for role in roles):
            raise SchemaCodeError(f"duplicate field {name!r}", line_no, col)
        value_type, multiplicity = _parse_annotation(annotation, line_no, col + len(name))
        roles.append(RoleSpec(name, value_type, multiplicity))

    if event_type is None:
        raise SchemaCodeError("no class definition found", max(len(lines), 1))
    if not saw_mention:
        raise SchemaCodeError(f"class {event_type!r} is missing the {MENTION_FIELD!r} field", class_line)
    return EventSchema(event_type, tuple(roles))
