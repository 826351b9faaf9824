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
names may contain hyphens; the rendered text keeps them verbatim.

Ontologies are UTF-8 JSON documents: an array of objects with keys
``event_type`` and ``roles``, where each role object has ``name`` plus
optional ``value_type`` (default ``string``) and ``multiplicity``
(default ``list``).
"""

from __future__ import annotations

import json
import re
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import EventAgentsError, json_fault
from .records import FrozenRecord, set_field


class OntologyError(EventAgentsError):
    """Raised when an ontology document cannot be loaded."""


class ValueType(str, Enum):
    STRING = "string"
    INTEGER = "integer"
    NUMBER = "number"
    BOOLEAN = "boolean"


class Multiplicity(str, Enum):
    LIST = "list"
    OPTIONAL_SCALAR = "optional-scalar"
    REQUIRED_SCALAR = "required-scalar"


# Type names used in rendered annotations and diagnostics.
SCALAR_TYPE_NAMES = {
    ValueType.STRING: "str",
    ValueType.INTEGER: "int",
    ValueType.NUMBER: "float",
    ValueType.BOOLEAN: "bool",
}

# Identifiers may contain interior hyphens ("number-of-data"); schema
# names and the event-construction scanner share this.
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*")

# The first body field of every rendered class; reserved, never a role name.
MENTION_FIELD = "mention"


def _is_ident(name: str) -> bool:
    return bool(_IDENT_RE.fullmatch(name))


class RoleSpec(FrozenRecord):
    """One argument role: its name, expected value type and multiplicity."""

    def __init__(
        self,
        name: str,
        value_type: ValueType = ValueType.STRING,
        multiplicity: Multiplicity = Multiplicity.LIST,
    ):
        if not name:
            raise ValueError("role name must be non-empty")
        if not _is_ident(name):
            raise ValueError(f"role name {name!r} is not a valid identifier (hyphens allowed)")
        if name == MENTION_FIELD:
            raise ValueError(f"role name {MENTION_FIELD!r} is reserved for the trigger field")
        set_field(self, "name", name)
        set_field(self, "value_type", value_type)
        set_field(self, "multiplicity", multiplicity)


class EventSchema(FrozenRecord):
    """An event type plus its ordered argument roles."""

    def __init__(self, event_type: str, roles: tuple[RoleSpec, ...] = ()):
        if not event_type:
            raise ValueError("event_type must be non-empty")
        if not _is_ident(event_type):
            raise ValueError(f"event type {event_type!r} is not a valid identifier")
        roles = tuple(roles)
        seen = set()
        for role in roles:
            if role.name in seen:
                raise ValueError(f"duplicate role name {role.name!r} in event type {event_type!r}")
            seen.add(role.name)
        set_field(self, "event_type", event_type)
        set_field(self, "roles", roles)

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

    def __iter__(self) -> Iterator[EventSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    @cached_property
    def definitions(self) -> str:
        """Every schema rendered as code, separated by blank lines; the
        planning prompts of a run all reuse this one rendering."""
        return "\n\n".join(render_schema_as_code(schema).rstrip("\n") for schema in self)


def load_ontology(source: bytes) -> SchemaRegistry:
    """Load an ontology document, the bytes of a UTF-8 file, into a registry.

    Declaration order of event types and roles is preserved.
    """
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise OntologyError(f"ontology document is not valid UTF-8: {exc}") from exc
    try:
        document = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also oversized integers and deep nesting
        raise OntologyError(f"malformed ontology document: {json_fault(exc, located=True)}") from exc
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

