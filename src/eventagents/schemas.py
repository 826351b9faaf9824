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

import re
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator

from .errors import EventAgentsError, load_json
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
    """One argument role: its name, expected value type and multiplicity.

    ``value_type`` and ``multiplicity`` take an enum member or its ontology
    spelling (``"integer"``, ``"optional-scalar"``); the role stores the member.
    """

    def __init__(
        self,
        name: str,
        value_type: ValueType | str = ValueType.STRING,
        multiplicity: Multiplicity | str = Multiplicity.LIST,
    ):
        if not isinstance(name, str) or not name:
            raise ValueError("role has no usable 'name'")
        if not _is_ident(name):
            raise ValueError(f"role name {name!r} is not a valid identifier (hyphens allowed)")
        if name == MENTION_FIELD:
            raise ValueError(f"role name {MENTION_FIELD!r} is reserved for the trigger field")
        set_field(self, "name", name)
        for field, kind, value in (("value_type", ValueType, value_type), ("multiplicity", Multiplicity, multiplicity)):
            try:
                set_field(self, field, kind(value))
            except ValueError:
                raise ValueError(f"unknown {field} {value!r} for role {name!r}") from None


class EventSchema(FrozenRecord):
    """An event type plus its ordered argument roles; ``roles`` is read
    only once the event type has passed its checks."""

    def __init__(self, event_type: str, roles: Iterable[RoleSpec] = ()):
        if not isinstance(event_type, str) or not event_type:
            raise ValueError("no usable 'event_type'")
        if not _is_ident(event_type):
            raise ValueError(f"event type {event_type!r} is not a valid identifier")
        roles = tuple(roles)
        seen = set()
        for role in roles:
            if not isinstance(role, RoleSpec):
                raise ValueError(f"role {role!r} of event type {event_type!r} is not a RoleSpec")
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
            if not isinstance(schema, EventSchema):
                raise ValueError(f"schema {schema!r} is not an EventSchema")
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

    Declaration order of event types and roles is preserved.  The JSON
    shape is checked here; each declaration is then built through
    :class:`EventSchema` and :class:`RoleSpec`, whose refusal becomes
    ``declaration #N: <their message>``.
    """
    document = load_json(source, OntologyError, "malformed ontology document", located=True)
    if not isinstance(document, list):
        raise OntologyError("ontology document must be an array of event type declarations")

    schemas = []
    for number, entry in enumerate(document, start=1):
        if not isinstance(entry, dict):
            raise OntologyError(f"declaration #{number} is not an object")
        raw_roles = entry.get("roles", [])
        if not isinstance(raw_roles, list) or not all(isinstance(raw, dict) for raw in raw_roles):
            raise OntologyError(f"declaration #{number}: 'roles' must be an array of objects")
        # A generator, so that EventSchema checks the event type before any role.
        roles = (
            RoleSpec(raw.get("name"), raw.get("value_type", "string"), raw.get("multiplicity", "list"))
            for raw in raw_roles
        )
        try:
            schemas.append(EventSchema(entry.get("event_type"), roles))
        except ValueError as exc:
            raise OntologyError(f"declaration #{number}: {exc}") from None
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

