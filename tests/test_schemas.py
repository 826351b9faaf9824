"""Ontology loading and the class-definition rendering."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eventagents import (
    EventObject,
    EventSchema,
    Multiplicity,
    OntologyError,
    RoleSpec,
    SchemaRegistry,
    ValueType,
    load_ontology,
    render_schema_as_code,
)
from eventagents.events import CodeObject
from eventagents.verify import check_types
from oracles import random_schema


def ontology_bytes(*entries):
    return json.dumps(list(entries)).encode("utf-8")


class TestLoadOntology:
    def test_role_defaults_are_string_list(self):
        registry = load_ontology(ontology_bytes({"event_type": "A", "roles": [{"name": "x"}]}))
        role = registry.get("A").roles[0]
        assert role.value_type is ValueType.STRING
        assert role.multiplicity is Multiplicity.LIST

    def test_declaration_order_preserved(self):
        registry = load_ontology(
            ontology_bytes(
                {"event_type": "B", "roles": [{"name": "z"}, {"name": "a"}]},
                {"event_type": "A", "roles": []},
            )
        )
        assert [schema.event_type for schema in registry] == ["B", "A"]
        assert registry.get("B").role_names() == ("z", "a")

    def test_explicit_types_and_multiplicities(self):
        registry = load_ontology(
            ontology_bytes(
                {
                    "event_type": "A",
                    "roles": [
                        {"name": "n", "value_type": "integer", "multiplicity": "required-scalar"},
                        {"name": "p", "value_type": "number", "multiplicity": "optional-scalar"},
                        {"name": "f", "value_type": "boolean"},
                    ],
                }
            )
        )
        schema = registry.get("A")
        assert schema.roles[0] == RoleSpec("n", ValueType.INTEGER, Multiplicity.REQUIRED_SCALAR)
        assert schema.roles[1] == RoleSpec("p", ValueType.NUMBER, Multiplicity.OPTIONAL_SCALAR)
        assert schema.roles[2].value_type is ValueType.BOOLEAN

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("{", "malformed ontology document"),
            ("{}", "must be an array"),
            ("[42]", "declaration #1 is not an object"),
            ('[{"roles": []}]', "no usable 'event_type'"),
            ('[{"event_type": "A", "roles": {}}]', "declaration #1: 'roles' must be an array of objects"),
            ('[{"event_type": "A", "roles": [{}]}]', "declaration #1: role has no usable 'name'"),
            (
                '[{"event_type": "A", "roles": [{"name": "x", "value_type": "text"}]}]',
                "unknown value_type 'text'",
            ),
            (
                '[{"event_type": "A", "roles": [{"name": "x", "multiplicity": "set"}]}]',
                "unknown multiplicity 'set'",
            ),
            (
                '[{"event_type": "A", "roles": [{"name": "x"}, {"name": "x"}]}]',
                "duplicate role name 'x'",
            ),
            (
                '[{"event_type": "A"}, {"event_type": "A"}]',
                "duplicate event type 'A'",
            ),
            ('[{"event_type": "A", "roles": [{"name": "mention"}]}]', "reserved"),
            ('[{"event_type": "9A", "roles": []}]', "not a valid identifier"),
        ],
    )
    def test_rejects_malformed_documents(self, payload, fragment):
        with pytest.raises(OntologyError) as exc_info:
            load_ontology(payload.encode())
        assert fragment in str(exc_info.value)

    @pytest.mark.parametrize(
        "payload, message",
        [
            # The event type is checked before any role.
            ('[{"event_type": "9A", "roles": [{"name": "9x"}]}]', "event type '9A' is not a valid identifier"),
            ('[{"event_type": 5, "roles": [{"name": "x", "value_type": "text"}]}]', "no usable 'event_type'"),
            # A role's name is checked before its value_type, and value_type before multiplicity.
            (
                '[{"event_type": "A", "roles": [{"name": "9x", "value_type": "text"}]}]',
                "role name '9x' is not a valid identifier (hyphens allowed)",
            ),
            (
                '[{"event_type": "A", "roles": [{"name": "x", "value_type": "text", "multiplicity": "set"}]}]',
                "unknown value_type 'text' for role 'x'",
            ),
            (
                '[{"event_type": "A", "roles": [{"name": "x", "value_type": null}]}]',
                "unknown value_type None for role 'x'",
            ),
            (
                '[{"event_type": "A", "roles": [{"name": "x", "multiplicity": ["list"]}]}]',
                "unknown multiplicity ['list'] for role 'x'",
            ),
            ('[{"event_type": "A", "roles": [{"name": 7}]}]', "role has no usable 'name'"),
            # Roles are built in order; a duplicate name is found once all are built.
            (
                '[{"event_type": "A", "roles": [{"name": "x"}, {"name": "x"}, {"name": "y", "value_type": 1}]}]',
                "unknown value_type 1 for role 'y'",
            ),
            ('[{"event_type": "A", "roles": [{"name": "x"}, 3]}]', "'roles' must be an array of objects"),
        ],
    )
    def test_a_declaration_fault_is_the_class_message_after_its_number(self, payload, message):
        with pytest.raises(OntologyError) as exc_info:
            load_ontology(f'[{{"event_type": "Fine"}}, {payload[1:-1]}]'.encode())
        assert str(exc_info.value) == f"declaration #2: {message}"

    def test_rejects_non_utf8_bytes(self):
        with pytest.raises(OntologyError) as exc_info:
            load_ontology(b"\xff\xfe[]")
        assert str(exc_info.value) == (
            "malformed ontology document: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        )


class TestSchemaObjects:
    def test_role_name_validation(self):
        RoleSpec("number-of-data")
        RoleSpec("_x9")
        for bad in ("", "9x", "-x", "x-", "a b", "a--b"):
            with pytest.raises(ValueError):
                RoleSpec(bad)

    def test_role_takes_a_member_or_its_spelling(self):
        role = RoleSpec("place", "string", "list")
        assert role == RoleSpec("place", ValueType.STRING, Multiplicity.LIST)
        assert role.value_type is ValueType.STRING and role.multiplicity is Multiplicity.LIST
        assert render_schema_as_code(EventSchema("Visit", [role])).endswith("    place: List\n")
        code = CodeObject("", EventObject("Visit", "went", {"place": ["Paris"]}))
        assert check_types(code, EventSchema("Visit", [role])) is None
        assert RoleSpec("n", "integer", "optional-scalar") == RoleSpec(
            "n", ValueType.INTEGER, Multiplicity.OPTIONAL_SCALAR
        )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: RoleSpec("a", "strng"), "unknown value_type 'strng' for role 'a'"),
            (lambda: RoleSpec("a", multiplicity="set"), "unknown multiplicity 'set' for role 'a'"),
            (lambda: RoleSpec("a", "STRING"), "unknown value_type 'STRING' for role 'a'"),
            (lambda: RoleSpec("a", ["string"]), "unknown value_type ['string'] for role 'a'"),
            (lambda: RoleSpec(5), "role has no usable 'name'"),
            (lambda: RoleSpec(None), "role has no usable 'name'"),
            (lambda: RoleSpec(""), "role has no usable 'name'"),
            (lambda: EventSchema(123), "no usable 'event_type'"),
            (lambda: EventSchema(""), "no usable 'event_type'"),
            (lambda: EventSchema("A", ["x"]), "role 'x' of event type 'A' is not a RoleSpec"),
            (lambda: SchemaRegistry(["x"]), "schema 'x' is not an EventSchema"),
            (lambda: SchemaRegistry([EventSchema("A"), 3]), "schema 3 is not an EventSchema"),
        ],
        ids=[
            "misspelt-value-type", "unknown-multiplicity", "upper-case-spelling", "unhashable-value-type",
            "integer-name", "no-name", "empty-name", "integer-event-type", "empty-event-type", "role-not-a-RoleSpec",
            "registry-of-a-string", "registry-element-not-an-EventSchema",
        ],
    )
    def test_refuses_with_value_error(self, build, message):
        with pytest.raises(ValueError) as exc_info:
            build()
        assert str(exc_info.value) == message

    def test_mention_is_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            RoleSpec("mention")

    def test_duplicate_roles_rejected(self):
        with pytest.raises(ValueError, match="duplicate role"):
            EventSchema("A", (RoleSpec("x"), RoleSpec("x")))

    def test_registry_lookup_and_iteration(self):
        a, b = EventSchema("A"), EventSchema("B", (RoleSpec("t"),))
        registry = SchemaRegistry([a, b])
        assert len(registry) == 2
        assert registry.get("A") is a
        assert registry.get("B") is b
        assert registry.get("C") is None
        assert list(registry) == [a, b]

    def test_registry_rejects_duplicate_event_types(self):
        with pytest.raises(OntologyError, match="duplicate event type 'A'"):
            SchemaRegistry([EventSchema("A"), EventSchema("A", (RoleSpec("x"),))])

    def test_event_type_validation(self):
        for bad in ("", "9A", "A B", "A-"):
            with pytest.raises(ValueError):
                EventSchema(bad)
        assert EventSchema("A", [RoleSpec("x")]).roles == (RoleSpec("x"),)

    def test_find_role(self):
        role = RoleSpec("number-of-data", ValueType.INTEGER)
        schema = EventSchema("A", (RoleSpec("x"), role))
        assert schema.find_role("number-of-data") is role
        assert schema.find_role("mention") is None
        assert schema.find_role("y") is None


# Drawn ontology values: good and bad identifiers, the reserved name,
# every spelling and some near misses, and values of the wrong JSON type
# (unhashable ones included).  A key left out of a drawn object is missing.
_WRONG_TYPES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.lists(st.sampled_from(["x", "string", "list"]), max_size=2),
    st.dictionaries(st.sampled_from(["name", "x"]), st.integers(), max_size=1),
)
_NAMES = st.one_of(
    st.sampled_from(["x", "y", "number-of-data", "_z9", "A", "mention", "", "9x", "-x", "x-", "a b", "a--b", "é"]),
    st.text(max_size=3),
    _WRONG_TYPES,
)
_SPELLINGS = st.one_of(
    st.sampled_from([*ValueType, *Multiplicity]).map(lambda member: member.value),
    st.sampled_from(["STRING", "strng", "str", "List", "set", "optional_scalar", ""]),
    _WRONG_TYPES,
)
_ROLE_ENTRIES = st.fixed_dictionaries(
    {}, optional={"name": _NAMES, "value_type": _SPELLINGS, "multiplicity": _SPELLINGS, "note": st.text(max_size=2)}
)
_DECLARATIONS = st.fixed_dictionaries({}, optional={"event_type": _NAMES, "roles": st.lists(_ROLE_ENTRIES, max_size=4)})
_VALUES = st.lists(
    st.one_of(st.text(max_size=2), st.integers(), st.floats(allow_nan=False, allow_infinity=False), st.booleans()),
    max_size=3,
)


def build_directly(document: list) -> SchemaRegistry | str:
    """The registry the classes build from a drawn document, or the refusal
    ``load_ontology`` should give for it.  Their order: a declaration's event
    type alone, then its roles one by one, then the schema with its roles."""
    schemas = []
    for number, entry in enumerate(document, start=1):
        try:
            EventSchema(entry.get("event_type"))
            roles = [
                RoleSpec(raw.get("name"), raw.get("value_type", "string"), raw.get("multiplicity", "list"))
                for raw in entry.get("roles", [])
            ]
            schemas.append(EventSchema(entry["event_type"], roles))
        except ValueError as exc:
            return f"declaration #{number}: {exc}"
    try:
        return SchemaRegistry(schemas)
    except OntologyError as exc:
        return str(exc)


class TestRuleAgreement:
    @settings(deadline=None, max_examples=400)
    @given(st.lists(_DECLARATIONS, max_size=3))
    def test_load_refuses_exactly_what_the_classes_refuse(self, document):
        expected = build_directly(document)
        try:
            registry = load_ontology(json.dumps(document).encode())
        except OntologyError as exc:
            assert str(exc) == expected
        else:
            assert isinstance(expected, SchemaRegistry)
            assert list(registry) == list(expected)
            assert registry.definitions == expected.definitions

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from(["x", "number-of-data"]),
        st.sampled_from(list(ValueType)),
        st.sampled_from(list(Multiplicity)),
        _VALUES,
    )
    def test_a_role_from_a_spelling_is_the_role_from_its_member(self, name, value_type, multiplicity, values):
        by_member = RoleSpec(name, value_type, multiplicity)
        by_spelling = RoleSpec(name, value_type.value, multiplicity.value)
        assert by_spelling == by_member and hash(by_spelling) == hash(by_member)
        loaded = load_ontology(
            ontology_bytes(
                {"event_type": "A", "roles": [{"name": name, "value_type": value_type, "multiplicity": multiplicity}]}
            )
        )
        assert loaded.get("A").roles == (by_member,)
        code = CodeObject("", EventObject("A", "t", {name: values} if values else {}))
        member_schema, spelling_schema = EventSchema("A", [by_member]), EventSchema("A", [by_spelling])
        assert render_schema_as_code(spelling_schema) == render_schema_as_code(member_schema)
        assert check_types(code, spelling_schema) == check_types(code, member_schema)


DATABREACH = EventSchema(
    "Databreach",
    tuple(RoleSpec(name) for name in ("tool", "number-of-data", "victim", "time", "place")),
)


# Every (value type, multiplicity) pair and the annotation it renders as.
ANNOTATIONS = {
    (ValueType.STRING, Multiplicity.LIST): "List",
    (ValueType.INTEGER, Multiplicity.LIST): "List[int]",
    (ValueType.NUMBER, Multiplicity.LIST): "List[float]",
    (ValueType.BOOLEAN, Multiplicity.LIST): "List[bool]",
    (ValueType.STRING, Multiplicity.OPTIONAL_SCALAR): "Optional[str]",
    (ValueType.INTEGER, Multiplicity.OPTIONAL_SCALAR): "Optional[int]",
    (ValueType.NUMBER, Multiplicity.OPTIONAL_SCALAR): "Optional[float]",
    (ValueType.BOOLEAN, Multiplicity.OPTIONAL_SCALAR): "Optional[bool]",
    (ValueType.STRING, Multiplicity.REQUIRED_SCALAR): "str",
    (ValueType.INTEGER, Multiplicity.REQUIRED_SCALAR): "int",
    (ValueType.NUMBER, Multiplicity.REQUIRED_SCALAR): "float",
    (ValueType.BOOLEAN, Multiplicity.REQUIRED_SCALAR): "bool",
}


class TestRender:
    def test_worked_listing(self):
        assert render_schema_as_code(DATABREACH) == (
            "@dataclass\n"
            "class Databreach:\n"
            "    mention: str\n"
            "    tool: List\n"
            "    number-of-data: List\n"
            "    victim: List\n"
            "    time: List\n"
            "    place: List\n"
        )

    def test_annotation_table(self):
        pairs = list(ANNOTATIONS)
        schema = EventSchema(
            "Mixed",
            tuple(RoleSpec(f"r{i}", value_type, multiplicity) for i, (value_type, multiplicity) in enumerate(pairs)),
        )
        body = render_schema_as_code(schema).splitlines()[3:]
        assert body == [f"    r{i}: {ANNOTATIONS[pair]}" for i, pair in enumerate(pairs)]
        assert len(pairs) == len(ValueType) * len(Multiplicity)

    def test_random_schemas_render_line_by_line(self):
        rng = random.Random(20817)
        for _ in range(300):
            schema = random_schema(rng)
            assert render_schema_as_code(schema).split("\n") == [
                "@dataclass",
                f"class {schema.event_type}:",
                "    mention: str",
                *(f"    {role.name}: {ANNOTATIONS[role.value_type, role.multiplicity]}" for role in schema.roles),
                "",
            ]

    def test_schema_without_roles_renders_only_the_mention(self):
        assert render_schema_as_code(EventSchema("Empty")) == "@dataclass\nclass Empty:\n    mention: str\n"

    def test_definitions_join_renderings_with_one_blank_line(self):
        empty, registry = EventSchema("Empty"), SchemaRegistry([DATABREACH, EventSchema("Empty")])
        assert registry.definitions == (
            render_schema_as_code(DATABREACH) + "\n" + render_schema_as_code(empty).rstrip("\n")
        )
        assert SchemaRegistry().definitions == ""

    def test_render_is_deterministic_and_newline_terminated(self):
        one = render_schema_as_code(DATABREACH)
        two = render_schema_as_code(DATABREACH)
        assert one == two
        assert one.endswith("\n") and not one.endswith("\n\n")

