"""Ontology loading and the class-definition rendering."""

import json
import random

import pytest

from eventagents import (
    EventSchema,
    Multiplicity,
    OntologyError,
    RoleSpec,
    SchemaRegistry,
    ValueType,
    load_ontology,
    render_schema_as_code,
)
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
            ('[{"event_type": "A", "roles": {}}]', "'roles' of event type 'A' must be an array"),
            ('[{"event_type": "A", "roles": [{}]}]', "role without a usable 'name'"),
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

