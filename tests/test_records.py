"""The value classes' shared base, and what ``import eventagents`` and
``import eventagents.cli`` load."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import eventagents
from eventagents import (
    BackendConfig,
    ChatMessage,
    CodeObject,
    DatasetStats,
    Diagnostic,
    Document,
    EventObject,
    EventSchema,
    GoldEvent,
    JudgeResult,
    MetricScores,
    MetricsReport,
    ParseFailure,
    PipelineConfig,
    PromptRequest,
    RefinementTrace,
    RoleSpec,
    RunContext,
    Span,
    TriggerHypothesis,
    ValueType,
    VerificationResult,
)
from eventagents.cli import _OPTIONS, RunConfig
from eventagents.prompts import PlanningHead
from eventagents.records import FrozenRecord

SRC = Path(eventagents.__file__).resolve().parent.parent


def _loaded_modules(statement: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``statement``."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); {statement}; "
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_import_eventagents_loads_neither_dataclasses_nor_inspect():
    assert _loaded_modules("import eventagents", ("dataclasses", "inspect")) == []


def test_import_cli_loads_no_thread_pool_and_no_logging():
    assert _loaded_modules("import eventagents.cli", ("concurrent.futures", "logging")) == []


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    assert _loaded_modules("import eventagents.cli", ("dataclasses", "inspect")) == []


SCORES = MetricScores(0.5, 0.25, 1 / 3, 4, 8, 2)
HEAD = PlanningHead("@dataclass\nclass Ransom:\n    mention: str", "", "Event definitions:\n")

# Two factories per value class, building instances with different fields.
VALUES = [
    (lambda: TriggerHypothesis("breach", "Databreach", 0.9), lambda: TriggerHypothesis("breach", "Databreach", 0.8)),
    (lambda: ChatMessage("user", "hi"), lambda: ChatMessage("assistant", "")),
    (lambda: BackendConfig(), lambda: BackendConfig(retries=1)),
    (
        lambda: PromptRequest("coding", (("text", "a"),), (ChatMessage("user", "a"),)),
        lambda: PromptRequest("coding", (("text", "a"),), (ChatMessage("user", "a"),), 0.0),
    ),
    (lambda: Span("paid", 4, 8), lambda: Span("paid", 5, 9)),
    (
        lambda: GoldEvent("Ransom", Span("paid", 4, 8)),
        lambda: GoldEvent("Ransom", Span("paid", 4, 8), (("price", Span("5", 0, 1)),)),
    ),
    (lambda: Document("d1", "text", None), lambda: Document("d1", "text", ((0, 4),))),
    (lambda: DatasetStats(2, 3, 4.5, 50.0), lambda: DatasetStats(2, 3, 4.5, 0.0)),
    (lambda: EventObject("Ransom", "paid", {"price": [5]}), lambda: EventObject("Ransom", "paid", {})),
    (lambda: ParseFailure("unexpected end", 1, 7), lambda: ParseFailure("unexpected end", 2, 7)),
    (lambda: CodeObject("x", failure=ParseFailure("m", 1, 1)), lambda: CodeObject("x", EventObject("E", "x", {}))),
    (lambda: SCORES, lambda: MetricScores(1.0, 1.0, 1.0, 0, 0, 0)),
    (
        lambda: MetricsReport(SCORES, SCORES, SCORES, SCORES),
        lambda: MetricsReport(SCORES, SCORES, SCORES, MetricScores(0.0, 0.0, 0.0, 1, 1, 0)),
    ),
    (lambda: HEAD, lambda: PlanningHead("", "", "")),
    (lambda: PipelineConfig(), lambda: PipelineConfig(mode="llm")),
    (lambda: RefinementTrace(), lambda: RefinementTrace(outcome="accepted")),
    (lambda: RunContext(HEAD, ()), lambda: RunContext(HEAD, ("retrieval produced no usable sentences for Ransom",))),
    (lambda: RoleSpec("price", ValueType.NUMBER), lambda: RoleSpec("price")),
    (lambda: EventSchema("Ransom", (RoleSpec("price"),)), lambda: EventSchema("Ransom")),
    (lambda: Diagnostic("T2", "bad type", "price"), lambda: Diagnostic("T3", "bad type", "price")),
    (lambda: JudgeResult(True), lambda: JudgeResult(True, "unparseable reply")),
    (lambda: VerificationResult(), lambda: VerificationResult(Diagnostic("T1", "m", "l"))),
    (lambda: RunConfig(), lambda: RunConfig(workers=2)),
]
MUTABLE = {EventObject, CodeObject, RefinementTrace}
FROZEN_VALUES = [pair for pair in VALUES if type(pair[0]()) not in MUTABLE]
MUTABLE_VALUES = [pair for pair in VALUES if type(pair[0]()) in MUTABLE]


def _names(pairs) -> list[str]:
    return [type(make()).__name__ for make, _ in pairs]


@pytest.mark.parametrize("make, make_other", VALUES, ids=_names(VALUES))
class TestValueClasses:
    def test_equal_fields_compare_equal_and_other_fields_do_not(self, make, make_other):
        value = make()
        assert value == make()
        assert value != make_other()
        assert not value != make()

    def test_no_value_equals_an_instance_of_another_class(self, make, make_other):
        value = make()
        others = [other() for other, _ in VALUES if type(other()) is not type(value)]
        assert len(others) == len(VALUES) - 1
        assert all(value != other and other != value for other in others)

        # Not even a subclass with the same fields.
        twin = type("Twin", (type(value),), {})
        copy = twin.__new__(twin)
        vars(copy).update(vars(value))
        assert value != copy and copy != value

    def test_repr_names_the_fields_in_constructor_order(self, make, make_other):
        value = make()
        # RunConfig takes its options as keywords, one per row of its table.
        if type(value) is RunConfig:
            fields = list(_OPTIONS)
        else:
            fields = list(inspect.signature(type(value)).parameters)
        assert list(vars(value)) == fields
        listed = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
        assert repr(value) == f"{type(value).__name__}({listed})"


@pytest.mark.parametrize("make, make_other", FROZEN_VALUES, ids=_names(FROZEN_VALUES))
class TestFrozenValueClasses:
    def test_equal_values_hash_equal(self, make, make_other):
        assert isinstance(make(), FrozenRecord)
        assert hash(make()) == hash(make())
        assert hash(make()) == hash(tuple(vars(make()).values()))

    def test_assignment_and_deletion_raise(self, make, make_other):
        value = make()
        name = next(iter(vars(value)))
        before = vars(value).copy()
        for change in (
            lambda: setattr(value, name, None),
            lambda: setattr(value, "extra", None),
            lambda: delattr(value, name),
        ):
            with pytest.raises(AttributeError):
                change()
        assert vars(value) == before


@pytest.mark.parametrize("make, make_other", MUTABLE_VALUES, ids=_names(MUTABLE_VALUES))
def test_mutable_values_are_unhashable(make, make_other):
    assert not isinstance(make(), FrozenRecord)
    with pytest.raises(TypeError):
        hash(make())


def test_every_converted_class_is_listed_once():
    assert len(set(_names(VALUES))) == len(VALUES) == 23


def test_repr_matches_the_dataclass_form():
    assert repr(Span("paid", 4, 8)) == "Span(text='paid', start=4, end=8)"
    assert repr(JudgeResult(False)) == "JudgeResult(compatible=False, warning=None)"


def test_each_trace_gets_its_own_lists():
    first, second = RefinementTrace(), RefinementTrace()
    first.attempts.append({})
    first.notes.append("note")
    assert second.attempts == [] and second.notes == []
