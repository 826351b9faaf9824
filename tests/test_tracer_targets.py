"""Every span target of the benchmark tracer resolves in the package.

``perfbench/tracer.py`` wraps functions and methods by name.  A refactor
that renames or removes one would otherwise only show up when a traced
benchmark run (``--trace 1``) reports the target as not found.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _tracer_targets()


def test_targets_are_listed():
    assert TARGETS


@pytest.mark.parametrize("module_name, attr, span", TARGETS, ids=[span for _, _, span in TARGETS])
def test_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    if "." in attr:
        # A method must be defined on the class itself, where the tracer replaces it.
        class_name, method = attr.split(".")
        assert callable(vars(getattr(module, class_name)).get(method)), f"{module_name}.{attr}"
    else:
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
