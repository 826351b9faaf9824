"""The benchmark's generated inputs load under the package's readers.

``perfbench/workload.py`` writes the ontology and corpus every benchmark
run hands to ``extract``.  A reader that grows stricter would otherwise
only show up when a benchmark run fails to load them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from eventagents import load_corpus, load_ontology

WORKLOAD_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workload.py"


def _workload_module():
    spec = importlib.util.spec_from_file_location("_perfbench_workload", WORKLOAD_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOAD = _workload_module()


@pytest.mark.parametrize("name", sorted(WORKLOAD.WORKLOADS))
def test_generated_inputs_load(tmp_path, name):
    workload = WORKLOAD.WORKLOADS[name]
    paths = WORKLOAD.write(WORKLOAD.generate(workload, 1), tmp_path)
    registry = load_ontology(paths["ontology"].read_bytes())
    documents = load_corpus(paths["corpus"].read_bytes())
    assert len(registry) == workload.types
    assert len(documents) == workload.docs
    assert all(doc.gold_events for doc in documents)
