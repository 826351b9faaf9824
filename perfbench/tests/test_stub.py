"""The stub's rules make the real pipeline reproduce the expected predictions."""

import dataclasses
import threading

import pytest

from eventagents import cli
from run import check_outputs
from stub import BLOCK_CHARS, PrefixCache, Rules, StubServer, Unclassified
from workload import EMPTY_CODE, WORKLOADS, generate, write


@pytest.fixture(autouse=True)
def _no_proxy(monkeypatch):
    for key in ("http_proxy", "https_proxy", "all_proxy", "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
        monkeypatch.delenv(key, raising=False)


def _serve(plan, slots):
    server = StubServer(plan, slots, latency=False)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    return server, thread


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_reproduces_expected_predictions(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], types=min(WORKLOADS[name].types, 30), docs=30)
    instance = generate(workload, 4)
    paths = write(instance, tmp_path)
    server, thread = _serve(instance["plan"], workload.workers)
    try:
        status = cli.main([
            "extract", "--ontology", str(paths["ontology"]), "--corpus", str(paths["corpus"]),
            "--out", str(tmp_path / "pred.jsonl"), "--runs", "1", "--workers", str(workload.workers),
            "--mode", workload.mode, "--backend-endpoint", f"http://127.0.0.1:{server.server_address[1]}/v1",
        ])
        stats = server.stats.snapshot()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert status == 0
    assert stats["failed"] == 0, stats["failures"]
    expected = {row["doc_id"]: line for row, line in zip(
        instance["expected"], paths["expected"].read_text().splitlines())}
    written, skipped, problems = check_outputs(tmp_path / "pred.jsonl", expected)
    assert problems == []
    assert sorted(skipped) == sorted(d["id"] for d in instance["plan"]["docs"] if d["kind"] == EMPTY_CODE)
    assert stats["requests"]["retrieval"] == workload.types * 3


def _rules():
    instance = generate(dataclasses.replace(WORKLOADS["refine_llm"], docs=12), 2)
    return Rules(instance["plan"]), instance["plan"]


def test_retrieval_replies_vary_across_repeats():
    rules, plan = _rules()
    event_type = next(iter(plan["types"]))
    replies = [rules.classify(f"Write one sentence for {event_type}.") for _ in range(3)]
    assert [template for template, _ in replies] == ["retrieval"] * 3
    assert len({reply for _, reply in replies}) == 3


def test_wording_does_not_matter():
    rules, plan = _rules()
    doc = plan["docs"][0]
    trigger, event_type = doc["hypotheses"][0].split("\t")
    roles = " ".join(plan["types"][event_type])
    assert rules.classify(f"TEXT >>> {doc['text']} <<< list the events")[0] == "planning"
    assert rules.classify(f"{roles} {event_type} '{trigger}' in: {doc['text']}")[0] == "coding"
    assert rules.classify(f"Does '{trigger}' fit {event_type}? {doc['text']}")[0] == "semantic_judge"


def test_unclassifiable_requests_fail():
    rules, plan = _rules()
    names = list(plan["types"])
    with pytest.raises(Unclassified):
        rules.classify("hello")
    with pytest.raises(Unclassified):
        rules.classify(f"{names[0]} and {names[1]}")
    doc = plan["docs"][0]
    trigger, event_type = doc["hypotheses"][0].split("\t")
    roles = " ".join(plan["types"][event_type])
    with pytest.raises(Unclassified, match="diagnostic"):
        rules.classify(f'{roles} {event_type} "{trigger}" {doc["text"]} [T2] bad')


def test_planning_retry_is_the_second_planning_request():
    rules, plan = _rules()
    doc = plan["docs"][3]
    assert rules.classify(doc["text"])[0] == "planning"
    assert rules.classify(doc["text"])[0] == "planning_retry"
    rules.reset()
    assert rules.classify(doc["text"])[0] == "planning"


def test_prefix_cache_counts_whole_shared_blocks():
    cache = PrefixCache()
    prompt = "a" * (3 * BLOCK_CHARS + 10)
    assert cache.lookup_and_insert(prompt) == 0
    assert cache.lookup_and_insert(prompt) == 3 * BLOCK_CHARS
    assert cache.lookup_and_insert("a" * BLOCK_CHARS + "b" * 2 * BLOCK_CHARS) == BLOCK_CHARS



def test_malformed_bodies_count_as_failed_requests():
    server = StubServer(generate(dataclasses.replace(WORKLOADS["refine_llm"], docs=6), 2)["plan"], 1, latency=False)
    try:
        for body in (b"not json", b"{}", b'{"messages": [{"role": "user"}]}'):
            assert server.serve_chat(body)[0] == 400
        assert server.stats.snapshot()["failed"] == 3
    finally:
        server.server_close()
