"""End-to-end extraction benchmark over a loopback chat backend.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run generates the workload from the seed (workload.py), starts the
rule-based stub backend in one child process (stub.py), and then, for
``--seconds`` seconds, repeatedly drives the unmodified entry point
``eventagents.cli.main(["extract", ..., "--runs", "1"])`` in a fresh
process (child.py) against it.  Load is a closed loop: the CLI's own
worker pool (1 or 2 clients), and the stub serves as many requests at
once as there are workers.

Every extract call is checked: exit status 0, no request the stub could
not classify, every document either written or noted as skipped in the
trace file, and every written prediction line equal to the generator's
expected line.  Skipped documents lower ``written_doc_share``; they are
not a correctness failure.

``--trace 0`` reports the end-to-end metrics: medians over the extract
calls, and ``setup_s`` as the median of several fresh-process samples.
``--trace 1`` alternates untraced and traced extract calls, reports the
per-layer metrics (layers.py) as medians over the traced calls, checks
that the client's per-template call counts equal the stub's, and reports
the tracing overhead.  Metric names, units and directions come from
BENCHMARK.json.  The last line of standard output is one JSON object
with ``correct``, ``attempted`` (documents), ``failed`` (documents lost
to a failed extract call or a wrong prediction) and ``metrics``.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_PER_CALL = 2
MIN_EXTRACT_CALLS = 3
CHILD_TIMEOUT_S = 150


def _child_env() -> dict:
    """The caller's environment minus proxy and program settings.

    Proxy variables would route loopback traffic away from the stub, and
    ``EVENTAGENTS_*`` variables would change the configuration under test.
    A fixed hash seed removes one source of variation between processes.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if "proxy" not in key.lower() and not key.startswith("EVENTAGENTS_")
    }
    env["PYTHONHASHSEED"] = "0"
    return env


class Stub:
    """The stub backend child process and its control endpoints."""

    def __init__(self, plan: Path, slots: int, latency: bool, log: Path, env: dict):
        command = [sys.executable, str(HERE / "stub.py"), "--plan", str(plan), "--slots", str(slots)]
        if latency:
            command.append("--latency")
        self._log = open(log, "w", encoding="utf-8")
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=self._log, text=True, env=env)
        line = self.proc.stdout.readline()
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start (see {log})")
        self.port = int(line.split()[1])
        self.endpoint = f"http://127.0.0.1:{self.port}/v1"

    def control(self, method: str, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(method, path, body=b"" if method == "POST" else None)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _run_child(args: list[str], env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[0]} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _ordered(line: str):
    return json.loads(line, object_pairs_hook=list)


def check_outputs(pred_path: Path, expected: dict[str, str]) -> tuple[list, list, list]:
    """Returns (written ids, skipped ids, [(doc id, problem)]) for one extract call."""
    problems, written, skipped = [], [], []
    for line in pred_path.read_text(encoding="utf-8").splitlines():
        doc_id = json.loads(line).get("doc_id")
        if doc_id not in expected:
            problems.append((doc_id, "prediction for an unknown document"))
        elif doc_id in written:
            problems.append((doc_id, "written twice"))
        elif _ordered(line) != _ordered(expected[doc_id]):
            problems.append((doc_id, f"prediction differs from the expected one: {line[:300]}"))
        written.append(doc_id)
    trace_path = pred_path.with_name(f"{pred_path.stem}.trace{pred_path.suffix}")
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if str(record.get("note", "")).startswith("document skipped"):
            skipped.append(record["doc_id"])
    for doc_id in expected:
        if (doc_id in written) == (doc_id in skipped):
            problems.append((doc_id, "both written and skipped" if doc_id in written else "neither written nor skipped"))
    return written, skipped, problems


def f1_scores(pred_path: Path, corpus_path: Path) -> tuple[float, float]:
    """TC and AC micro-F1 of one predictions file against the gold corpus.

    Lines that are not valid predictions for a known document are left
    out; check_outputs reports them.
    """
    from eventagents import EventObject, load_corpus, score

    documents = load_corpus(corpus_path.read_bytes())
    known = {doc.id for doc in documents}
    predictions = {}
    for line in pred_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        try:
            events = [EventObject(**event) for event in record["events"]]
        except (KeyError, TypeError, ValueError):
            continue
        if record.get("doc_id") in known:
            predictions[record["doc_id"]] = events
    report = score(predictions, documents)
    return report.tc.f1, report.ac.f1


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def extract_call(stub: Stub, workload, paths: dict, work: Path, traced: bool, expected: dict, env: dict):
    """One checked extract call; returns (call record, problems, documents lost)."""
    from layers import TEMPLATES, layer_metrics, read_spans

    stub.control("POST", "/_bench/reset")
    pred = work / "pred.jsonl"
    spans_path = work / "spans.jsonl"
    result = _run_child([
        "extract", "--ontology", str(paths["ontology"]), "--corpus", str(paths["corpus"]),
        "--out", str(pred), "--endpoint", stub.endpoint, "--workers", str(workload.workers),
        "--mode", workload.mode, *(["--spans", str(spans_path)] if traced else []),
    ], env)
    stats = stub.control("GET", "/_bench/stats")
    written, skipped, doc_problems = check_outputs(pred, expected)
    call_problems = []
    if result["exit"] != 0:
        call_problems.append(f"extract exited with status {result['exit']}")
    if stats["failed"]:
        call_problems.append(f"stub could not classify {stats['failed']} requests: {stats['failures']}")
    call = {"traced": traced, "result": result, "stats": stats, "written": len(written), "skipped": len(skipped)}
    if traced:
        call["layers"] = layer_metrics(read_spans(spans_path), stats, len(expected))
        for template in TEMPLATES:
            client, served = call["layers"][f"backends.calls.{template}"], stats["requests"].get(template, 0)
            if client != served:
                call_problems.append(f"{template}: client made {client} calls, stub saw {served}")
        if result["missing"]:
            call_problems.append(f"traced functions not found: {result['missing']}")
    call["tc_f1"], call["ac_f1"] = f1_scores(pred, paths["corpus"])
    lost = len(expected) if call_problems else len({doc_id for doc_id, _ in doc_problems})
    problems = call_problems + [f"{doc_id}: {problem}" for doc_id, problem in doc_problems]
    return call, problems, lost


def run(args, spec: dict) -> dict:
    sys.path.insert(0, str(SRC))
    from workload import WORKLOADS, generate, write

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    env = _child_env()
    setup, calls, problems, failed_docs = [], [], [], 0
    try:
        paths = write(generate(workload, args.seed), work)
        expected = {json.loads(line)["doc_id"]: line for line in paths["expected"].read_text().splitlines()}

        probe = ["setup", "--ontology", str(paths["ontology"]), "--corpus", str(paths["corpus"])]

        def sample_setup(count: int) -> None:
            setup.extend(_run_child(probe, env)["setup_s"] for _ in range(count))

        if not args.trace:
            _run_child(probe, env)  # warm-up: compiles bytecode, fills the page cache
            sample_setup(SETUP_SAMPLES_BEFORE)

        with Stub(paths["plan"], workload.workers, workload.latency, work / "stub.log", env) as stub:
            deadline = time.monotonic() + args.seconds
            while time.monotonic() < deadline or sum(not c["traced"] for c in calls) < MIN_EXTRACT_CALLS:
                for traced in ([False, True] if args.trace else [False]):
                    call, call_problems, lost = extract_call(stub, workload, paths, work, traced, expected, env)
                    calls.append(call)
                    problems += call_problems
                    failed_docs += lost
                    if traced:  # keep the latest spans of this workload for inspection
                        shutil.copyfile(work / "spans.jsonl", work.parent / f"spans-{args.workload}.jsonl")
                    if not args.trace:
                        # Spread over the run, so the median sees the same machine state as the calls.
                        sample_setup(SETUP_SAMPLES_PER_CALL)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    docs = len(expected)
    untraced = [c for c in calls if not c["traced"]]

    def docs_per_s(call):
        return call["written"] / call["result"]["wall_s"]

    if args.trace:
        traced = [c for c in calls if c["traced"]]
        metrics = {name: _median([c["layers"][name] for c in traced]) for name in traced[0]["layers"]}
        plain, with_spans = _median([docs_per_s(c) for c in untraced]), _median([docs_per_s(c) for c in traced])
        metrics["trace.untraced_docs_per_s"] = plain
        metrics["trace.traced_docs_per_s"] = with_spans
        metrics["trace.overhead_share"] = 1 - with_spans / plain
        names = spec["per_layer"]
    else:
        per_call = {
            "docs_per_s": [docs_per_s(c) for c in untraced],
            "backend_calls_per_doc": [
                (sum(c["stats"]["requests"].values()) + c["stats"]["failed"]) / docs for c in untraced
            ],
            "prompt_kchars_per_doc": [sum(c["stats"]["prompt_chars"].values()) / 1000 / docs for c in untraced],
            "written_doc_share": [c["written"] / docs for c in untraced],
            "client_cpu_ms_per_doc": [c["result"]["cpu_s"] * 1000 / docs for c in untraced],
            "peak_rss_mb": [c["result"]["maxrss_kb"] / 1024 for c in untraced],
            "tc_f1": [c["tc_f1"] for c in untraced],
            "ac_f1": [c["ac_f1"] for c in untraced],
        }
        metrics = {name: _median(values) for name, values in per_call.items()}
        metrics["setup_s"] = _median(setup)
        names = spec["end_to_end"]
        failed_share = _median([c["skipped"] / docs for c in untraced])
        print(f"{'failed_doc_share':<40}{failed_share:>14.6f} share (not gated; 1 - written_doc_share)")

    declared = {entry["name"]: entry["unit"] for entry in names}
    if set(declared) != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match BENCHMARK.json")
    for name in declared:
        print(f"{name:<40}{metrics[name]:>14.6f} {declared[name]}")
    print(f"# {args.workload} seed {args.seed}: {len(calls)} extract calls of {docs} documents; "
          f"{sum(c['skipped'] for c in calls)} documents skipped by the program", file=sys.stderr)
    print("# docs_per_s per untraced call: " + " ".join(f"{docs_per_s(c):.3f}" for c in untraced), file=sys.stderr)
    print("# client_cpu_ms_per_doc per untraced call: "
          + " ".join(f"{c['result']['cpu_s'] * 1000 / docs:.3f}" for c in untraced), file=sys.stderr)
    if setup:
        print("# setup_s samples: " + " ".join(f"{s:.4f}" for s in setup), file=sys.stderr)
    for problem in problems[:20]:
        print(f"# problem: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": docs * len(calls),
        "failed": failed_docs,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="Extraction benchmark over a loopback chat backend.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "eventagents" / "__init__.py").is_file():
        print(f"error: program source {SRC / 'eventagents'} not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run(args, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
