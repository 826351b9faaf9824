"""Golden extract runs: the scenarios, their inputs and one runner.

Each scenario is an ``eventagents extract`` run through ``main()``, on a
scripted backend unless said otherwise.  Its inputs live in
``<name>/input/`` and everything it pins in ``<name>/expected/``: the
prediction and trace files, stdout, stderr (the temporary directory
written as ``<tmp>``), the exit status, and the sorted SHA-256 digests
of every request's messages and temperature (``requests.txt``).  The
digests are a sorted list, so runs at several workers compare them as a
multiset.

The ``http`` scenario replays the ``strict`` inputs through
``HttpBackend`` against a loopback server.  The server answers each
request body with the replies the scripted ``strict`` run gives that
prompt, in order, and the scenario pins the sorted SHA-256 digests of
the bodies as sent (``request_bodies.txt``) instead of ``requests.txt``.

``python tests/golden/regenerate.py`` rewrites both directories from
the current tree.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from conftest import script
from eventagents import (
    BackendConfig,
    EventSchema,
    JudgeResult,
    RoleSpec,
    ScriptedBackend,
    SchemaRegistry,
    ValueType,
    parse_event_code,
    verify,
)
from eventagents.cli import main
from eventagents.prompts import (
    coding_prompt,
    judge_prompt,
    planning_head,
    planning_prompt,
    planning_retry_prompt,
    retrieval_prompt,
)

HERE = Path(__file__).parent
SCENARIOS = ("strict", "llm", "http")
# A scenario listed here runs another scenario's inputs.
INPUTS_OF = {"http": "strict"}


def input_dir(name: str) -> Path:
    return HERE / INPUTS_OF.get(name, name) / "input"


def expected_dir(name: str) -> Path:
    return HERE / name / "expected"


def request_digest(request) -> str:
    """SHA-256 of a request's messages and temperature, as sent."""
    canonical = json.dumps(
        {"messages": [[m.role, m.content] for m in request.messages], "temperature": request.temperature},
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def argv(name: str, out: Path, workers: int) -> list[str]:
    inputs = input_dir(name)
    args = [
        "extract",
        "--ontology", str(inputs / "ontology.json"),
        "--corpus", str(inputs / "corpus.jsonl"),
        "--out", str(out / "preds.jsonl"),
        "--runs", "2",
        "--workers", str(workers),
    ]
    if name == "http":
        return args + ["--mode", "strict"]
    args += ["--scripted-fixture", str(inputs / "fixture.json")]
    if name == "strict":
        return args + ["--mode", "strict"]
    return args + ["--config", str(inputs / "config.json")]


def _main(args: list[str]) -> tuple[int, str, str, list[list]]:
    """``main(args)`` with stdout and stderr captured.

    Also returns every scripted backend call as a ``[request, reply]``
    pair, in call order; the reply is None when the call raised.
    """
    calls: list[list] = []
    complete = ScriptedBackend.complete

    def recording_complete(self, request):
        call = [request, None]
        calls.append(call)
        call[1] = complete(self, request)
        return call[1]

    stdout, stderr = io.StringIO(), io.StringIO()
    ScriptedBackend.complete = recording_complete
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = main(args)
    finally:
        ScriptedBackend.complete = complete
    return status, stdout.getvalue(), stderr.getvalue(), calls


def run(name: str, workdir: Path, workers: int) -> dict[str, bytes]:
    """Run one scenario in ``workdir``; returns each pinned file's bytes by name."""
    out = workdir / "out"
    out.mkdir()
    if name == "http":
        with _replay_server(_recorded_replies(workdir / "scripted")) as server:
            host, port = server.server_address
            args = argv(name, out, workers) + ["--backend-endpoint", f"http://{host}:{port}/v1"]
            status, stdout, stderr, _ = _main(args)
        digests_name = "request_bodies.txt"
        digests = [hashlib.sha256(body).hexdigest() for body in server.bodies]
    else:
        status, stdout, stderr, calls = _main(argv(name, out, workers))
        digests_name = "requests.txt"
        digests = [request_digest(request) for request, _ in calls]

    def normalised(text: str) -> bytes:
        return text.replace(str(workdir), "<tmp>").encode("utf-8")

    pinned = {path.name: normalised(path.read_text(encoding="utf-8")) for path in sorted(out.iterdir())}
    pinned["stdout.txt"] = normalised(stdout)
    pinned["stderr.txt"] = normalised(stderr)
    pinned["exit_status.txt"] = f"{status}\n".encode()
    pinned[digests_name] = "".join(f"{digest}\n" for digest in sorted(digests)).encode()
    return pinned


# ---------------------------------------------------------------------------
# The loopback server of the http scenario


def http_body(request) -> bytes:
    """The chat-completions body ``HttpBackend`` sends for ``request``
    under the default backend configuration."""
    config = BackendConfig()
    payload = {
        "model": config.model,
        "messages": [{"role": m.role, "content": m.content} for m in request.messages],
        "temperature": config.temperature if request.temperature is None else request.temperature,
        "max_tokens": config.max_tokens,
    }
    return json.dumps(payload).encode("utf-8")


def _recorded_replies(workdir: Path) -> dict[bytes, list[str]]:
    """Each request body of the scripted ``strict`` run (at one worker),
    with the replies that run gives it, in call order."""
    (workdir / "out").mkdir(parents=True)
    *_, calls = _main(argv("strict", workdir / "out", workers=1))
    replies: dict[bytes, list[str]] = {}
    for request, reply in calls:
        if reply is not None:
            replies.setdefault(http_body(request), []).append(reply)
    return replies


class _ReplayHandler(BaseHTTPRequestHandler):
    """Answers a body with its next recorded reply; the last one repeats.
    A body nothing was recorded for gets status 400."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        server = self.server
        with server.lock:
            server.bodies.append(body)
            replies = server.replies.get(body, [None])
            reply = replies.pop(0) if len(replies) > 1 else replies[0]
        if reply is None:
            status, answer = 400, b"no recorded reply for this body"
        else:
            status, answer = 200, json.dumps({"choices": [{"message": {"content": reply}}]}).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(answer)))
        self.end_headers()
        self.wfile.write(answer)

    def log_message(self, *args):
        pass


@contextmanager
def _replay_server(replies: dict[bytes, list[str]]):
    """A loopback server replaying ``replies``; proxy variables are
    unset while it runs, so requests reach it directly."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ReplayHandler)
    server.replies, server.bodies, server.lock = replies, [], threading.Lock()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    proxies = {key: os.environ.pop(key) for key in list(os.environ) if key.lower().endswith("_proxy")}
    thread.start()
    try:
        yield server
    finally:
        os.environ.update(proxies)
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


# ---------------------------------------------------------------------------
# Inputs


def write_strict_inputs(directory: Path) -> None:
    """Acceptance criterion 8's ontology, corpus and fixture."""
    from test_acceptance import write_run_inputs

    write_run_inputs(directory)


PATCH = EventSchema("PatchVulnerability", tuple(RoleSpec(n) for n in ("patch", "cve", "time", "vulnerable_system")))
RANSOM = EventSchema("Ransom", (RoleSpec("victim"), RoleSpec("price", ValueType.NUMBER)))
LLM_ONTOLOGY = [
    {"event_type": "PatchVulnerability", "roles": [{"name": role.name} for role in PATCH.roles]},
    {"event_type": "Ransom", "roles": [{"name": "victim"}, {"name": "price", "value_type": "number"}]},
]
REGISTRY = SchemaRegistry([PATCH, RANSOM])
EXEMPLAR = "The vendor patched CVE-2023-0001 on Monday."

# d1: non-ASCII text, judge "yes", a T2 patch.
TEXT_1 = "Le fournisseur a corrigé la faille CVE-2024-0001 dans son serveur à Zürich."
# d2: a planning retry, an exhausted hypothesis (judge unparseable), a
# T3 patch, then an unknown event type consumed without coding calls.
TEXT_2 = "Attackers demanded 5 bitcoin from the hospital after they encrypted its records."
# d3: multi-event drops the accepted pair's duplicate; judge "no" exhausts the rest.
TEXT_3 = "The vendor patched its mail gateway, and the hospital paid a ransom."
# d4: the patch prompt has no scripted reply, so the document aborts.
TEXT_4 = "Engineers patched the router firmware on Friday."
# d5: planning finds nothing.
TEXT_5 = "Nothing happened on the quiet Sunday."
# d6: the only hypothesis's trigger is not in the text, so the document is exhausted.
TEXT_6 = "The firm reported record profits this quarter."
# d7: planning and its retry are both unparseable, so the document is skipped.
TEXT_7 = "The board met to discuss the quarterly budget."
# d8: blank text, with no fixture entry for its planning prompt.
TEXT_8 = "   "
# d9: multi-event accepts the first hypothesis; the second's coding prompt
# has no scripted reply, so the continuation fails.
TEXT_9 = "The vendor patched the flaw after attackers demanded a ransom."


def _coding(schema, trigger, text, replies, compatible=True):
    """Fixture pairs for a chain of coding replies, each patching the last."""
    pairs, diagnostic = [], ""
    for reply in replies:
        pairs.append((coding_prompt(schema, trigger, text, diagnostic=diagnostic), reply))
        result = verify(parse_event_code(reply, registry=REGISTRY), text, schema, lambda *_: JudgeResult(compatible))
        diagnostic = "" if result.verdict else result.diagnostic.as_line()
    return pairs


def write_llm_inputs(directory: Path) -> None:
    head = planning_head(REGISTRY, (EXEMPLAR,))
    pairs = [
        # Retrieval: a duplicate and a blank reply for one type, nothing usable for the other.
        (retrieval_prompt(PATCH), EXEMPLAR),
        (retrieval_prompt(PATCH), EXEMPLAR),
        (retrieval_prompt(PATCH), "  "),
        *[(retrieval_prompt(RANSOM), "") for _ in range(3)],
        # d1
        (planning_prompt(TEXT_1, head), '[{"trigger": "corrigé", "event_type": "PatchVulnerability", "confidence": 0.9}]'),
        *_coding(PATCH, "corrigé", TEXT_1, [
            'PatchVulnerability(mention="corrigé", cve=[2024])',
            'PatchVulnerability(mention="corrigé", cve=["CVE-2024-0001"], vulnerable_system=["serveur à Zürich"])',
        ]),
        (judge_prompt("corrigé", "PatchVulnerability", TEXT_1), "Yes."),
        # d2
        (planning_prompt(TEXT_2, head), "Sure! The text describes a ransom."),
        (planning_retry_prompt(TEXT_2, head), (
            '```json\n[{"trigger": "encrypted", "event_type": "Ransom", "confidence": 0.8},'
            ' {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.7},'
            ' {"trigger": "attackers", "event_type": "Intrusion", "confidence": 0.6}]\n```'
        )),
        *_coding(RANSOM, "encrypted", TEXT_2, ['Ransom(mention="encrypted", victim=["hospital"])'] * 2, compatible=False),
        (judge_prompt("encrypted", "Ransom", TEXT_2), "Hard to say."),
        *_coding(RANSOM, "demanded", TEXT_2, [
            'Ransom(mention="demanded", victim=["hospital"]',
            'Ransom(mention="demanded", victim=["the hospital"], price=[5])',
        ]),
        (judge_prompt("demanded", "Ransom", TEXT_2), "yes"),
        # d3
        (planning_prompt(TEXT_3, head), json.dumps([
            {"trigger": "patched", "event_type": "PatchVulnerability", "confidence": 0.9},
            {"trigger": "patched", "event_type": "PatchVulnerability", "confidence": 0.8},
            {"trigger": "ransom", "event_type": "Ransom", "confidence": 0.7},
        ])),
        *_coding(PATCH, "patched", TEXT_3, ['PatchVulnerability(mention="patched", vulnerable_system=["mail gateway"])']),
        (judge_prompt("patched", "PatchVulnerability", TEXT_3), "Yes"),
        *_coding(RANSOM, "ransom", TEXT_3, ['Ransom(mention="ransom", victim=["the hospital"])'] * 2, compatible=False),
        (judge_prompt("ransom", "Ransom", TEXT_3), "No, nothing was demanded."),
        # d4
        (planning_prompt(TEXT_4, head), '[{"trigger": "patched", "event_type": "PatchVulnerability"}]'),
        (coding_prompt(PATCH, "patched", TEXT_4), 'PatchVulnerability(mention="patched", time=[5])'),
        (judge_prompt("patched", "PatchVulnerability", TEXT_4), "yes"),
        # d5
        (planning_prompt(TEXT_5, head), "[]"),
        # d6
        (planning_prompt(TEXT_6, head), '[{"trigger": "hacked", "event_type": "Ransom", "confidence": 0.4}]'),
        *_coding(RANSOM, "hacked", TEXT_6, ['Ransom(mention="hacked")'] * 2),
        # d7
        (planning_prompt(TEXT_7, head), "I could not find any events."),
        (planning_retry_prompt(TEXT_7, head), '{"trigger": "met", "event_type": "Meeting"}'),
        # d9
        (planning_prompt(TEXT_9, head), json.dumps([
            {"trigger": "patched", "event_type": "PatchVulnerability", "confidence": 0.9},
            {"trigger": "demanded", "event_type": "Ransom", "confidence": 0.8},
        ])),
        *_coding(PATCH, "patched", TEXT_9, ['PatchVulnerability(mention="patched", vulnerable_system=["flaw"])']),
        (judge_prompt("patched", "PatchVulnerability", TEXT_9), "Yes"),
    ]
    # Attempts 2 and 3 of an exhausted hypothesis carry the same diagnostic,
    # so one fixture entry answers both.
    fixture = script(*pairs)
    records = [{"id": f"d{i}", "text": text, "events": []} for i, text in enumerate(
        (TEXT_1, TEXT_2, TEXT_3, TEXT_4, TEXT_5, TEXT_6, TEXT_7, TEXT_8, TEXT_9), start=1
    )]
    (directory / "ontology.json").write_text(json.dumps(LLM_ONTOLOGY, indent=2) + "\n", encoding="utf-8")
    (directory / "corpus.jsonl").write_text(
        "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records), encoding="utf-8"
    )
    (directory / "fixture.json").write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
    (directory / "config.json").write_text(
        json.dumps({"mode": "llm", "event_cap": 5}, indent=2) + "\n", encoding="utf-8"
    )


WRITE_INPUTS = {"strict": write_strict_inputs, "llm": write_llm_inputs}
