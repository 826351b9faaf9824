"""Rule-based chat-completions stub served on loopback.

Run as ``python3 perfbench/stub.py --plan plan.json --slots N [--latency]``;
it prints ``PORT <n>`` once it listens on 127.0.0.1.

Requests are classified by content that any wording of the prompts must
carry, never by exact prompt bytes:

* the document text (found through its unique ``$`` amount);
* the event type name;
* the quoted trigger of one of the document's hypotheses;
* whether a verifier diagnostic (``[T1]``, ``[T2]`` or ``[T3]``) is present.

No document text means retrieval, which must name exactly one event type.
A document without any of its hypotheses' triggers quoted means planning;
the document's second planning request is the planning retry.  A quoted
trigger plus the type name means coding when every role of that type is
named, and the semantic judge otherwise.  The n-th coding request for a
hypothesis gets the n-th planned reply (the last one repeats) and must
carry a diagnostic exactly when n > 1.  A request that fits no rule gets
status 400 and counts as failed.

Latency model (``--latency``): 5 ms per call, plus 0.2 ms per 1,000
prompt characters not in the prefix cache, plus 0.05 ms per reply
character.  The prefix cache works like vLLM's automatic prefix caching:
1,024-character blocks, each keyed by a hash of the whole prefix up to
the block's end.  At most ``--slots`` requests are served at once; any
number of connections may stay open, so a client that keeps idle
keep-alive connections cannot deadlock itself.

Control endpoints (not counted as chat requests): ``POST /_bench/reset``
clears counters, per-document state and the prefix cache;
``GET /_bench/stats`` returns the counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

BLOCK_CHARS = 1024
CALL_MS = 5.0
PREFILL_MS_PER_KCHAR = 0.2
DECODE_MS_PER_CHAR = 0.05

_DIAGNOSTIC_RE = re.compile(r"\[T[123]\]")


class Unclassified(Exception):
    """The request fits none of the rules."""


class Rules:
    """Maps a prompt to (template, reply) using the workload's reply plan."""

    def __init__(self, plan: dict):
        self.types = plan["types"]
        self.exemplars = plan["exemplars"]
        self.docs = {doc["anchor"]: doc for doc in plan["docs"]}
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self._seen: Counter = Counter()

    def _next_index(self, key) -> int:
        with self._lock:
            index = self._seen[key]
            self._seen[key] = index + 1
        return index

    def find_document(self, prompt: str) -> dict | None:
        found = None
        start = prompt.find("$")
        while start >= 0:
            doc = self.docs.get(prompt[start + 1 : start + 10])
            begin = start - doc["anchor_offset"] if doc is not None else -1
            if begin >= 0 and prompt.startswith(doc["text"], begin):
                if found is not None and found is not doc:
                    raise Unclassified("prompt carries two documents")
                found = doc
            start = prompt.find("$", start + 1)
        return found

    def classify(self, prompt: str) -> tuple[str, str]:
        doc = self.find_document(prompt)
        if doc is None:
            named = [name for name in self.types if name in prompt]
            if len(named) != 1:
                raise Unclassified(f"no document and {len(named)} event types named")
            index = self._next_index(("retrieval", named[0]))
            sentences = self.exemplars[named[0]]
            return "retrieval", sentences[index % len(sentences)]

        matches = []
        for key in doc["hypotheses"]:
            trigger, event_type = key.split("\t")
            quoted = f'"{trigger}"' in prompt or f"'{trigger}'" in prompt
            if quoted and event_type in prompt and key not in matches:
                matches.append(key)
        if not matches:
            index = self._next_index(("planning", doc["id"]))
            template = "planning" if index == 0 else "planning_retry"
            return template, doc["planning"][min(index, len(doc["planning"]) - 1)]
        if len(matches) > 1:
            raise Unclassified(f"{doc['id']}: several hypotheses quoted")
        key = matches[0]
        event_type = key.split("\t")[1]
        if all(role in prompt for role in self.types[event_type]):
            replies = doc["coding"].get(key)
            if replies is None:
                raise Unclassified(f"{doc['id']}: no coding plan for {key!r}")
            index = self._next_index(("coding", doc["id"], key))
            if (index > 0) != bool(_DIAGNOSTIC_RE.search(prompt)):
                raise Unclassified(f"{doc['id']}: coding attempt {index + 1} with wrong diagnostic presence")
            return "coding", replies[min(index, len(replies) - 1)]
        verdict = doc["judge"].get(key)
        if verdict is None:
            raise Unclassified(f"{doc['id']}: no judge plan for {key!r}")
        return "semantic_judge", verdict


class PrefixCache:
    """Block prefix cache; returns how many leading characters were cached."""

    def __init__(self):
        self._blocks: set[bytes] = set()
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self._blocks.clear()

    def lookup_and_insert(self, serialized: str) -> int:
        running = hashlib.blake2b(digest_size=16)
        keys = []
        for end in range(BLOCK_CHARS, len(serialized) + 1, BLOCK_CHARS):
            running.update(serialized[end - BLOCK_CHARS : end].encode("utf-8"))
            keys.append(running.copy().digest())
        with self._lock:
            cached = 0
            for key in keys:
                if key not in self._blocks:
                    break
                cached += 1
            self._blocks.update(keys)
        return cached * BLOCK_CHARS


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests: Counter = Counter()
            self.prompt_chars: Counter = Counter()
            self.failed = 0
            self.failures: list[str] = []
            self.connections = 0
            self.serialized_chars = 0
            self.cached_chars = 0
            self.service_s = 0.0

    def connection(self) -> None:
        with self._lock:
            self.connections += 1

    def failure(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            self.failures.append(message)

    def served(self, template: str, messages: list, serialized: str, cached: int, service_s: float) -> None:
        with self._lock:
            self.requests[template] += 1
            self.prompt_chars[template] += sum(len(m["content"]) for m in messages)
            self.serialized_chars += len(serialized)
            self.cached_chars += cached
            self.service_s += service_s

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": dict(self.requests),
                "prompt_chars": dict(self.prompt_chars),
                "failed": self.failed,
                "failures": self.failures[:5],
                "connections": self.connections,
                "serialized_chars": self.serialized_chars,
                "cached_chars": self.cached_chars,
                "service_s": self.service_s,
            }


class StubServer(ThreadingHTTPServer):
    request_queue_size = 64

    def __init__(self, plan: dict, slots: int, latency: bool):
        super().__init__(("127.0.0.1", 0), Handler)
        self.rules = Rules(plan)
        self.cache = PrefixCache()
        self.stats = Stats()
        self.slots = threading.BoundedSemaphore(slots)
        self.latency = latency

    def reset(self) -> None:
        self.rules.reset()
        self.cache.reset()
        self.stats.reset()

    def serve_chat(self, body: bytes) -> tuple[int, dict]:
        """Classify one chat request and build its reply; counts it."""
        start = time.perf_counter()
        with self.slots:
            try:
                messages = json.loads(body)["messages"]
                prompt = "\n".join(m["content"] for m in messages)
                serialized = "".join(f"<|{m['role']}|>{m['content']}" for m in messages)
                template, reply = self.rules.classify(prompt)
            except (ValueError, KeyError, TypeError) as exc:
                self.stats.failure(f"malformed request: {exc!r}")
                return 400, {"error": {"message": f"malformed request: {exc!r}"}}
            except Unclassified as exc:
                self.stats.failure(str(exc))
                return 400, {"error": {"message": f"unclassified request: {exc}"}}
            cached = self.cache.lookup_and_insert(serialized)
            if self.latency:
                model_ms = (
                    CALL_MS
                    + PREFILL_MS_PER_KCHAR * (len(serialized) - cached) / 1000
                    + DECODE_MS_PER_CHAR * len(reply)
                )
                remaining = model_ms / 1000 - (time.perf_counter() - start)
                if remaining > 0:
                    time.sleep(remaining)
            service_s = time.perf_counter() - start
        self.stats.served(template, messages, serialized, cached, service_s)
        return 200, {
            "object": "chat.completion",
            "choices": [{"index": 0, "message": {"role": "assistant", "content": reply}, "finish_reason": "stop"}],
            "service_ms": service_s * 1000,
        }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: StubServer

    def setup(self):
        super().setup()
        self._counted = False

    def log_message(self, format, *args):  # noqa: A002 - signature fixed by the base class
        pass

    def _send(self, status: int, document: dict) -> None:
        payload = json.dumps(document).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"X-Service-Ms: {document.get('service_ms', 0.0):.4f}\r\n"
            "\r\n"
        ).encode("ascii")
        self.wfile.write(head + payload)
        self.wfile.flush()

    def do_POST(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        if self.path.endswith("/chat/completions"):
            if not self._counted:
                self._counted = True
                self.server.stats.connection()
            self._send(*self.server.serve_chat(body))
        elif self.path == "/_bench/reset":
            self.server.reset()
            self._send(200, {"reset": True})
        else:
            self._send(404, {"error": {"message": f"unknown path {self.path}"}})

    def do_GET(self):
        if self.path == "/_bench/stats":
            self._send(200, self.server.stats.snapshot())
        else:
            self._send(404, {"error": {"message": f"unknown path {self.path}"}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Loopback chat-completions stub for the benchmark.")
    parser.add_argument("--plan", required=True, help="reply plan written by workload.py")
    parser.add_argument("--slots", type=int, required=True, help="requests served at once")
    parser.add_argument("--latency", action="store_true", help="apply the latency model")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    server = StubServer(plan, args.slots, args.latency)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
