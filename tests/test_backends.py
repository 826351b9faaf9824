"""Backend behavior: the HTTP client against a local server, the scripted
replay backend, and prompt fingerprinting."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from eventagents import (
    BackendConfig,
    BackendError,
    ChatMessage,
    ConfigError,
    HttpBackend,
    PromptRequest,
    ScriptedBackend,
    fingerprint,
    load_scripted_fixture,
)


def make_request(template_id="planning", bindings=(("text", "hello"),), temperature=None):
    return PromptRequest(
        template_id=template_id,
        bindings=tuple(bindings),
        messages=(ChatMessage("system", "sys"), ChatMessage("user", "usr")),
        temperature=temperature,
    )


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a scripted sequence of (status, body) responses and records
    each request's headers and JSON payload."""

    script = []
    seen = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        payload = json.loads(self.rfile.read(length)) if length else None
        with self.lock:
            type(self).seen.append(
                {
                    "path": self.path,
                    "authorization": self.headers.get("Authorization"),
                    "payload": payload,
                }
            )
            index = min(len(type(self).seen) - 1, len(type(self).script) - 1)
        status, body = type(self).script[index]
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, *args):
        pass


def completion_body(content):
    return json.dumps({"choices": [{"message": {"content": content}}]})


@pytest.fixture
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    _ScriptedHandler.script = []
    _ScriptedHandler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


def endpoint_of(server):
    host, port = server.server_address
    return f"http://{host}:{port}/v1"


class TestHttpBackend:
    def test_successful_completion_and_payload_shape(self, http_server):
        _ScriptedHandler.script = [(200, completion_body("reply text"))]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=0))
        reply = backend.complete(make_request())
        assert reply == "reply text"
        seen = _ScriptedHandler.seen
        assert len(seen) == 1
        assert seen[0]["path"] == "/v1/chat/completions"
        assert seen[0]["authorization"] is None
        assert seen[0]["payload"]["model"] == "llama3-8b-instruct"
        assert seen[0]["payload"]["messages"] == [
            {"role": "system", "content": "sys"},
            {"role": "user", "content": "usr"},
        ]
        assert seen[0]["payload"]["temperature"] == 0.7
        assert seen[0]["payload"]["max_tokens"] == 1024

    def test_request_temperature_overrides_config(self, http_server):
        _ScriptedHandler.script = [(200, completion_body("ok"))]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), temperature=0.9))
        backend.complete(make_request(temperature=0.0))
        assert _ScriptedHandler.seen[0]["payload"]["temperature"] == 0.0

    def test_retries_transient_status_then_succeeds(self, http_server):
        _ScriptedHandler.script = [(429, "{}"), (200, completion_body("recovered"))]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=1))
        assert backend.complete(make_request()) == "recovered"
        assert len(_ScriptedHandler.seen) == 2

    def test_exhausted_retries_raise_with_attempt_count(self, http_server):
        _ScriptedHandler.script = [(503, "{}")]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=1))
        with pytest.raises(BackendError, match=r"failed after 2 attempts \(status 503\)"):
            backend.complete(make_request())
        assert len(_ScriptedHandler.seen) == 2

    def test_client_error_fails_fast(self, http_server):
        _ScriptedHandler.script = [(400, '{"error": "bad request"}')]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=3))
        with pytest.raises(BackendError, match="backend returned status 400"):
            backend.complete(make_request())
        assert len(_ScriptedHandler.seen) == 1

    def test_bearer_token_sent_from_environment(self, http_server, monkeypatch):
        monkeypatch.setenv("TEST_BACKEND_KEY", "sk-local-123")
        _ScriptedHandler.script = [(200, completion_body("ok"))]
        backend = HttpBackend(
            BackendConfig(endpoint=endpoint_of(http_server), api_key_env="TEST_BACKEND_KEY")
        )
        backend.complete(make_request())
        assert _ScriptedHandler.seen[0]["authorization"] == "Bearer sk-local-123"

    def test_unset_credential_variable_fails_before_network(self, http_server, monkeypatch):
        monkeypatch.delenv("TEST_BACKEND_KEY", raising=False)
        backend = HttpBackend(
            BackendConfig(endpoint=endpoint_of(http_server), api_key_env="TEST_BACKEND_KEY")
        )
        with pytest.raises(ConfigError, match="credential environment variable 'TEST_BACKEND_KEY' is not set"):
            backend.complete(make_request())
        assert _ScriptedHandler.seen == []

    def test_malformed_response_body(self, http_server):
        _ScriptedHandler.script = [(200, '{"choices": []}')]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=0))
        with pytest.raises(BackendError, match=r"missing choices\[0\].message.content"):
            backend.complete(make_request())

    def test_non_json_response_body(self, http_server):
        _ScriptedHandler.script = [(200, "<html>oops</html>")]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=0))
        with pytest.raises(BackendError, match="not valid JSON"):
            backend.complete(make_request())

    def test_deeply_nested_response_body(self, http_server):
        _ScriptedHandler.script = [(200, "[" * 100000)]
        backend = HttpBackend(BackendConfig(endpoint=endpoint_of(http_server), retries=0))
        with pytest.raises(BackendError, match="not valid JSON"):
            backend.complete(make_request())

    def test_connection_failure_retries_then_raises(self):
        # Nothing listens on this port; both attempts are transport failures.
        backend = HttpBackend(
            BackendConfig(endpoint="http://127.0.0.1:9", retries=1, timeout=0.5)
        )
        with pytest.raises(BackendError, match="transport failure"):
            backend.complete(make_request())


class TestBackendConfig:
    def test_defaults(self):
        config = BackendConfig()
        assert config.endpoint == "http://localhost:8000/v1"
        assert config.model == "llama3-8b-instruct"
        assert config.temperature == 0.7
        assert config.max_tokens == 1024
        assert config.api_key_env is None
        assert config.timeout == 30.0
        assert config.retries == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"endpoint": ""},
            {"temperature": -0.1},
            {"max_tokens": 0},
            {"timeout": 0},
            {"retries": -1},
            {"retries": 6},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            BackendConfig(**kwargs)


class TestFingerprint:
    def test_shape_and_stability(self):
        fp = fingerprint("planning", {"text": "hello", "definitions": "class A"})
        template, _, digest = fp.partition(":")
        assert template == "planning"
        assert len(digest) == 64 and all(c in "0123456789abcdef" for c in digest)
        assert fp == fingerprint("planning", {"definitions": "class A", "text": "hello"})

    def test_sensitive_to_template_and_bindings(self):
        base = fingerprint("planning", {"text": "hello"})
        assert base != fingerprint("coding", {"text": "hello"})
        assert base != fingerprint("planning", {"text": "hello!"})

    def test_request_fingerprint_ignores_temperature(self):
        cold = make_request(temperature=0.0)
        warm = make_request(temperature=1.0)
        assert cold.fingerprint() == warm.fingerprint()

    def test_unicode_bindings_are_stable(self):
        fp = fingerprint("retrieval", {"event_type": "Café"})
        assert fp == fingerprint("retrieval", {"event_type": "Café"})


class TestChatMessage:
    def test_roles_and_content(self):
        ChatMessage("system", "x")
        ChatMessage("user", "x")
        ChatMessage("assistant", "")
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")
        with pytest.raises(ValueError):
            ChatMessage("system", "")
        with pytest.raises(ValueError):
            ChatMessage("user", "")


class TestScriptedBackend:
    def test_single_reply_repeats(self):
        request = make_request()
        backend = ScriptedBackend({request.fingerprint(): "always this"})
        assert backend.complete(request) == "always this"
        assert backend.complete(request) == "always this"
        assert len(backend.calls) == 2

    def test_reply_list_consumed_in_order_then_last_repeats(self):
        request = make_request()
        backend = ScriptedBackend({request.fingerprint(): ["first", "second"]})
        assert [backend.complete(request) for _ in range(4)] == [
            "first", "second", "second", "second",
        ]

    def test_counters_are_per_fingerprint(self):
        a = make_request(bindings=(("text", "a"),))
        b = make_request(bindings=(("text", "b"),))
        backend = ScriptedBackend({
            a.fingerprint(): ["a1", "a2"],
            b.fingerprint(): ["b1", "b2"],
        })
        assert backend.complete(a) == "a1"
        assert backend.complete(b) == "b1"
        assert backend.complete(a) == "a2"
        assert backend.complete(b) == "b2"

    def test_missing_fingerprint_names_template(self):
        backend = ScriptedBackend({})
        request = make_request(template_id="coding")
        with pytest.raises(BackendError) as exc_info:
            backend.complete(request)
        assert "no scripted reply for template 'coding'" in str(exc_info.value)
        assert request.fingerprint() in str(exc_info.value)

    def test_empty_reply_list_rejected_at_use(self):
        request = make_request()
        backend = ScriptedBackend({request.fingerprint(): []})
        with pytest.raises(BackendError, match="reply list .* is empty"):
            backend.complete(request)

    def test_invalid_fixture_values_rejected(self):
        with pytest.raises(ConfigError):
            ScriptedBackend({"fp": 42})
        with pytest.raises(ConfigError):
            ScriptedBackend({"fp": ["ok", 3]})

    def test_calls_record_requests_in_order(self):
        a = make_request(bindings=(("text", "a"),))
        b = make_request(bindings=(("text", "b"),))
        backend = ScriptedBackend({a.fingerprint(): "ra", b.fingerprint(): "rb"})
        backend.complete(a)
        backend.complete(b)
        assert [r.bindings for r in backend.calls] == [a.bindings, b.bindings]


class TestFixtureLoading:
    def test_loads_strings_and_lists(self, tmp_path):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({"a:1": "x", "b:2": ["y", "z"]}))
        with open(path) as handle:
            fixture = load_scripted_fixture(handle)
        assert fixture == {"a:1": "x", "b:2": ["y", "z"]}

    def test_accepts_bytes_and_text(self):
        assert load_scripted_fixture('{"k": "v"}') == {"k": "v"}
        assert load_scripted_fixture(b'{"k": "v"}') == {"k": "v"}

    @pytest.mark.parametrize("payload", ["[]", "{", '{"k": 5}', '{"k": [1]}'])
    def test_rejects_bad_documents(self, payload):
        with pytest.raises(ConfigError):
            load_scripted_fixture(payload)


class TestPromptRequest:
    def test_requires_template_and_messages(self):
        with pytest.raises(ValueError):
            PromptRequest("", (), (ChatMessage("user", "x"),))
        with pytest.raises(ValueError):
            PromptRequest("planning", (), ())
