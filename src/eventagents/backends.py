"""Chat backends: an OpenAI-compatible HTTP client and a scripted stand-in.

Every agent call is represented as a :class:`PromptRequest` carrying the
template id and the exact bindings used to fill it, besides the rendered
messages.  A request's fingerprint (template id + SHA-256 over the
canonical JSON of its bindings) identifies the prompt content, so a
:class:`ScriptedBackend` can map fingerprints to canned replies and the
whole pipeline becomes bit-deterministic for tests and offline runs.  Any
drift in prompt assembly changes fingerprints and is caught immediately
by a missing-fixture error naming the template.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import IO, Any

import requests

from .errors import ConfigError, EventAgentsError

_ROLES = ("system", "user", "assistant")

# Status codes worth retrying; everything else fails fast.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

MAX_RETRIES = 5


class BackendError(EventAgentsError):
    """A chat backend could not produce a reply."""


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError(f"unknown message role {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise ValueError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = "http://localhost:8000/v1"
    model: str = "llama3-8b-instruct"
    temperature: float = 0.7
    max_tokens: int = 1024
    api_key_env: str | None = None
    timeout: float = 30.0
    retries: int = 2

    def __post_init__(self):
        if not self.endpoint:
            raise ConfigError("backend endpoint must be non-empty")
        if self.temperature < 0:
            raise ConfigError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        if self.timeout <= 0:
            raise ConfigError("timeout must be positive")
        if not 0 <= self.retries <= MAX_RETRIES:
            raise ConfigError(f"retries must be between 0 and {MAX_RETRIES}")


@dataclass(frozen=True)
class PromptRequest:
    """One agent call: template id, fill-in bindings, rendered messages.

    ``temperature`` of None defers to the backend config's default;
    deterministic stages pass 0.0 explicitly.  The fingerprint covers
    template id and bindings only, never the temperature, so scripted
    fixtures stay valid when sampling settings move.
    """

    template_id: str
    bindings: tuple[tuple[str, str], ...]
    messages: tuple[ChatMessage, ...]
    temperature: float | None = None

    def __post_init__(self):
        if not self.template_id:
            raise ValueError("template_id must be non-empty")
        if not self.messages:
            raise ValueError("a request carries at least one message")

    def fingerprint(self) -> str:
        return fingerprint(self.template_id, dict(self.bindings))


def fingerprint(template_id: str, bindings: dict[str, str]) -> str:
    """Stable identity of a prompt: template id plus a bindings digest."""
    canonical = json.dumps(bindings, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"{template_id}:{digest}"


class HttpBackend:
    """Client for an OpenAI-compatible chat-completions endpoint.

    Retries connection failures and transient statuses (429/5xx) up to
    the configured retry count with exponential backoff.  The credential
    is read from the environment variable named in the config; naming a
    variable that is unset is a configuration error raised before any
    network traffic.
    """

    def __init__(self, config: BackendConfig):
        self.config = config

    def complete(self, request: PromptRequest) -> str:
        headers = {"Content-Type": "application/json"}
        if self.config.api_key_env is not None:
            key = os.environ.get(self.config.api_key_env)
            if not key:
                raise ConfigError(
                    f"credential environment variable {self.config.api_key_env!r} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in request.messages],
            "temperature": self.config.temperature if request.temperature is None else request.temperature,
            "max_tokens": self.config.max_tokens,
        }
        attempts = self.config.retries + 1
        last_problem = "unknown failure"
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.1 * (2 ** (attempt - 1)), 2.0))
            try:
                response = requests.post(url, json=payload, headers=headers, timeout=self.config.timeout)
            except requests.RequestException as exc:
                last_problem = f"transport failure: {exc}"
                continue
            if response.status_code in RETRYABLE_STATUSES:
                last_problem = f"status {response.status_code}"
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"backend returned status {response.status_code}: {response.text[:200]}"
                )
            return _extract_content(response)
        raise BackendError(f"request to {url} failed after {attempts} attempts ({last_problem})")


def _extract_content(response) -> str:
    try:
        body = response.json()
    except (ValueError, RecursionError) as exc:
        raise BackendError(f"backend response is not valid JSON: {exc}") from exc
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise BackendError("backend response is missing choices[0].message.content") from None
    if not isinstance(content, str):
        raise BackendError("backend response content is not text")
    return content


class ScriptedBackend:
    """Deterministic backend replaying canned replies keyed by fingerprint.

    A fixture maps each fingerprint to either one reply or a list of
    replies; lists are consumed in order per fingerprint (the last entry
    repeats once exhausted), which lets one prompt issued several times
    return distinct texts.  Unknown fingerprints raise, naming the
    template, so an unnoticed prompt change cannot silently pass tests.
    Every request is appended to ``calls`` for assertions.
    """

    def __init__(self, mapping: dict[str, str | list[str]]):
        for key, value in mapping.items():
            if not _valid_reply(value):
                raise ConfigError(f"scripted fixture entry {key!r} must be a string or list of strings")
        self._mapping = dict(mapping)
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self.calls: list[PromptRequest] = []

    def complete(self, request: PromptRequest) -> str:
        fp = request.fingerprint()
        with self._lock:
            self.calls.append(request)
            if fp not in self._mapping:
                raise BackendError(
                    f"no scripted reply for template {request.template_id!r} (fingerprint {fp})"
                )
            value = self._mapping[fp]
            if isinstance(value, list):
                if not value:
                    raise BackendError(
                        f"scripted reply list for template {request.template_id!r} is empty"
                    )
                index = self._counters.get(fp, 0)
                self._counters[fp] = index + 1
                return value[min(index, len(value) - 1)]
            return value


def _valid_reply(value: Any) -> bool:
    if isinstance(value, str):
        return True
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def load_scripted_fixture(source: bytes | str | IO) -> dict[str, str | list[str]]:
    """Read a scripted-backend fixture document (JSON object)."""
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, (bytes, bytearray)):
        source = bytes(source).decode("utf-8")
    try:
        data = json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed scripted fixture: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("scripted fixture must be a JSON object mapping fingerprints to replies")
    for key, value in data.items():
        if not _valid_reply(value):
            raise ConfigError(f"scripted fixture entry {key!r} must be a string or list of strings")
    return data
