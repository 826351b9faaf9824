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

import base64
import json
import math
import os
import re
import socket
import sys
import threading
import time
import urllib.parse
from typing import IO, TYPE_CHECKING, Any

from .errors import ConfigError, EventAgentsError, has_surrogate, load_json
from .records import FrozenRecord, set_field

if TYPE_CHECKING:
    import ssl

_ROLES = ("system", "user", "assistant")

# Status codes worth retrying; everything else fails fast.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

# Statuses whose Retry-After header sets a floor under the next backoff.
_RETRY_AFTER_STATUSES = frozenset({429, 503})

MAX_RETRIES = 5


class BackendError(EventAgentsError):
    """A chat backend could not produce a reply."""


class ChatMessage(FrozenRecord):
    def __init__(self, role: str, content: str):
        if role not in _ROLES:
            raise ValueError(f"unknown message role {role!r}")
        if role in ("system", "user") and not content:
            raise ValueError(f"{role} message content must be non-empty")
        set_field(self, "role", role)
        set_field(self, "content", content)


def _split_url(url: str) -> urllib.parse.SplitResult | None:
    """``url`` split into parts; None unless it names a host that the
    resolver can encode and any port is a number from 1 to 65535."""
    try:
        parts = urllib.parse.urlsplit(url)
        port = parts.port
        (parts.hostname or "").encode("idna")  # as the resolver and TLS will
    except ValueError:  # a malformed IPv6 host, a non-numeric port, or a host label empty or over 63 characters
        return None
    return parts if parts.hostname and port != 0 else None


def _without_credentials(url: str) -> str:
    """``url`` as an error message may repeat it: without a
    ``user:password@`` part, whether or not ``scheme://`` precedes it."""
    return re.sub(r"^((?:[^:/?#]*://|[^/?#@]*/+)?)[^/?#]*@", r"\1", url)


class BackendConfig(FrozenRecord):
    def __init__(
        self,
        endpoint: str = "http://localhost:8000/v1",
        model: str = "llama3-8b-instruct",
        temperature: float = 0.7,
        max_tokens: int = 1024,
        api_key_env: str | None = None,
        timeout: float = 30.0,
        retries: int = 2,
    ):
        if not endpoint:
            raise ConfigError("backend endpoint must be non-empty")
        # Checked first, so that no message below echoes a password.
        if re.match(r"[^:/?#]*://[^/?#]*@", endpoint):
            raise ConfigError(
                "backend endpoint must not carry credentials (user:password@host); "
                "name the variable holding the bearer token with api_key_env"
            )
        parts, shown = _split_url(endpoint), _without_credentials(endpoint)
        if parts is None or parts.scheme not in ("http", "https"):
            raise ConfigError(f"backend endpoint must be an http:// or https:// URL, got {shown!r}")
        if not re.fullmatch(r"[!-~]+", endpoint):
            raise ConfigError(f"backend endpoint must be printable ASCII without spaces, got {shown!r}")
        if "#" in endpoint:
            raise ConfigError(f"backend endpoint must not have a fragment, got {shown!r}")
        # Negated comparisons so that NaN fails them too.
        if not 0 <= temperature < math.inf:
            raise ConfigError("temperature must be a finite number >= 0")
        if max_tokens < 1:
            raise ConfigError("max_tokens must be >= 1")
        # The longest wait a socket or a sleep accepts; Retry-After is capped at the timeout.
        if not 0 < timeout <= threading.TIMEOUT_MAX:
            raise ConfigError(f"timeout must be a number > 0 and at most {threading.TIMEOUT_MAX:.0f} seconds")
        if not 0 <= retries <= MAX_RETRIES:
            raise ConfigError(f"retries must be between 0 and {MAX_RETRIES}")
        set_field(self, "endpoint", endpoint)
        set_field(self, "model", model)
        set_field(self, "temperature", temperature)
        set_field(self, "max_tokens", max_tokens)
        set_field(self, "api_key_env", api_key_env)
        set_field(self, "timeout", timeout)
        set_field(self, "retries", retries)


class PromptRequest(FrozenRecord):
    """One agent call: template id, fill-in bindings, rendered messages.

    ``temperature`` of None defers to the backend config's default;
    deterministic stages pass 0.0 explicitly.  The fingerprint covers
    template id and bindings only, never the temperature, so scripted
    fixtures stay valid when sampling settings move.

    ``head`` is the front of the last message's content that many
    requests share (the planning prompts of one run); it changes nothing
    that is sent, but lets :class:`HttpBackend` encode it once.
    """

    def __init__(
        self,
        template_id: str,
        bindings: tuple[tuple[str, str], ...],
        messages: tuple[ChatMessage, ...],
        temperature: float | None = None,
        head: str = "",
    ):
        if not template_id:
            raise ValueError("template_id must be non-empty")
        if not messages:
            raise ValueError("a request carries at least one message")
        if not messages[-1].content.startswith(head):
            raise ValueError("a request's head must begin its last message")
        set_field(self, "template_id", template_id)
        set_field(self, "bindings", bindings)
        set_field(self, "messages", messages)
        set_field(self, "temperature", temperature)
        set_field(self, "head", head)

    def fingerprint(self) -> str:
        return fingerprint(self.template_id, dict(self.bindings))


def fingerprint(template_id: str, bindings: dict[str, str]) -> str:
    """Stable identity of a prompt: template id plus a bindings digest."""
    import hashlib  # loads OpenSSL's digests, which only scripted runs use

    canonical = json.dumps(bindings, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return f"{template_id}:{digest}"


class HttpBackend:
    """Client for an OpenAI-compatible chat-completions endpoint.

    Each thread keeps one persistent HTTP/1.1 connection, opened on its
    first call; :meth:`close` closes them all.  :class:`_Connection`
    opens the socket itself (TCP, proxy tunnel, TLS); each request goes
    out in one write, and :func:`_read_response` frames the reply.  A reused
    connection that the server closed while idle is reopened and the
    request resent once without counting an attempt.  Other connection
    failures and the transient statuses (429/5xx) are retried up to the
    configured count with exponential backoff; a 429 or 503 carrying
    ``Retry-After`` (seconds) waits at least that long, capped at the
    timeout.  A reply body over 16 MiB fails the call at once, without a
    retry: a larger Content-Length is refused before the body is read,
    and a chunked or unframed body is cut off at the cap.  Redirects are
    not followed.  ``http_proxy``, ``https_proxy`` and ``no_proxy`` are
    read once, when the backend is created; ``ssl`` is loaded only for
    an ``https://`` endpoint.  The credential is read from the
    environment variable named in the config; naming a variable that is
    unset is a configuration error raised before any network traffic.

    A request's ``head`` is JSON-encoded once and kept in a memo of one
    entry, keyed by the head string: the planning head of the run in
    progress, about 48 kchars for 200 event types.  Every later request
    with that head splices the stored encoding with its encoded rest; a
    request with another non-empty head (the next run's) replaces the
    entry, so the memo never holds more than one head.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        base, _, query = config.endpoint.partition("?")
        self._url = base.rstrip("/") + "/chat/completions" + (f"?{query}" if query else "")
        parts = urllib.parse.urlsplit(self._url)
        https = parts.scheme == "https"
        host, port = parts.hostname, parts.port or (443 if https else 80)
        self._address = (host, port)
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        authority = f"[{host}]" if ":" in host else host
        if parts.port not in (None, 443 if https else 80):
            authority += f":{port}"
        fields = [f"Host: {authority}", "Accept-Encoding: identity", "Content-Type: application/json"]
        self._tunnel = None  # the CONNECT request that opens a proxy tunnel
        proxy = _proxy_for(parts.scheme, f"{host}:{port}")
        if proxy is not None:
            self._address = (proxy.hostname, proxy.port or 80)
            proxy_fields = []
            if proxy.username is not None:
                credentials = f"{urllib.parse.unquote(proxy.username)}:{urllib.parse.unquote(proxy.password or '')}"
                token = base64.b64encode(credentials.encode("utf-8")).decode("ascii")
                proxy_fields.append(f"Proxy-Authorization: Basic {token}")
            if https:
                self._tunnel = _lines(f"CONNECT {host}:{port} HTTP/1.0", *proxy_fields, "")
            else:
                target = self._url  # absolute-form request target
                fields.extend(proxy_fields)
        self._head = _lines(f"POST {target} HTTP/1.1", *fields)
        self._tls: tuple[ssl.SSLContext, str] | None = None
        if https:
            import ssl  # loads OpenSSL, which plain-HTTP runs never need

            self._tls = (ssl.create_default_context(), host)
        self._body_prefix = b'{"model": %s, "messages": [' % json.dumps(config.model).encode("ascii")
        self._body_suffix = b', "max_tokens": %s}' % json.dumps(config.max_tokens).encode("ascii")
        self._local = threading.local()
        self._connections: list[_Connection] = []
        self._lock = threading.Lock()
        self._head_memo = ("", b'"')

    def complete(self, request: PromptRequest) -> str:
        head = self._head
        if self.config.api_key_env is not None:
            key = os.environ.get(self.config.api_key_env)
            if not key:
                raise ConfigError(
                    f"credential environment variable {self.config.api_key_env!r} is not set"
                )
            if not (key.isascii() and key.isprintable()):
                raise ConfigError(
                    f"credential environment variable {self.config.api_key_env!r} holds characters "
                    "that cannot be sent in an HTTP header"
                )
            head += f"Authorization: Bearer {key}\r\n".encode("ascii")
        body = self._body(request)
        message = b"%sContent-Length: %d\r\n\r\n%s" % (head, len(body), body)
        connection = self._connection()
        attempts = self.config.retries + 1
        last_problem = "unknown failure"
        retry_after = 0.0
        for attempt in range(attempts):
            if attempt:
                time.sleep(max(0.1 * (2 ** (attempt - 1)), retry_after))
            retry_after = 0.0
            try:
                status, headers, data = connection.exchange(message)
            except (OSError, _FramingError) as exc:
                connection.close()
                last_problem = f"transport failure: {exc}"
                continue
            except BackendError:  # a reply body over the cap: a retry would cost as much again
                connection.close()
                raise
            if status in RETRYABLE_STATUSES:
                last_problem = f"status {status}"
                if status in _RETRY_AFTER_STATUSES:
                    retry_after = _retry_after(headers.get("retry-after"), self.config.timeout)
                continue
            if status != 200:
                text = data.decode("utf-8", errors="replace")
                raise BackendError(f"backend returned status {status}: {text[:200]}")
            return _extract_content(data)
        raise BackendError(f"request to {self._url} failed after {attempts} attempts ({last_problem})")

    def _body(self, request: PromptRequest) -> bytes:
        """The request body: exactly ``json.dumps(payload).encode("utf-8")``
        for the chat-completions payload of ``request``.

        The last message's content goes out as its encoded head spliced
        with its encoded rest.  JSON escapes a string one character at a
        time, so ``json.dumps(a + b) == json.dumps(a)[:-1] +
        json.dumps(b)[1:]``.
        """
        head = request.head
        *earlier, last = request.messages
        temperature = self.config.temperature if request.temperature is None else request.temperature
        # One join of all the pieces: formatting with bytes % over-allocates,
        # which raised the peak RSS of a perfbench refine_llm run by about
        # 0.3 MB (2-vCPU VM).
        parts = [self._body_prefix]
        for message in earlier:
            parts += [_MESSAGE_OPENERS[message.role], _json_string(message.content).encode("ascii"), b"}, "]
        parts += [_MESSAGE_OPENERS[last.role], self._encoded_head(head)]
        parts += [_json_string(last.content[len(head) :])[1:].encode("ascii"), b'}], "temperature": ']
        parts += [json.dumps(temperature).encode("ascii"), self._body_suffix]
        return b"".join(parts)

    def _encoded_head(self, head: str) -> bytes:
        """``head`` as JSON without its closing quote, from the memo.

        The memo keeps one entry, the last non-empty head seen: the
        planning head of the run in progress.  A new run's head replaces
        it; requests without a head leave it alone.
        """
        if not head:
            return b'"'
        memo = self._head_memo
        if memo[0] != head:
            with self._lock:
                memo = self._head_memo
                if memo[0] != head:
                    memo = self._head_memo = (head, _json_string(head)[:-1].encode("ascii"))
        return memo[1]

    def close(self) -> None:
        """Close every connection this backend opened."""
        with self._lock:
            for connection in self._connections:
                connection.close()

    def _connection(self) -> _Connection:
        """This thread's connection; it reconnects by itself once closed."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = _Connection(
                self._address, self.config.timeout, self._tunnel, self._tls
            )
            with self._lock:
                self._connections.append(connection)
        return connection


def _lines(*lines: str) -> bytes:
    """``lines`` as an HTTP head: each one ended by CRLF, in ASCII."""
    return "".join(f"{line}\r\n" for line in lines).encode("ascii")


# A string as json.dumps writes it: quoted, with ASCII escapes.
_json_string = json.encoder.encode_basestring_ascii

# The start of each message object in a request body, by role.
_MESSAGE_OPENERS = {role: b'{"role": %s, "content": ' % _json_string(role).encode("ascii") for role in _ROLES}


class _Connection:
    """One thread's keep-alive connection.

    It opens its socket on first use: TCP with ``TCP_NODELAY``, then the
    proxy's CONNECT tunnel when ``tunnel`` holds that request, then TLS
    when ``tls`` holds a context and the server's host name.  Each
    request goes out as one write and the reply is read through one
    buffered reader, open while ``reader`` is set.
    """

    def __init__(
        self,
        address: tuple[str, int],
        timeout: float,
        tunnel: bytes | None,
        tls: tuple[ssl.SSLContext, str] | None,
    ):
        self.address = address
        self.timeout = timeout
        self.tunnel = tunnel
        self.tls = tls
        self.sock: socket.socket | None = None
        self.reader: IO[bytes] | None = None

    def exchange(self, message: bytes) -> tuple[int, dict[str, str], bytes]:
        """Send one request; the reply's status, headers and body."""
        reused = self.reader is not None
        try:
            line = self._send(message)
        except (ConnectionResetError, BrokenPipeError):
            if not reused:
                raise
            # No status line on a reused connection: the server closed it
            # while it sat idle.  Resend once on a new one.
            self.close()
            line = self._send(message)
        status, headers, body, keep_alive = _read_response(self.reader, line)
        if not keep_alive:
            self.close()
        return status, headers, body

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()
            self.reader = None
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def _send(self, message: bytes) -> bytes:
        """Write ``message``, opening the connection first if need be; the
        first status line of the reply."""
        if self.reader is None:
            self.sock = self._open()
            self.reader = self.sock.makefile("rb")
        self.sock.sendall(message)
        return _read_status_line(self.reader)

    def _open(self) -> socket.socket:
        sock = socket.create_connection(self.address, self.timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self.tunnel is not None:
                sock.sendall(self.tunnel)
                with sock.makefile("rb") as reader:
                    line = _read_status_line(reader)
                    match = _STATUS.fullmatch(line)
                    if match is None:
                        raise _FramingError(repr(line[:100]))
                    if match[2] != b"200":
                        reason = (match[3] or b"").decode("latin-1").strip()
                        raise OSError(f"Tunnel connection failed: {int(match[2])} {reason}")
                    _read_headers(reader)
            if self.tls is not None:
                context, host = self.tls
                sock = context.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return sock


# Response framing (RFC 9112), with the limits and fault texts of the
# standard library's http.client.
_MAX_LINE = 65536
_MAX_HEADERS = 100
_MAX_READ = 1 << 20  # bytes asked of the reader at once for an unframed body
# The largest reply body read.  A reply of max_tokens tokens is a few
# hundred kilobytes even with every character sent as a \uXXXX escape;
# this cap is far above that, and keeps a broken or hostile server from
# filling the client's memory.
_MAX_BODY = 16 << 20
_STATUS = re.compile(rb"(HTTP/1\.[0-9]+)[ \t]+([1-9][0-9]{2})(?:[ \t](.*))?\r?\n?", re.DOTALL)
_CONTENT_LENGTH = re.compile(r"[0-9]{1,18}")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,15}")
_NO_BODY_STATUSES = frozenset({204, 304})


class _FramingError(Exception):
    """A reply that breaks HTTP/1.1 framing: a transport failure."""


def _read_line(reader: IO[bytes], what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise _FramingError(f"got more than {_MAX_LINE} bytes when reading {what}")
    return line


def _read_status_line(reader: IO[bytes]) -> bytes:
    line = _read_line(reader, "status line")
    if not line:
        raise ConnectionResetError("Remote end closed connection without response")
    return line


def _read_response(reader: IO[bytes], line: bytes) -> tuple[int, dict[str, str], bytes, bool]:
    """Read the reply whose first status line is ``line``.

    Returns the status, the headers (lower-cased names, a repeated
    field's values joined by ", "), the body, and whether the connection
    can carry another request.  1xx interim replies are skipped.  Every
    framing fault raises a ``_FramingError`` or an ``OSError``; a body
    over ``_MAX_BODY`` raises a ``BackendError``.
    """
    while True:
        match = _STATUS.fullmatch(line)
        if match is None:
            raise _FramingError(repr(line[:100]))
        status = int(match[2])
        headers = _read_headers(reader)
        if status >= 200:
            break
        line = _read_status_line(reader)
    framed = True
    if status in _NO_BODY_STATUSES:
        body = b""
    elif "transfer-encoding" in headers:
        # Chunked framing wins over Content-Length, but a reply with both
        # may be response splitting: its connection is not reused (RFC
        # 9112, section 6.3).
        framed = "content-length" not in headers
        if headers["transfer-encoding"].rpartition(",")[2].strip().lower() == "chunked":
            body = _read_chunked(reader)
        else:
            body, framed = _read_to_end(reader), False
    elif "content-length" in headers:
        length = headers["content-length"]
        if not _CONTENT_LENGTH.fullmatch(length):
            raise _FramingError(f"invalid Content-Length {length[:100]!r}")
        body = _read_exact(reader, _check_body_size(int(length)))
    else:
        body, framed = _read_to_end(reader), False
    keep_alive = (
        framed
        and match[1] != b"HTTP/1.0"
        and "close" not in (token.strip().lower() for token in headers.get("connection", "").split(","))
    )
    return status, headers, body, keep_alive


def _read_headers(reader: IO[bytes]) -> dict[str, str]:
    """Header (or trailer) lines up to the blank line, at most
    ``_MAX_HEADERS``.  A repeated field is one comma-separated list (RFC
    9110, section 5.3), so its values are joined with ", "."""
    fields: dict[str, list[str]] = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(reader, "header line")
        if line in (b"\r\n", b"\n"):
            return {name: ", ".join(values) for name, values in fields.items()}
        if not line:
            raise _FramingError("IncompleteRead(0 bytes read)")
        name, colon, value = line.partition(b":")
        if colon:
            fields.setdefault(name.strip().lower().decode("latin-1"), []).append(value.strip().decode("latin-1"))
    raise _FramingError(f"got more than {_MAX_HEADERS} headers")


def _read_chunked(reader: IO[bytes]) -> bytes:
    """A chunked body; chunk extensions and the trailer are read and dropped."""
    chunks, total = [], 0
    while True:
        size = _read_line(reader, "chunk size").partition(b";")[0].strip()
        if not _CHUNK_SIZE.fullmatch(size):
            raise _FramingError(f"invalid chunk size {size[:100]!r}")
        size = int(size, 16)
        if not size:
            break
        total = _check_body_size(total + size)
        chunks.append(_read_exact(reader, size))
        if _read_exact(reader, 2) != b"\r\n":
            raise _FramingError("chunk data not followed by CRLF")
    _read_headers(reader)
    return b"".join(chunks)


def _read_to_end(reader: IO[bytes]) -> bytes:
    """Every byte up to EOF: an unframed body."""
    parts, total = [], 0
    while part := reader.read(_MAX_READ):
        total = _check_body_size(total + len(part))
        parts.append(part)
    return b"".join(parts)


def _check_body_size(size: int) -> int:
    """``size``, unless a body that long is over ``_MAX_BODY``: then a
    non-retryable ``BackendError``, raised before the rest is read."""
    if size > _MAX_BODY:
        raise BackendError(f"backend reply body is larger than the {_MAX_BODY}-byte cap")
    return size


def _read_exact(reader: IO[bytes], size: int) -> bytes:
    """``size`` bytes; fewer before EOF is an ``IncompleteRead``.  A
    buffered reader's ``read`` returns short only at EOF."""
    data = reader.read(size)
    if len(data) < size:
        raise _FramingError(f"IncompleteRead({len(data)} bytes read, {size - len(data)} more expected)")
    return data


def _proxy_for(scheme: str, host: str) -> urllib.parse.SplitResult | None:
    """The proxy the environment names for this scheme and host, if any."""
    # Outside macOS and Windows, getproxies() reads nothing but the
    # *_proxy variables; without one, urllib.request (and the email
    # parser it loads) is not worth loading.
    if sys.platform != "darwin" and os.name != "nt" and not any(name.lower().endswith("_proxy") for name in os.environ):
        return None
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(host):
        return None
    parts = _split_url(proxy if "://" in proxy else f"http://{proxy}")
    if parts is None:
        raise ConfigError(f"{scheme} proxy {_without_credentials(proxy)!r} is not a valid URL")
    return parts


def _retry_after(value: str | None, cap: float) -> float:
    """Delta-seconds of a Retry-After header, at most ``cap``; 0 when
    absent or not a plain number of seconds (an HTTP-date, say)."""
    if value is None or not re.fullmatch(r"[0-9]+", value.strip()):
        return 0.0
    return min(float(value), cap)


def _extract_content(data: bytes) -> str:
    body = load_json(data, BackendError, "backend response is not valid JSON", located=True)
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError):
        raise BackendError("backend response is missing choices[0].message.content") from None
    if not isinstance(content, str):
        raise BackendError("backend response content is not text")
    if has_surrogate(content):
        raise BackendError("backend response content holds a lone surrogate, which UTF-8 cannot encode")
    return content


class ScriptedBackend:
    """Deterministic backend replaying canned replies keyed by fingerprint.

    A fixture maps each fingerprint to a list of replies, consumed in
    order (the last entry repeats once exhausted), or to one reply, kept
    as a one-element list; a list lets one prompt issued several times
    return distinct texts.  Unknown fingerprints raise, naming the
    template, so an unnoticed prompt change cannot silently pass tests.
    A served request is not kept: a run holds the fixture and one
    counter per fingerprint, however many calls it makes.
    """

    def __init__(self, mapping: dict[str, str | list[str]]):
        _check_replies(mapping)
        self._replies = {fp: value if isinstance(value, list) else [value] for fp, value in mapping.items()}
        self._counters: dict[str, int] = {}
        self._lock = threading.Lock()

    def complete(self, request: PromptRequest) -> str:
        fp = request.fingerprint()
        with self._lock:
            if fp not in self._replies:
                raise BackendError(
                    f"no scripted reply for template {request.template_id!r} (fingerprint {fp})"
                )
            replies = self._replies[fp]
            index = self._counters.get(fp, 0)
            self._counters[fp] = index + 1
            return replies[min(index, len(replies) - 1)]


def _check_replies(mapping: dict[str, Any]) -> None:
    for key, value in mapping.items():
        replies = value if isinstance(value, list) else [value]
        if not replies:
            raise ConfigError(f"scripted fixture entry {key!r} is an empty list")
        if not all(isinstance(reply, str) for reply in replies):
            raise ConfigError(f"scripted fixture entry {key!r} must be a string or list of strings")
        if any(map(has_surrogate, replies)):
            raise ConfigError(f"scripted fixture entry {key!r} holds a lone surrogate, which UTF-8 cannot encode")


def load_scripted_fixture(source: bytes) -> dict[str, str | list[str]]:
    """Read a scripted-backend fixture document: the bytes of a UTF-8 JSON object."""
    data = load_json(source, ConfigError, "malformed scripted fixture", located=True)
    if not isinstance(data, dict):
        raise ConfigError("scripted fixture must be a JSON object mapping fingerprints to replies")
    _check_replies(data)
    return data
