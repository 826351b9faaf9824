"""Shared exception types, and the checks every reader of outside text uses."""

import json
import re
from collections.abc import Iterator

_SURROGATE = re.compile("[\ud800-\udfff]")


class EventAgentsError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EventAgentsError):
    """Invalid or incomplete configuration."""


def has_surrogate(text: str) -> bool:
    """Whether ``text`` holds a surrogate code point, which UTF-8 cannot encode.

    A JSON ``\\ud800``-style escape outside a surrogate pair decodes to
    one, so text decoded from outside JSON is checked before it is kept.
    ASCII text, the common case, is answered without a scan.
    """
    return not text.isascii() and _SURROGATE.search(text) is not None


def refuse_surrogates(*texts: str) -> None:
    """Raise ``ValueError`` naming the first of ``texts`` that holds a surrogate code point."""
    for text in texts:
        if has_surrogate(text):
            raise ValueError(f"string {text!r} holds a lone surrogate, which UTF-8 cannot encode")


def json_fault(exc: ValueError | RecursionError, located: bool = False) -> str:
    """What a failed ``json.loads`` found, in words that name no part of Python.

    A syntax error is the decoder's message, followed with ``located`` by
    its position, as in ``Expecting value: line 1 column 32 (char 31)``;
    bytes that are not UTF-8 keep the codec's message.
    """
    if isinstance(exc, json.JSONDecodeError):
        if exc.msg.startswith("Unexpected UTF-8 BOM"):
            return "more than one byte order mark"
        return str(exc) if located else exc.msg
    if isinstance(exc, UnicodeDecodeError):
        return str(exc)
    if isinstance(exc, RecursionError):
        return "nesting too deep"
    return "number literal out of range"  # more digits than int() converts


def load_json(source: bytes, error: type[Exception], what: str, located: bool = False):
    """Parse a file, record or reply body: strict UTF-8, one leading byte
    order mark dropped.  On a failure ``error`` reads ``what``, a colon
    and the :func:`json_fault` wording."""
    try:
        return json.loads(source.decode("utf-8").removeprefix("\ufeff"))
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, oversized integers, deep nesting
        raise error(f"{what}: {json_fault(exc, located)}") from None


def json_lines(source: bytes, error: type[Exception], where: str = "") -> Iterator[tuple[int, object]]:
    """``(line number, value)`` of each JSON Lines record, read by
    :func:`load_json` and raising ``error`` with ``where`` and its line
    number.  A line ends at ``\n``, ``\r\n`` or ``\r`` only, so a string
    may hold U+2028, U+2029 or U+0085 raw; a line of ASCII whitespace,
    after one leading byte order mark, is skipped.
    """
    for line_no, line in enumerate(source.splitlines(), start=1):
        if line.removeprefix(b"\xef\xbb\xbf").strip():
            yield line_no, load_json(line, error, f"{where}line {line_no}: malformed record")
