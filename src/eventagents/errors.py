"""Shared exception types, and the checks every reader of outside text uses."""

import json
import re

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


def json_fault(exc: ValueError | RecursionError, located: bool = False) -> str:
    """What a failed ``json.loads`` found, in words that name no part of Python.

    A syntax error is the decoder's message, followed with ``located`` by
    its position, as in ``Expecting value: line 1 column 32 (char 31)``;
    bytes that are not UTF-8 keep the codec's message.
    """
    if isinstance(exc, json.JSONDecodeError):
        return str(exc) if located else exc.msg
    if isinstance(exc, UnicodeDecodeError):
        return str(exc)
    if isinstance(exc, RecursionError):
        return "nesting too deep"
    return "number literal out of range"  # more digits than int() converts
