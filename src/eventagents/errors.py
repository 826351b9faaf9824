"""Shared exception types, and the check every reader of outside text uses."""

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
