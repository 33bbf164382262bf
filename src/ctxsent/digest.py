"""Stable content digests shared by prompt rendering, the response cache and the mock oracle."""

from __future__ import annotations

import hashlib
import struct

_SEPARATOR = b"\x1f"
_WORDS = struct.Struct("<8Q")


def stable_digest(*parts: str) -> str:
    """SHA-256 hex digest over the parts, joined with a unit separator.

    The separator keeps ("ab", "c") and ("a", "bc") distinct.
    """
    h = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            h.update(_SEPARATOR)
        h.update(part.encode("utf-8"))
    return h.hexdigest()


def derive_seed(*parts: object) -> int:
    """Collapse arbitrary parts into a stable 64-bit integer."""
    digest = stable_digest(*(str(p) for p in parts))
    return int(digest[:16], 16)


def digest_words(*parts: object) -> tuple[int, ...]:
    """The eight 64-bit words of a BLAKE2b-512 digest over the parts' text.

    The parts are joined with the unit separator, as in stable_digest.
    """
    data = "\x1f".join(map(str, parts)).encode("utf-8")
    return _WORDS.unpack(hashlib.blake2b(data).digest())
