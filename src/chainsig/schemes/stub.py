"""Toy backend used by tests and dry runs.

The stub is a keyed-hash tag, not a real signature scheme: the public
and secret key are the same 16 random bytes from `os.urandom`, and the
tag is keyed BLAKE2s (RFC 7693) from Python's standard library. It
satisfies the roundtrip and tamper properties the harness relies on,
and it has no settings: `CHAINSIG_PROVIDER=stub` runs every variant on
it.
"""

from __future__ import annotations

import hmac
import os
from hashlib import blake2s
from typing import TYPE_CHECKING

from .base import SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

_KEY_LEN = 16


class StubBackend(SchemeBackend):
    def keypair(self) -> tuple[bytes, bytes]:
        key = os.urandom(_KEY_LEN)
        return key, key

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return blake2s(message, key=secret_key).digest()

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(blake2s(message, key=public_key).digest(), signature)


def create(descriptor: "VariantDescriptor") -> SchemeBackend:
    return StubBackend()
