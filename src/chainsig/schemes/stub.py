"""Deterministic toy backend used by tests and dry runs.

The stub is an HMAC tag generator, not a real signature scheme: the
public and secret key are the same 16 random bytes. It satisfies the
roundtrip and tamper properties the harness relies on, and it has no
settings: `CHAINSIG_PROVIDER=stub` runs every variant on it.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import TYPE_CHECKING

from ..errors import UnsupportedVariant
from .base import Provider, SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

_KEY_LEN = 16


class StubBackend(SchemeBackend):
    def _tag(self, key: bytes, message: bytes) -> bytes:
        return hmac.new(key, message, hashlib.sha256).digest()

    def keypair(self) -> tuple[bytes, bytes]:
        key = os.urandom(_KEY_LEN)
        return key, key

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return self._tag(secret_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return hmac.compare_digest(self._tag(public_key, message), signature)


class StubProvider(Provider):
    def create(self, descriptor: "VariantDescriptor") -> SchemeBackend:
        if not descriptor.variant:
            raise UnsupportedVariant("stub: descriptor has no variant name")
        return StubBackend()
