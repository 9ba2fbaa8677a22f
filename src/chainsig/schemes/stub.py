"""Deterministic toy backend used by tests and dry runs.

The stub is an HMAC tag generator, not a real signature scheme: the
public and secret key are the same 16 random bytes. It satisfies the
roundtrip and tamper properties the harness relies on, and each
operation can be given a fixed busy-wait so timing code paths can be
exercised with a known oracle.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import time
from typing import TYPE_CHECKING

from ..errors import UnsupportedVariant
from .base import Provider, SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

_KEY_LEN = 16


def _spin(duration_ms: float) -> None:
    """Burn CPU for duration_ms; sleep() is too coarse for sub-ms delays."""
    if duration_ms <= 0:
        return
    deadline = time.perf_counter_ns() + int(duration_ms * 1e6)
    while time.perf_counter_ns() < deadline:
        pass


class StubBackend(SchemeBackend):
    def __init__(
        self,
        keypair_ms: float = 0.0,
        sign_ms: float = 0.0,
        verify_ms: float = 0.0,
    ) -> None:
        self._keypair_ms = keypair_ms
        self._sign_ms = sign_ms
        self._verify_ms = verify_ms

    def _tag(self, key: bytes, message: bytes) -> bytes:
        return hmac.new(key, message, hashlib.sha256).digest()

    def keypair(self) -> tuple[bytes, bytes]:
        _spin(self._keypair_ms)
        key = os.urandom(_KEY_LEN)
        return key, key

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        _spin(self._sign_ms)
        return self._tag(secret_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        _spin(self._verify_ms)
        return hmac.compare_digest(self._tag(public_key, message), signature)


class StubProvider(Provider):
    def create(self, descriptor: "VariantDescriptor") -> SchemeBackend:
        if not descriptor.variant:
            raise UnsupportedVariant("stub: descriptor has no variant name")
        return StubBackend()
