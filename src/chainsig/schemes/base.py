"""Core types shared by the scheme catalog and its backends."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .catalog import VariantDescriptor


class SchemeBackend(abc.ABC):
    """Raw keypair/sign/verify operations for one concrete variant.

    bench.benchmark_variant times these methods as they are; it checks
    the keys and signatures it keeps after their calls, untimed.
    """

    @abc.abstractmethod
    def keypair(self) -> tuple[bytes, bytes]:
        """Return (public_key, secret_key) as byte strings."""

    @abc.abstractmethod
    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        """Sign message, returning the signature bytes."""

    @abc.abstractmethod
    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        """Return True iff signature is valid for message under public_key.

        A malformed signature yields False; malformed key bytes raise
        BackendFailure.
        """


class SchemeInstance:
    """A catalog variant bound to a concrete backend.

    A record with no code of its own per operation: keypair, sign and
    verify are the backend's own bound methods, so a call enters the
    backend directly. bench.benchmark_variant checks what they return.
    """

    __slots__ = ("descriptor", "backend", "keypair", "sign", "verify")

    def __init__(self, descriptor: "VariantDescriptor", backend: SchemeBackend) -> None:
        self.descriptor = descriptor
        self.backend = backend
        self.keypair = backend.keypair
        self.sign = backend.sign
        self.verify = backend.verify
