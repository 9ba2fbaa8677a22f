"""Core types shared by the scheme catalog and its backends."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

from ..errors import BackendFailure, ChainsigError

if TYPE_CHECKING:
    from .catalog import VariantDescriptor


class SchemeBackend(abc.ABC):
    """Raw keypair/sign/verify operations for one concrete variant."""

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

    Instances are immutable after construction and safe to share between
    threads; any randomness is self-contained in the backend calls.
    Non-emptiness of keys and signatures is enforced here so every
    backend gets the same guarantees. keypair() returns a plain
    (public_key, secret_key) tuple of bytes, sign() the signature bytes
    and verify() a bool. A backend result whose type is exactly bytes
    is returned as it is; any other type (bytearray, a bytes subclass)
    is copied to bytes.
    """

    __slots__ = ("descriptor", "_backend")

    def __init__(self, descriptor: "VariantDescriptor", backend: SchemeBackend) -> None:
        self.descriptor = descriptor
        self._backend = backend

    def _failure(self, op_name: str, exc: Exception) -> BackendFailure:
        return BackendFailure(
            f"{self.descriptor.variant}: {op_name} failed in backend: {exc}"
        )

    # each op is timed with its checks; a written-out try is free until it raises
    def keypair(self) -> tuple[bytes, bytes]:
        try:
            public_key, secret_key = self._backend.keypair()
        except ChainsigError:
            raise
        except Exception as exc:
            raise self._failure("keypair", exc) from exc
        if not public_key or not secret_key:
            raise BackendFailure(
                f"{self.descriptor.variant}: backend produced an empty key"
            )
        # bytes(x) costs a __bytes__ call even on exact bytes, inside every timed window
        if type(public_key) is not bytes:
            public_key = bytes(public_key)
        if type(secret_key) is not bytes:
            secret_key = bytes(secret_key)
        return public_key, secret_key

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        try:
            signature = self._backend.sign(secret_key, message)
        except ChainsigError:
            raise
        except Exception as exc:
            raise self._failure("sign", exc) from exc
        if not signature:
            raise BackendFailure(
                f"{self.descriptor.variant}: backend produced an empty signature"
            )
        return signature if type(signature) is bytes else bytes(signature)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        try:
            return bool(self._backend.verify(public_key, message, signature))
        except ChainsigError:
            raise
        except Exception as exc:
            raise self._failure("verify", exc) from exc
