"""Core types shared by the scheme catalog and its backends."""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from ..errors import BackendFailure, ChainsigError

if TYPE_CHECKING:
    from .catalog import VariantDescriptor


class KeyPair(NamedTuple):
    """Serialized key material; encoding is backend-determined."""

    public_key: bytes
    secret_key: bytes


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
    backend gets the same guarantees.
    """

    __slots__ = ("descriptor", "_backend")

    def __init__(self, descriptor: "VariantDescriptor", backend: SchemeBackend) -> None:
        self.descriptor = descriptor
        self._backend = backend

    def __repr__(self) -> str:
        return f"SchemeInstance({self.descriptor.variant!r})"

    def _guard(self, op_name: str, fn: Callable[..., Any], *args: Any) -> Any:
        try:
            return fn(*args)
        except ChainsigError:
            raise
        except Exception as exc:
            raise BackendFailure(
                f"{self.descriptor.variant}: {op_name} failed in backend: {exc}"
            ) from exc

    def keypair(self) -> KeyPair:
        public_key, secret_key = self._guard("keypair", self._backend.keypair)
        if not public_key or not secret_key:
            raise BackendFailure(
                f"{self.descriptor.variant}: backend produced an empty key"
            )
        return KeyPair(bytes(public_key), bytes(secret_key))

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        signature = self._guard("sign", self._backend.sign, secret_key, message)
        if not signature:
            raise BackendFailure(
                f"{self.descriptor.variant}: backend produced an empty signature"
            )
        return bytes(signature)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return bool(
            self._guard("verify", self._backend.verify, public_key, message, signature)
        )


class Provider(abc.ABC):
    """A backend family that can serve some subset of the catalog."""

    @abc.abstractmethod
    def create(self, descriptor: "VariantDescriptor") -> SchemeBackend:
        """Build a backend for descriptor.

        Raises UnsupportedVariant, with a one-line reason, when the
        library is missing or does not implement the variant.
        """
