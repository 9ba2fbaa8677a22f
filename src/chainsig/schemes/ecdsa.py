"""ECDSA backend over the `cryptography` package (OpenSSL)."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

from ..errors import BackendFailure, UnsupportedVariant
from .base import Provider, SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

# curve and digest pairings follow the usual strength matching
_CURVES = {
    "P-256": ("SECP256R1", "SHA256"),
    "P-384": ("SECP384R1", "SHA384"),
    "P-521": ("SECP521R1", "SHA512"),
}

# keys cross the SchemeBackend boundary as DER bytes; parsing them back
# on every call would dominate the timings, so recently seen keys keep
# their deserialized form here
@functools.lru_cache(maxsize=8)
def _private_key(der: bytes) -> "ec.EllipticCurvePrivateKey":
    try:
        return serialization.load_der_private_key(der, password=None)
    except Exception as exc:
        raise BackendFailure(f"malformed ECDSA secret key: {exc}") from exc


@functools.lru_cache(maxsize=8)
def _public_key(der: bytes) -> "ec.EllipticCurvePublicKey":
    try:
        return serialization.load_der_public_key(der)
    except Exception as exc:
        raise BackendFailure(f"malformed ECDSA public key: {exc}") from exc


class EcdsaBackend(SchemeBackend):
    def __init__(self, curve_name: str, hash_name: str) -> None:
        self._curve = getattr(ec, curve_name)()
        self._algo = ec.ECDSA(getattr(hashes, hash_name)())

    def keypair(self) -> tuple[bytes, bytes]:
        key = ec.generate_private_key(self._curve)
        secret = key.private_bytes(
            serialization.Encoding.DER,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        public = key.public_key().public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )
        return public, secret

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return _private_key(secret_key).sign(message, self._algo)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        key = _public_key(public_key)
        try:
            key.verify(signature, message, self._algo)
            return True
        except InvalidSignature:
            return False


class EcdsaProvider(Provider):
    def create(self, descriptor: "VariantDescriptor") -> SchemeBackend:
        pairing = _CURVES.get(descriptor.variant)
        if pairing is None:
            raise UnsupportedVariant(f"no curve for {descriptor.variant!r}")
        return EcdsaBackend(*pairing)
