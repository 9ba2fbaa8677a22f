"""ECDSA backend over the `cryptography` package (OpenSSL)."""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, NamedTuple

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

from ..errors import BackendFailure, UnsupportedVariant
from .base import SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

# curve and digest pairings follow the usual strength matching
_CURVES = {
    "P-256": ("SECP256R1", "SHA256"),
    "P-384": ("SECP384R1", "SHA384"),
    "P-521": ("SECP521R1", "SHA512"),
}


class _Template(NamedTuple):
    """A curve's key encodings, each of one fixed length.

    A public key is a SubjectPublicKeyInfo (RFC 5480): `spki` + 04‖X‖Y,
    the bytes OpenSSL's DER encoder writes for the same key. A secret
    key is the private scalar alone (SEC 1 §2.3.7). The scalar and each
    coordinate take `size` bytes, big-endian.
    """

    curve: ec.EllipticCurve
    order: int
    size: int
    spki: bytes

    def encode(self, numbers: ec.EllipticCurvePrivateNumbers) -> tuple[bytes, bytes]:
        """The (public, secret) keys of numbers."""
        public = numbers.public_numbers
        point = b"\x04" + public.x.to_bytes(self.size, "big") + public.y.to_bytes(self.size, "big")
        return self.spki + point, numbers.private_value.to_bytes(self.size, "big")


_TEMPLATES = {
    "SECP256R1": _Template(
        curve=ec.SECP256R1(),
        order=0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551,
        size=32,
        spki=bytes.fromhex("3059 3013 06072a8648ce3d0201 06082a8648ce3d030107 034200"),
    ),
    "SECP384R1": _Template(
        curve=ec.SECP384R1(),
        order=int(
            "ffffffffffffffffffffffffffffffffffffffffffffffff"
            "c7634d81f4372ddf581a0db248b0a77aecec196accc52973",
            16,
        ),
        size=48,
        spki=bytes.fromhex("3076 3010 06072a8648ce3d0201 06052b81040022 036200"),
    ),
    "SECP521R1": _Template(
        curve=ec.SECP521R1(),
        order=int(
            "01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
            "fa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e91386409",
            16,
        ),
        size=66,
        spki=bytes.fromhex("30819b 3010 06072a8648ce3d0201 06052b81040023 03818600"),
    ),
}


def _malformed(kind: str, reason: object) -> BackendFailure:
    return BackendFailure(f"malformed ECDSA {kind} key: {reason}")


# Keys cross the SchemeBackend boundary as bytes: the public key as
# DER, the secret key as the raw scalar. A loader parses them against
# one curve's template, never through `cryptography`'s serialization
# package, so a key of another curve is refused. Each backend keeps the
# parsed form of its recently seen keys, since parsing on every call
# would dominate the timings. A refused key raises and is not kept.
def _private_key(template: _Template, scalar: bytes) -> "ec.EllipticCurvePrivateKey":
    if len(scalar) != template.size:
        raise _malformed("secret", f"not a {template.curve.name} scalar ({len(scalar)} bytes)")
    d = int.from_bytes(scalar, "big")
    # checked here, not left to OpenSSL, so that every release this
    # package allows refuses the same scalars
    if not 0 < d < template.order:
        raise _malformed("secret", "scalar out of range")
    return ec.derive_private_key(d, template.curve)


def _public_key(template: _Template, der: bytes) -> "ec.EllipticCurvePublicKey":
    point = der[len(template.spki) :]
    if len(point) != 1 + 2 * template.size or not der.startswith(template.spki):
        raise _malformed("public", f"not a {template.curve.name} SPKI key ({len(der)} bytes)")
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(template.curve, point)
    except ValueError as exc:
        raise _malformed("public", exc) from exc


class EcdsaBackend(SchemeBackend):
    def __init__(self, curve_name: str, hash_name: str) -> None:
        self._template = template = _TEMPLATES[curve_name]
        self._algo = ec.ECDSA(getattr(hashes, hash_name)())
        # this curve's loaders, each with its own cache: a hit is one
        # C-level lookup keyed by the key bytes alone
        cache = functools.lru_cache(maxsize=8)
        self._private_key = cache(functools.partial(_private_key, template))
        self._public_key = cache(functools.partial(_public_key, template))

    def keypair(self) -> tuple[bytes, bytes]:
        key = ec.generate_private_key(self._template.curve)
        return self._template.encode(key.private_numbers())

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return self._private_key(secret_key).sign(message, self._algo)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        key = self._public_key(public_key)
        try:
            key.verify(signature, message, self._algo)
            return True
        except InvalidSignature:
            return False


def create(descriptor: "VariantDescriptor") -> SchemeBackend:
    pairing = _CURVES.get(descriptor.variant)
    if pairing is None:
        raise UnsupportedVariant(f"no curve for {descriptor.variant!r}")
    return EcdsaBackend(*pairing)
