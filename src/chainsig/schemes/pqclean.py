"""Post-quantum backend over the `pqcrypto` wheels (PQClean reference code).

Claims a variant by its family: ML-DSA, Falcon, Falcon-padded and the
four SPHINCS+ families. Mayo and Cross have no PQClean packaging, so
this provider does not claim them. Nor does it claim round-3 Dilithium:
the package ships only FIPS 204 ML-DSA, a different scheme, and a
Dilithium row must not carry ML-DSA numbers.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import TYPE_CHECKING

from ..errors import BackendFailure, UnsupportedVariant
from .base import SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

# a variant's module is its name in lower case with "-" as "_", behind
# "sphincs_" for the SPHINCS+ families, which this tuple leaves out
_FAMILIES = ("ML-DSA", "Falcon", "Falcon-padded")


class PqcleanBackend(SchemeBackend):
    def __init__(self, module: ModuleType) -> None:
        self._module = module

    def keypair(self) -> tuple[bytes, bytes]:
        return self._module.generate_keypair()

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        if len(secret_key) != self._module.SECRET_KEY_SIZE:
            raise BackendFailure(
                f"{self._module.ALGORITHM}: secret key must be "
                f"{self._module.SECRET_KEY_SIZE} bytes, got {len(secret_key)}"
            )
        return self._module.sign(secret_key, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != self._module.PUBLIC_KEY_SIZE:
            raise BackendFailure(
                f"{self._module.ALGORITHM}: public key must be "
                f"{self._module.PUBLIC_KEY_SIZE} bytes, got {len(public_key)}"
            )
        try:
            return bool(self._module.verify(public_key, message, signature))
        except ValueError:
            # key length was checked above, so this is a malformed
            # signature: a clean negative verdict
            return False


def available() -> bool:
    """Whether pqcrypto imports on this host; benchmark provenance records it."""
    try:
        importlib.import_module("pqcrypto.sign")
    except ImportError:
        return False
    return True


def create(descriptor: "VariantDescriptor") -> SchemeBackend:
    sphincs = descriptor.family.startswith("SPHINCS+")
    if not sphincs and descriptor.family not in _FAMILIES:
        raise UnsupportedVariant(f"no implementation of {descriptor.variant!r}")
    module_name = ("sphincs_" if sphincs else "") + descriptor.variant.lower().replace("-", "_")
    try:
        module = importlib.import_module(f"pqcrypto.sign.{module_name}")
    except ImportError as exc:
        raise UnsupportedVariant(
            f"pqcrypto.sign.{module_name} not importable: {exc}"
        ) from exc
    return PqcleanBackend(module)
