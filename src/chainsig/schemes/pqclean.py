"""Post-quantum backend over the `pqcrypto` wheels (PQClean reference code).

Serves the lattice and hash based families. Mayo and Cross have no
PQClean packaging, so this provider does not claim them. Nor does it
claim round-3 Dilithium: the package ships only FIPS 204 ML-DSA, a
different scheme, and a Dilithium row must not carry ML-DSA numbers.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import TYPE_CHECKING

from ..errors import BackendFailure, UnsupportedVariant
from .base import Provider, SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

_MODULES = {
    "ML-DSA-44": "ml_dsa_44",
    "ML-DSA-65": "ml_dsa_65",
    "ML-DSA-87": "ml_dsa_87",
    "Falcon-512": "falcon_512",
    "Falcon-1024": "falcon_1024",
    "Falcon-padded-512": "falcon_padded_512",
    "Falcon-padded-1024": "falcon_padded_1024",
    "SHA2-128s-simple": "sphincs_sha2_128s_simple",
    "SHA2-128f-simple": "sphincs_sha2_128f_simple",
    "SHA2-192s-simple": "sphincs_sha2_192s_simple",
    "SHA2-192f-simple": "sphincs_sha2_192f_simple",
    "SHA2-256s-simple": "sphincs_sha2_256s_simple",
    "SHA2-256f-simple": "sphincs_sha2_256f_simple",
    "SHAKE-128s-simple": "sphincs_shake_128s_simple",
    "SHAKE-128f-simple": "sphincs_shake_128f_simple",
    "SHAKE-192s-simple": "sphincs_shake_192s_simple",
    "SHAKE-192f-simple": "sphincs_shake_192f_simple",
    "SHAKE-256s-simple": "sphincs_shake_256s_simple",
    "SHAKE-256f-simple": "sphincs_shake_256f_simple",
}


def _probe() -> Exception | None:
    try:
        importlib.import_module("pqcrypto.sign")
        return None
    except ImportError as exc:
        return exc


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


class PqcleanProvider(Provider):
    def __init__(self) -> None:
        self._import_error = _probe()

    def available(self) -> bool:
        return self._import_error is None

    def create(self, descriptor: "VariantDescriptor") -> SchemeBackend:
        if not self.available():
            raise UnsupportedVariant(f"pqcrypto not importable: {self._import_error}")
        module_name = _MODULES.get(descriptor.variant)
        if module_name is None:
            raise UnsupportedVariant(f"no implementation of {descriptor.variant!r}")
        module = importlib.import_module(f"pqcrypto.sign.{module_name}")
        return PqcleanBackend(module)
