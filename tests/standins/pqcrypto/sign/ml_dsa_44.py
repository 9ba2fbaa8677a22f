"""Stand-in for `pqcrypto.sign.ml_dsa_44`: its interface over a toy keyed tag.

Not a signature scheme: the tag is keyed by the public key. The sizes are
ML-DSA-44's, so the backend's length checks see real values.
"""

from __future__ import annotations

import hashlib
import os

ALGORITHM = "ml-dsa-44"
PUBLIC_KEY_SIZE = 1312
SECRET_KEY_SIZE = 2560
SIGNATURE_SIZE = 2420


def _tag(key: bytes, message: bytes) -> bytes:
    return hashlib.shake_256(key + message).digest(SIGNATURE_SIZE)


def generate_keypair() -> tuple[bytes, bytes]:
    public_key = os.urandom(PUBLIC_KEY_SIZE)
    return public_key, public_key + bytes(SECRET_KEY_SIZE - PUBLIC_KEY_SIZE)


def sign(secret_key: bytes, message: bytes) -> bytes:
    return _tag(secret_key[:PUBLIC_KEY_SIZE], message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    if len(signature) != SIGNATURE_SIZE:
        raise ValueError(f"signature must be {SIGNATURE_SIZE} bytes")
    return signature == _tag(public_key, message)
