"""Post-quantum backend over a liboqs shared library, bound via ctypes.

This is the preferred backend for the PQC families: liboqs ships
optimized (AVX2 and friends) implementations and covers Mayo and Cross,
which have no Python wheels. The binding reads the OQS_SIG struct of
the 0.12.x and 0.16.x ABIs through one mirror, which must match both
exactly, so other versions are refused rather than risking memory
corruption.

Two libraries may be loaded at once. The primary (0.12.x keeps the
round-3 Dilithium and SPHINCS+ parameter sets that newer releases
dropped) serves every family, but its CROSS implementation predates
version 2.x and accepts signatures whose unused padding bits were
tampered with. So Cross is served by the primary unless it is 0.12.x,
then by a second library if one loads, and else by the primary after
all; whenever a 0.12.x library serves Cross, one warning says so.

The primary library is located through, in order: the CHAINSIG_LIBOQS
environment variable, the system linker search, and a short list of
conventional install prefixes. The Cross-preferred library comes from
CHAINSIG_LIBOQS_CROSS or the /opt/liboqs-cross prefix.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import logging
import os
import sys
import weakref
from typing import TYPE_CHECKING, Iterator

from ..errors import BackendFailure, UnsupportedVariant
from .base import SchemeBackend

if TYPE_CHECKING:
    from .catalog import VariantDescriptor

logger = logging.getLogger(__name__)


def _oqs_algorithm(variant: str) -> str:
    """Map a catalog variant string to the liboqs algorithm identifier."""
    if variant.startswith(("SHA2-", "SHAKE-")):
        return "SPHINCS+-" + variant
    if variant.startswith("Cross-"):
        return "cross" + variant[len("Cross"):]
    return variant


class _SigStruct(ctypes.Structure):
    # mirror of OQS_SIG for every ABI in _KNOWN_ABIS. 0.16.x adds suf_cma
    # after euf_cma, inside the padding before the lengths, so the fields
    # read here have the same offsets, and the struct the same size, in
    # both; the tests check this against the C compiler.
    _fields_ = [
        ("method_name", ctypes.c_char_p),
        ("alg_version", ctypes.c_char_p),
        ("claimed_nist_level", ctypes.c_uint8),
        ("euf_cma", ctypes.c_bool),
        ("suf_cma", ctypes.c_bool),  # sig_with_ctx_support in 0.12.x
        ("sig_with_ctx_support", ctypes.c_bool),  # padding in 0.12.x
        ("length_public_key", ctypes.c_size_t),
        ("length_secret_key", ctypes.c_size_t),
        ("length_signature", ctypes.c_size_t),
        ("keypair", ctypes.c_void_p),
        ("sign", ctypes.c_void_p),
        ("sign_with_ctx_str", ctypes.c_void_p),
        ("verify", ctypes.c_void_p),
        ("verify_with_ctx_str", ctypes.c_void_p),
    ]


_KNOWN_ABIS = ("0.12.", "0.16.")

# CROSS implementations before 2.x (shipped with liboqs 0.13) skip the
# zero-padding checks during deserialization, so a signature stays
# valid after some single-byte tampers. Libraries from 0.12.x should
# not serve the Cross family when a newer one is on hand.
_MALLEABLE_CROSS_PREFIX = "0.12."


_LIBDIRS = ("lib", "lib64", "lib/x86_64-linux-gnu", "lib/aarch64-linux-gnu")
_LIB_SUFFIX = ".dylib" if sys.platform == "darwin" else ".so"
_PRIMARY_PREFIXES = ("/usr/local", "/opt/liboqs", "/opt/homebrew", "/usr")


def _candidate_paths(
    env_var: str, prefixes: tuple[str, ...], linker_search: bool
) -> Iterator[str]:
    """The path set in env_var alone, else the linker's find, then each prefix's libdirs."""
    override = os.environ.get(env_var)
    if override:
        yield override
        return
    found = linker_search and ctypes.util.find_library("oqs")
    if found:
        yield found
    for prefix in prefixes:
        for libdir in _LIBDIRS:
            yield f"{prefix}/{libdir}/liboqs{_LIB_SUFFIX}"


class _Library:
    """A loaded liboqs with typed entry points."""

    def __init__(self, path: str) -> None:
        cdll = ctypes.CDLL(path)
        cdll.OQS_version.restype = ctypes.c_char_p
        cdll.OQS_version.argtypes = []
        version = cdll.OQS_version().decode()
        if not version.startswith(_KNOWN_ABIS):
            known = ", ".join(p + "x" for p in _KNOWN_ABIS)
            raise UnsupportedVariant(
                f"{path} is liboqs {version}; this binding targets {known}"
            )
        sig_p = ctypes.POINTER(_SigStruct)
        cdll.OQS_init.restype = None
        cdll.OQS_init.argtypes = []
        cdll.OQS_SIG_new.restype = sig_p
        cdll.OQS_SIG_new.argtypes = [ctypes.c_char_p]
        cdll.OQS_SIG_free.restype = None
        cdll.OQS_SIG_free.argtypes = [sig_p]
        cdll.OQS_SIG_keypair.restype = ctypes.c_int
        cdll.OQS_SIG_keypair.argtypes = [
            sig_p,
            ctypes.c_char_p,
            ctypes.c_char_p,
        ]
        cdll.OQS_SIG_sign.restype = ctypes.c_int
        cdll.OQS_SIG_sign.argtypes = [
            sig_p,
            ctypes.c_char_p,
            ctypes.POINTER(ctypes.c_size_t),
            ctypes.c_char_p,
            ctypes.c_size_t,
            ctypes.c_char_p,
        ]
        cdll.OQS_SIG_verify.restype = ctypes.c_int
        cdll.OQS_SIG_verify.argtypes = [
            sig_p,
            ctypes.c_char_p,
            ctypes.c_size_t,
            ctypes.c_char_p,
            ctypes.c_size_t,
            ctypes.c_char_p,
        ]
        cdll.OQS_init()
        self.cdll = cdll
        self.path = path
        self.version = version


def _load_library(env_var: str, prefixes: tuple[str, ...], linker_search: bool) -> _Library:
    """Load the first of _candidate_paths(...) that opens with a known ABI.

    Failures come back as one line: a library with an unknown ABI keeps
    its own message, a path set through env_var is named with its error,
    then the first library that is there but does not load is named with
    its error, and otherwise the search is summarized. Each path's error
    is logged at DEBUG.
    """
    searched = 0
    wrong_abi: UnsupportedVariant | None = None
    unloadable: Exception | None = None
    last_error: Exception | None = None
    for path in _candidate_paths(env_var, prefixes, linker_search):
        searched += 1
        try:
            lib = _Library(path)
        except UnsupportedVariant as exc:
            wrong_abi = wrong_abi or exc
            logger.debug("liboqs candidate rejected: %s", exc)
            continue
        except (OSError, AttributeError) as exc:
            # the loader's message already names the path; AttributeError
            # is a library without the liboqs symbols. A bare file name is
            # one the linker search found.
            last_error = exc
            if os.path.exists(path) or os.path.basename(path) == path:
                unloadable = unloadable or exc
            logger.debug("liboqs candidate rejected: %s", exc)
            continue
        logger.debug("loaded liboqs %s from %s", lib.version, lib.path)
        return lib
    if wrong_abi is not None:
        raise wrong_abi
    if os.environ.get(env_var):
        raise UnsupportedVariant(f"{env_var}: {last_error}")
    if unloadable is not None:
        raise UnsupportedVariant(f"liboqs does not load: {unloadable}")
    raise UnsupportedVariant(
        f"liboqs not found ({searched} paths searched; set {env_var})"
    )


class OqsBackend(SchemeBackend):
    def __init__(self, lib: _Library, algorithm: str) -> None:
        sig = lib.cdll.OQS_SIG_new(algorithm.encode())
        if not sig:
            raise UnsupportedVariant(
                f"liboqs at {lib.path} does not enable {algorithm!r}"
            )
        self._lib = lib
        self._sig = sig
        self._algorithm = algorithm
        self.library_version = lib.version
        fields = sig.contents
        self._pk_len = fields.length_public_key
        self._sk_len = fields.length_secret_key
        self._sig_max = fields.length_signature
        self._finalizer = weakref.finalize(self, lib.cdll.OQS_SIG_free, sig)

    def keypair(self) -> tuple[bytes, bytes]:
        public = ctypes.create_string_buffer(self._pk_len)
        secret = ctypes.create_string_buffer(self._sk_len)
        if self._lib.cdll.OQS_SIG_keypair(self._sig, public, secret) != 0:
            raise BackendFailure(f"{self._algorithm}: keypair generation failed")
        return public.raw, secret.raw

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        if len(secret_key) != self._sk_len:
            raise BackendFailure(
                f"{self._algorithm}: secret key must be {self._sk_len} bytes,"
                f" got {len(secret_key)}"
            )
        buffer = ctypes.create_string_buffer(self._sig_max)
        out_len = ctypes.c_size_t(0)
        rc = self._lib.cdll.OQS_SIG_sign(
            self._sig, buffer, ctypes.byref(out_len), message, len(message), secret_key
        )
        if rc != 0:
            raise BackendFailure(f"{self._algorithm}: signing failed (rc={rc})")
        return buffer.raw[: out_len.value]

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if len(public_key) != self._pk_len:
            raise BackendFailure(
                f"{self._algorithm}: public key must be {self._pk_len} bytes,"
                f" got {len(public_key)}"
            )
        rc = self._lib.cdll.OQS_SIG_verify(
            self._sig, message, len(message), signature, len(signature), public_key
        )
        return rc == 0


# each search runs once per process, on first use; the two are separate
# so that a hardened primary never searches for the Cross library
@functools.cache
def _primary() -> _Library | UnsupportedVariant:
    try:
        return _load_library("CHAINSIG_LIBOQS", _PRIMARY_PREFIXES, True)
    except UnsupportedVariant as exc:
        return exc


@functools.cache
def _cross() -> _Library | UnsupportedVariant:
    """The library serving the Cross family, hardened when possible."""
    primary = _primary()
    if not isinstance(primary, UnsupportedVariant) and not primary.version.startswith(
        _MALLEABLE_CROSS_PREFIX
    ):
        return primary
    reason = ""
    try:
        served = _load_library("CHAINSIG_LIBOQS_CROSS", ("/opt/liboqs-cross",), False)
    except UnsupportedVariant as exc:
        reason = f"; no dedicated Cross library: {exc}"
        served = primary
    if not isinstance(served, UnsupportedVariant) and served.version.startswith(
        _MALLEABLE_CROSS_PREFIX
    ):
        logger.warning(
            "serving Cross from liboqs %s at %s, whose verifier ignores "
            "signature padding bits; tampered padding is not rejected%s",
            served.version,
            served.path,
            reason,
        )
    return served


def available() -> bool:
    """Whether a liboqs loads here, as primary or for Cross; provenance records it."""
    return not isinstance(_cross(), UnsupportedVariant)


def create(descriptor: "VariantDescriptor") -> SchemeBackend:
    if not descriptor.is_pqc:
        raise UnsupportedVariant(f"does not serve {descriptor.variant!r}")
    lib = _cross() if descriptor.variant.startswith("Cross-") else _primary()
    if isinstance(lib, UnsupportedVariant):
        raise UnsupportedVariant(str(lib))
    return OqsBackend(lib, _oqs_algorithm(descriptor.variant))
