"""Backend behaviour: roundtrips, tamper rejection, routing, error paths."""

from __future__ import annotations

import _ctypes
import ctypes.util
import hashlib
import logging
import os
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from chainsig.errors import BackendFailure, UnsupportedVariant
from chainsig.schemes import (
    VariantDescriptor,
    by_variant,
    catalog,
    get_provider,
    instantiate,
    oqs,
    pqclean,
    registry,
)
from chainsig.schemes.base import Provider, SchemeInstance
from chainsig.schemes.ecdsa import EcdsaBackend
from chainsig.schemes.stub import StubBackend, StubProvider
from conftest import (
    BrokenStubBackend,
    flip_byte,
    instantiate_or_skip,
    make_stub_descriptor,
    make_stub_instance,
)

# one representative per performance class; fast enough for every run
SMOKE_VARIANTS = (
    "P-256",
    "ML-DSA-44",
    "Falcon-512",
    "MAYO-2",
    "SHA2-128f-simple",
    "Cross-rsdp-128-fast",
)

MESSAGE_SHAPES = (b"", b"\x00", b"hello world", os.urandom(1024))


class TestStubBackend:
    def test_roundtrip(self):
        instance = make_stub_instance()
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"payload")
        assert instance.verify(pk, b"payload", sig) is True

    def test_tampered_signature_rejected(self):
        instance = make_stub_instance()
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"payload")
        assert instance.verify(pk, b"payload", flip_byte(sig)) is False

    def test_tampered_message_rejected(self):
        instance = make_stub_instance()
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"payload")
        assert instance.verify(pk, b"payloae", sig) is False

    def test_wrong_key_rejected(self):
        instance = make_stub_instance()
        _, sk = instance.keypair()
        other_pk, _ = instance.keypair()
        sig = instance.sign(sk, b"payload")
        assert instance.verify(other_pk, b"payload", sig) is False

    def test_empty_message_roundtrip(self):
        instance = make_stub_instance()
        pk, sk = instance.keypair()
        assert instance.verify(pk, b"", instance.sign(sk, b"")) is True

    def test_known_answer_is_keyed_blake2s(self):
        key, message = bytes(range(16)), b"known answer"
        sig = StubBackend().sign(key, message)
        assert sig == hashlib.blake2s(message, key=key).digest()
        assert len(sig) == 32
        # first keyed entry of the BLAKE2 reference's blake2s-kat.txt
        assert StubBackend().sign(bytes(range(32)), b"").hex() == (
            "48a8997da407876b3d79c0d92325ad3b89cbb754d86ab71aee047ad345fd2c49"
        )

    def test_short_and_empty_signatures_rejected(self):
        instance = make_stub_instance()
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"payload")
        assert instance.verify(pk, b"payload", sig[:-1]) is False
        assert instance.verify(pk, b"payload", b"") is False

    def test_broken_stub_never_verifies(self):
        backend = BrokenStubBackend()
        pk, sk = backend.keypair()
        assert backend.verify(pk, b"m", backend.sign(sk, b"m")) is False


class RaisingBackend(StubBackend):
    """Stub whose every op raises the given exception."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def keypair(self):
        raise self.error

    def sign(self, secret_key, message):
        raise self.error

    def verify(self, public_key, message, signature):
        raise self.error


_OPS = {
    "keypair": lambda instance: instance.keypair(),
    "sign": lambda instance: instance.sign(b"k", b"m"),
    "verify": lambda instance: instance.verify(b"k", b"m", b"s"),
}


class TestInstanceGuards:
    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_chainsig_error_passes_through(self, op):
        error = BackendFailure("malformed key bytes")
        instance = SchemeInstance(make_stub_descriptor(), RaisingBackend(error))
        with pytest.raises(BackendFailure) as info:
            _OPS[op](instance)
        assert info.value is error
        assert str(info.value) == "malformed key bytes"

    @pytest.mark.parametrize("op", ["keypair", "verify"])
    def test_other_backend_exceptions_wrapped(self, op):
        error = RuntimeError("boom")
        instance = SchemeInstance(make_stub_descriptor(), RaisingBackend(error))
        with pytest.raises(BackendFailure) as info:
            _OPS[op](instance)
        assert str(info.value) == f"Stub-A: {op} failed in backend: boom"
        assert info.value.__cause__ is error

    def test_bytearray_results_become_bytes(self):
        class BytesSubclass(bytes):
            pass

        for kind in (bytearray, BytesSubclass):

            class ConvertingBackend(StubBackend):
                def keypair(self):
                    return kind(b"pk"), kind(b"sk")

                def sign(self, secret_key, message):
                    return kind(b"sig")

            instance = SchemeInstance(make_stub_descriptor(), ConvertingBackend())
            public_key, secret_key = instance.keypair()
            signature = instance.sign(secret_key, b"m")
            results = (public_key, secret_key, signature)
            assert [type(value) for value in results] == [bytes] * 3, kind
            assert results == (b"pk", b"sk", b"sig"), kind

    def test_exact_bytes_results_are_not_copied(self):
        # longer than one byte, so a copy would be a new object (CPython
        # shares its one-byte bytes); bytes() hands exact bytes back as
        # they are, so this pins the guard's contract, not its cost
        public, secret, signature = (bytes([value]) * 40 for value in (1, 2, 3))

        class FixedBackend(StubBackend):
            def keypair(self):
                return public, secret

            def sign(self, secret_key, message):
                return signature

        instance = SchemeInstance(make_stub_descriptor(), FixedBackend())
        public_key, secret_key = instance.keypair()
        assert public_key is public
        assert secret_key is secret
        assert instance.sign(secret_key, b"m") is signature

    def test_keypair_is_a_pair(self):
        pair = make_stub_instance().keypair()
        assert isinstance(pair, tuple)
        assert len(pair) == 2

    def test_backend_exception_wrapped(self):
        class ExplodingBackend(StubBackend):
            def sign(self, secret_key, message):
                raise RuntimeError("boom")

        instance = SchemeInstance(make_stub_descriptor(), ExplodingBackend())
        with pytest.raises(BackendFailure, match="sign failed"):
            instance.sign(b"k", b"m")

    def test_empty_signature_rejected(self):
        class EmptySigBackend(StubBackend):
            def sign(self, secret_key, message):
                return b""

        instance = SchemeInstance(make_stub_descriptor(), EmptySigBackend())
        with pytest.raises(BackendFailure, match="empty signature"):
            instance.sign(b"k", b"m")

    def test_empty_key_rejected(self):
        class EmptyKeyBackend(StubBackend):
            def keypair(self):
                return b"", b""

        instance = SchemeInstance(make_stub_descriptor(), EmptyKeyBackend())
        with pytest.raises(BackendFailure, match="empty key"):
            instance.keypair()

    def test_verify_result_is_bool(self):
        class TruthyBackend(StubBackend):
            def verify(self, public_key, message, signature):
                return 1

        instance = SchemeInstance(make_stub_descriptor(), TruthyBackend())
        result = instance.verify(b"k", b"m", b"s")
        assert result is True


class _RefusingProvider(StubProvider):
    def create(self, descriptor):
        raise UnsupportedVariant("refused")


class TestRegistry:
    def test_known_providers_resolve(self):
        for name in ("ecdsa", "oqs", "pqclean", "stub"):
            assert isinstance(get_provider(name), Provider)

    def test_get_provider_is_cached(self):
        assert get_provider("stub") is get_provider("stub")

    def test_unknown_provider_raises(self):
        with pytest.raises(UnsupportedVariant, match="no provider registered"):
            get_provider("no-such-backend")

    def test_instantiate_unknown_key(self, monkeypatch):
        monkeypatch.setenv("CHAINSIG_PROVIDER", "no-such-backend")
        with pytest.raises(UnsupportedVariant, match="no provider registered"):
            instantiate(by_variant()["P-256"])

    def test_instantiate_unsupported_variant(self, monkeypatch):
        mystery = VariantDescriptor(
            family="Mystery", variant="Mystery-1", level=1, is_pqc=True
        )
        # is_pqc routes it to the post-quantum candidates, which both refuse
        with pytest.raises(UnsupportedVariant, match="^oqs: .+; pqclean: .+"):
            instantiate(mystery)
        monkeypatch.setenv("CHAINSIG_PROVIDER", "ecdsa")
        with pytest.raises(UnsupportedVariant, match="^ecdsa: no curve for"):
            instantiate(by_variant()["ML-DSA-44"])

    @pytest.mark.parametrize("descriptor", catalog(), ids=lambda d: d.variant)
    def test_catalog_routing(self, monkeypatch, descriptor):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        expected = ("ecdsa",) if descriptor.family == "ECDSA" else ("oqs", "pqclean")
        assert registry._candidates(descriptor) == expected
        monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
        assert registry._candidates(descriptor) == ("stub",)

    def test_oqs_refuses_classical_before_any_library_search(self, monkeypatch):
        def search(*args):
            raise AssertionError("liboqs searched")

        monkeypatch.setenv("CHAINSIG_PROVIDER", "oqs")
        monkeypatch.setenv("CHAINSIG_LIBOQS", "/nope")
        monkeypatch.setattr(oqs, "_load_library", search)
        monkeypatch.setattr(registry, "get_provider", {"oqs": oqs.OqsProvider()}.__getitem__)
        with pytest.raises(UnsupportedVariant) as info:
            instantiate(by_variant()["P-256"])
        assert str(info.value) == "oqs: does not serve 'P-256'"

    def test_env_override_routes_to_stub(self, monkeypatch):
        monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
        instance = instantiate(by_variant()["P-256"])
        assert isinstance(instance._backend, StubBackend)
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"m")
        assert instance.verify(pk, b"m", sig)

    def test_ecdsa_family_routes_to_ecdsa_provider(self, monkeypatch, caplog):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        caplog.set_level(logging.INFO, logger="chainsig.schemes.registry")
        for variant in ("P-256", "P-384", "P-521"):
            instance = instantiate(by_variant()[variant])
            assert isinstance(instance._backend, EcdsaBackend)
            assert f"{variant} via ecdsa" in caplog.messages

    def test_first_working_candidate_wins(self, monkeypatch, caplog):
        providers = {"oqs": _RefusingProvider(), "pqclean": StubProvider()}
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        monkeypatch.setattr(registry, "get_provider", providers.__getitem__)
        caplog.set_level(logging.INFO, logger="chainsig.schemes.registry")
        instance = instantiate(by_variant()["ML-DSA-44"])
        assert isinstance(instance._backend, StubBackend)
        assert caplog.messages == ["ML-DSA-44 via pqclean"]

    def test_every_refusal_is_joined(self, monkeypatch):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        monkeypatch.setattr(registry, "get_provider", lambda name: _RefusingProvider())
        with pytest.raises(UnsupportedVariant) as info:
            instantiate(by_variant()["Falcon-512"])
        assert str(info.value) == "oqs: refused; pqclean: refused"

    def test_unserved_pqc_variant_names_both_candidates(self, monkeypatch):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        try:
            instantiate(by_variant()["ML-DSA-44"])
        except UnsupportedVariant as exc:
            reason = str(exc)
        else:
            pytest.skip("a post-quantum backend serves ML-DSA-44 here")
        assert "\n" not in reason
        assert "oqs: " in reason and "pqclean: " in reason


@pytest.mark.parametrize("variant", SMOKE_VARIANTS)
class TestRealBackends:
    def test_roundtrip_message_shapes(self, variant):
        instance = instantiate_or_skip(variant)
        pk, sk = instance.keypair()
        for message in MESSAGE_SHAPES:
            sig = instance.sign(sk, message)
            assert sig, "signature must be non-empty"
            assert instance.verify(pk, message, sig) is True

    def test_tampered_signature_rejected(self, variant):
        instance = instantiate_or_skip(variant)
        pk, sk = instance.keypair()
        message = b"transaction bytes"
        sig = instance.sign(sk, message)
        assert instance.verify(pk, message, flip_byte(sig)) is False

    def test_tampered_message_rejected(self, variant):
        instance = instantiate_or_skip(variant)
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"original")
        assert instance.verify(pk, b"0riginal", sig) is False

    def test_cross_key_rejected(self, variant):
        instance = instantiate_or_skip(variant)
        pk_a, sk_a = instance.keypair()
        pk_b, _ = instance.keypair()
        assert pk_a != pk_b
        sig = instance.sign(sk_a, b"msg")
        assert instance.verify(pk_b, b"msg", sig) is False

    def test_keypairs_are_fresh(self, variant):
        instance = instantiate_or_skip(variant)
        seen = {instance.keypair()[0] for _ in range(3)}
        assert len(seen) == 3


class TestEcdsaEdgeCases:
    def test_malformed_public_key_raises(self):
        instance = instantiate_or_skip("P-256")
        with pytest.raises(BackendFailure):
            instance.verify(b"not a der key", b"m", b"sig")

    def test_malformed_secret_key_raises(self):
        instance = instantiate_or_skip("P-256")
        with pytest.raises(BackendFailure):
            instance.sign(b"not a der key", b"m")

    def test_garbage_signature_is_clean_false(self):
        instance = instantiate_or_skip("P-256")
        pk, _ = instance.keypair()
        assert instance.verify(pk, b"m", b"\x00" * 70) is False

    def test_cross_curve_verify_is_clean_false(self):
        p256 = instantiate_or_skip("P-256")
        p384 = instantiate_or_skip("P-384")
        pk, sk = p256.keypair()
        sig = p256.sign(sk, b"m")
        # the key parses under any curve's backend; the mismatch surfaces
        # as a failed verification, not an error
        assert p384.verify(pk, b"m", sig) is False


class TestEcdsaKeyParsing:
    """What an ECDSA row times: each key is parsed on its first call only,
    from a bounded cache that never keeps a failure."""

    @pytest.fixture
    def parses(self, monkeypatch) -> Counter:
        # (loader name, key bytes) -> calls; keypairs are fresh in each
        # test, so no earlier test's cached key counts
        from cryptography.hazmat.primitives import serialization

        counts: Counter = Counter()

        def counting(name):
            real = getattr(serialization, name)

            def load(data, *args, **kwargs):
                counts[name, bytes(data)] += 1
                return real(data, *args, **kwargs)

            return load

        for name in ("load_der_public_key", "load_der_private_key"):
            monkeypatch.setattr(serialization, name, counting(name))
        return counts

    def test_each_key_is_parsed_once(self, parses):
        instance = instantiate_or_skip("P-256")
        pk, sk = instance.keypair()
        for _ in range(5):
            assert instance.verify(pk, b"m", instance.sign(sk, b"m")) is True
        assert parses["load_der_private_key", sk] == 1
        assert parses["load_der_public_key", pk] == 1

    def test_malformed_key_is_not_cached(self, parses):
        instance = instantiate_or_skip("P-256")
        bad = b"not a der key"
        for _ in range(3):
            with pytest.raises(BackendFailure, match="^malformed ECDSA public key: "):
                instance.verify(bad, b"m", b"sig")
            with pytest.raises(BackendFailure, match="^malformed ECDSA secret key: "):
                instance.sign(bad, b"m")
        assert parses["load_der_public_key", bad] == 3
        assert parses["load_der_private_key", bad] == 3
        pk, sk = instance.keypair()
        assert instance.verify(pk, b"m", instance.sign(sk, b"m")) is True

    def test_cache_is_bounded(self, parses):
        instance = instantiate_or_skip("P-256")
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"m")
        assert instance.verify(pk, b"m", sig) is True
        for _ in range(100):
            other_pk, other_sk = instance.keypair()
            instance.sign(other_sk, b"m")
            assert instance.verify(other_pk, b"m", sig) is False
        instance.sign(sk, b"m")
        assert instance.verify(pk, b"m", sig) is True
        assert parses["load_der_private_key", sk] == 2
        assert parses["load_der_public_key", pk] == 2


def _oqs_backend_or_skip(variant_name: str):
    try:
        return get_provider("oqs").create(by_variant()[variant_name])
    except UnsupportedVariant as exc:
        pytest.skip(f"{variant_name} not served by liboqs here: {exc}")


def _oqs_ml_dsa_44(library: str, request) -> SchemeInstance:
    """ML-DSA-44 from the installed liboqs, or from the suite's stand-in."""
    if library == "installed":
        backend = _oqs_backend_or_skip("ML-DSA-44")
    else:
        backend = request.getfixturevalue("oqs_standin")().create(by_variant()["ML-DSA-44"])
    return SchemeInstance(by_variant()["ML-DSA-44"], backend)


@pytest.mark.parametrize("library", ["installed", "stand-in"])
class TestOqsEdgeCases:
    def test_short_secret_key_raises(self, library, request):
        instance = _oqs_ml_dsa_44(library, request)
        with pytest.raises(BackendFailure, match="secret key"):
            instance.sign(b"\x00" * 8, b"m")

    def test_short_public_key_raises(self, library, request):
        instance = _oqs_ml_dsa_44(library, request)
        with pytest.raises(BackendFailure, match="public key"):
            instance.verify(b"\x00" * 8, b"m", b"\x00" * 64)

    def test_garbage_signature_is_clean_false(self, library, request):
        if library == "installed":
            instance = instantiate_or_skip("ML-DSA-44")
        else:
            instance = _oqs_ml_dsa_44(library, request)
        pk, _ = instance.keypair()
        assert instance.verify(pk, b"m", b"\x00" * 100) is False


class TestOqsLoadDiagnostic:
    """A missing liboqs is reported in one line, with the paths at DEBUG."""

    def _reason(self) -> str:
        # a fresh provider, so the search runs again under the patches
        with pytest.raises(UnsupportedVariant) as info:
            oqs.OqsProvider().create(by_variant()["ML-DSA-44"])
        reason = str(info.value)
        assert "\n" not in reason
        return reason

    def test_search_is_summarized(self, monkeypatch, tmp_path, caplog):
        missing = [str(tmp_path / f"lib{i}" / "liboqs.so") for i in range(3)]
        monkeypatch.delenv("CHAINSIG_LIBOQS", raising=False)
        monkeypatch.setattr(oqs, "_candidate_paths", lambda: iter(missing))
        caplog.set_level(logging.DEBUG, logger="chainsig.schemes.oqs")
        reason = self._reason()
        assert reason == "liboqs not found (3 paths searched; set CHAINSIG_LIBOQS)"
        for path in missing:
            assert any(path in message for message in caplog.messages)

    @pytest.mark.parametrize("library", ["not-elf", "no-oqs-symbols"])
    def test_library_that_does_not_load_is_named(self, library, monkeypatch, tmp_path, caplog):
        # a broken liboqs at a searched prefix is not reported as absent
        if library == "not-elf":
            broken = str(tmp_path / "liboqs.so")
            (tmp_path / "liboqs.so").write_bytes(b"not a shared object")
        else:
            broken = getattr(_ctypes, "__file__", None)
            if broken is None:
                pytest.skip("_ctypes is built into this interpreter")
        missing = [str(tmp_path / f"lib{i}" / "liboqs.so") for i in range(2)]
        monkeypatch.delenv("CHAINSIG_LIBOQS", raising=False)
        monkeypatch.setattr(oqs, "_candidate_paths", lambda: iter([missing[0], broken, missing[1]]))
        caplog.set_level(logging.DEBUG, logger="chainsig.schemes.oqs")
        reason = self._reason()
        assert reason.startswith(f"liboqs does not load: {broken}: ")
        if library == "no-oqs-symbols":
            assert "OQS_version" in reason
        for path in missing:
            assert path not in reason
            assert any(path in message for message in caplog.messages)

    def test_env_path_is_named(self, monkeypatch, tmp_path):
        path = str(tmp_path / "nowhere" / "liboqs.so")
        monkeypatch.setenv("CHAINSIG_LIBOQS", path)
        reason = self._reason()
        assert reason.startswith("CHAINSIG_LIBOQS: ")
        assert reason.count(path) == 1

    def test_library_that_is_not_liboqs(self, monkeypatch):
        libc = ctypes.util.find_library("c")
        if libc is None:
            pytest.skip("no C library to load")
        monkeypatch.setenv("CHAINSIG_LIBOQS", libc)
        reason = self._reason()
        assert reason.startswith("CHAINSIG_LIBOQS: ") and "OQS_version" in reason

    @pytest.mark.parametrize("library", ["fake", "stand-in"])
    def test_unknown_abi_keeps_its_message(self, library, monkeypatch, request):
        if library == "fake":
            wrong_abi = "/b"
            expected = "/b is liboqs 0.9.0; this binding targets 0.12.x"

            def fake_library(path):
                if path == wrong_abi:
                    raise oqs.OqsLoadError(expected)
                raise OSError(f"{path}: cannot open shared object file")

            monkeypatch.setattr(oqs, "_Library", fake_library)
        else:
            wrong_abi = request.getfixturevalue("liboqs_standins")["0.13.0"]
            expected = f"{wrong_abi} is liboqs 0.13.0; this binding targets 0.12.x, 0.16.x"
        monkeypatch.delenv("CHAINSIG_LIBOQS", raising=False)
        candidates = ["/nonexistent/a/liboqs.so", wrong_abi, "/nonexistent/c/liboqs.so"]
        monkeypatch.setattr(oqs, "_candidate_paths", lambda: iter(candidates))
        assert self._reason() == expected


class TestCrossPaddingHardening:
    """Cross signatures carry zero-padding bits inside packed vectors.

    liboqs releases before 0.13 ship a Cross verifier that never reads
    some of those padding bytes, so flipping one leaves the signature
    valid. The provider routes Cross to a newer library when one is
    available; this locks in the hardened behaviour.
    """

    def test_tampered_padding_bits_rejected(self):
        backend = _oqs_backend_or_skip("Cross-rsdp-128-fast")
        if backend.library_version.startswith("0.12."):
            pytest.skip(
                "only a malleable Cross implementation is available here"
            )
        pk, sk = backend.keypair()
        message = b"padding probe"
        signature = backend.sign(sk, message)
        assert backend.verify(pk, message, signature) is True
        # a broad deterministic sample; the unchecked bytes in the old
        # implementation make up ~0.4% of the signature, so this would
        # trip with overwhelming probability on a regression
        sampler = random.Random(0x5EED)
        for _ in range(2000):
            position = sampler.randrange(len(signature))
            mutated = bytearray(signature)
            mutated[position] ^= 1 + sampler.randrange(255)
            assert backend.verify(pk, message, bytes(mutated)) is False, (
                f"tampered byte {position} was accepted"
            )


class TestPqcleanFallback:
    def test_direct_pqclean_roundtrip(self, monkeypatch):
        monkeypatch.setenv("CHAINSIG_PROVIDER", "pqclean")
        instance = instantiate_or_skip("ML-DSA-44")
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"m")
        assert instance.verify(pk, b"m", sig) is True
        assert instance.verify(pk, b"m", flip_byte(sig)) is False

    def test_dilithium_not_served_by_mldsa(self, monkeypatch):
        # round-3 Dilithium is not FIPS 204 ML-DSA: refuse before importing
        def no_import(name):
            raise AssertionError(f"imported {name}")

        monkeypatch.setattr(pqclean, "importlib", SimpleNamespace(import_module=no_import))
        with pytest.raises(UnsupportedVariant, match="^no implementation of 'Dilithium2'$"):
            pqclean.PqcleanProvider().create(by_variant()["Dilithium2"])


def test_provider_abc_defaults():
    # create() is the whole interface
    assert Provider.__abstractmethods__ == {"create"}

    class Minimal(Provider):
        def create(self, descriptor):
            raise UnsupportedVariant("minimal supports nothing")

    with pytest.raises(UnsupportedVariant, match="minimal supports nothing"):
        Minimal().create(by_variant()["P-256"])
