"""Backend behaviour: roundtrips, tamper rejection, routing, error paths."""

from __future__ import annotations

import _ctypes
import ctypes.util
import hashlib
import itertools
import logging
import os
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import ec

from chainsig.bench import RunPlan, benchmark_variant
from chainsig.errors import BackendFailure, UnsupportedVariant
from chainsig.schemes import (
    VariantDescriptor,
    by_variant,
    catalog,
    ecdsa,
    get_provider,
    instantiate,
    oqs,
    pqclean,
    registry,
    stub,
)
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.ecdsa import EcdsaBackend
from chainsig.schemes.stub import StubBackend
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

#: the pqcrypto.sign module of each variant the PQClean wheels serve
PQCLEAN_MODULES = {
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


def _raising(op: str, error: Exception, after: int = 0) -> StubBackend:
    """A stub whose op works after times, then raises error; the other ops work."""
    calls = itertools.count()
    works = getattr(StubBackend, op)

    def fails(self, *args):
        if next(calls) >= after:
            raise error
        return works(self, *args)

    return type("RaisingBackend", (StubBackend,), {op: fails})()


_PLAN = RunPlan(warmup=1, runs=3)


def _benchmark(backend: StubBackend) -> None:
    benchmark_variant(SchemeInstance(make_stub_descriptor(), backend), _PLAN)


class TestInstanceGuards:
    """benchmark_variant's checks on a backend, made outside the timed windows."""

    @pytest.mark.parametrize("op", ["keypair", "sign", "verify"])
    def test_chainsig_error_passes_through(self, op):
        error = BackendFailure("malformed key bytes")
        with pytest.raises(BackendFailure) as info:
            _benchmark(_raising(op, error))
        assert info.value is error
        assert str(info.value) == "malformed key bytes"

    @pytest.mark.parametrize("op", ["keypair", "sign", "verify"])
    def test_other_backend_exceptions_wrapped(self, op):
        # raised in the op's first call, a warm-up call of time_operation
        error = RuntimeError("boom")
        with pytest.raises(BackendFailure) as info:
            _benchmark(_raising(op, error))
        assert str(info.value) == f"Stub-A: {op} failed in backend: boom"
        assert info.value.__cause__ is error

    def test_bytearray_results_become_bytes(self):
        class BytesSubclass(bytes):
            pass

        for kind in (bytearray, BytesSubclass):

            class ConvertingBackend(StubBackend):
                def __init__(self):
                    self.received = []

                def keypair(self):
                    return tuple(kind(key) for key in super().keypair())

                def sign(self, secret_key, message):
                    self.received.append(secret_key)
                    return kind(super().sign(secret_key, message))

                def verify(self, public_key, message, signature):
                    self.received += [public_key, signature]
                    return super().verify(public_key, message, signature)

            backend = ConvertingBackend()
            _benchmark(backend)
            # the signing key per timed and pool sign, then a key and a
            # pool signature per timed verify: each one exact bytes
            timed = _PLAN.warmup + _PLAN.runs
            assert len(backend.received) == timed + _PLAN.runs + 2 * timed, kind
            assert {type(value) for value in backend.received} == {bytes}, kind

    def test_keypair_is_a_pair(self):
        pair = make_stub_instance().keypair()
        assert isinstance(pair, tuple)
        assert len(pair) == 2

    def test_backend_exception_wrapped(self):
        # raised in the untimed calls: the keypair that signs, and the
        # first signature of the verify pool
        timed = _PLAN.warmup + _PLAN.runs
        for op in ("keypair", "sign"):
            error = RuntimeError("boom")
            with pytest.raises(BackendFailure) as info:
                _benchmark(_raising(op, error, after=timed))
            assert str(info.value) == f"Stub-A: {op} failed in backend: boom"
            assert info.value.__cause__ is error

    def test_empty_signature_rejected(self):
        class EmptySigBackend(StubBackend):
            def sign(self, secret_key, message):
                return b""

        with pytest.raises(BackendFailure, match="^Stub-A: backend produced an empty signature$"):
            _benchmark(EmptySigBackend())

    def test_empty_key_rejected(self):
        for pair in ((b"", b""), (b"", b"sk"), (b"pk", b"")):

            class EmptyKeyBackend(StubBackend):
                def keypair(self):
                    return pair

            with pytest.raises(BackendFailure, match="^Stub-A: backend produced an empty key$"):
                _benchmark(EmptyKeyBackend())


def _refuse(descriptor):
    raise UnsupportedVariant("refused")


_REFUSING_PROVIDER = SimpleNamespace(create=_refuse)


class TestRegistry:
    def test_known_providers_resolve(self):
        # each provider is the module of its name, and create is its interface
        for name in registry._PROVIDERS:
            provider = get_provider(name)
            assert provider.__name__ == f"chainsig.schemes.{name}"
            assert callable(provider.create)

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
        mystery = VariantDescriptor(family="Mystery", variant="Mystery-1", level=1)
        # a family other than ECDSA routes it to the post-quantum
        # candidates, which both refuse
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

    def test_oqs_refuses_classical_before_any_library_search(self, monkeypatch, fresh_oqs):
        def search(*args):
            raise AssertionError("liboqs searched")

        monkeypatch.setenv("CHAINSIG_PROVIDER", "oqs")
        monkeypatch.setenv("CHAINSIG_LIBOQS", "/nope")
        monkeypatch.setattr(oqs, "_load_library", search)
        with pytest.raises(UnsupportedVariant) as info:
            instantiate(by_variant()["P-256"])
        assert str(info.value) == "oqs: does not serve 'P-256'"

    def test_env_override_routes_to_stub(self, monkeypatch):
        monkeypatch.setenv("CHAINSIG_PROVIDER", "stub")
        instance = instantiate(by_variant()["P-256"])
        assert isinstance(instance.backend, StubBackend)
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"m")
        assert instance.verify(pk, b"m", sig)

    def test_ecdsa_family_routes_to_ecdsa_provider(self, monkeypatch, caplog):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        caplog.set_level(logging.INFO, logger="chainsig.schemes.registry")
        for variant in ("P-256", "P-384", "P-521"):
            instance = instantiate(by_variant()[variant])
            assert isinstance(instance.backend, EcdsaBackend)
            assert f"{variant} via ecdsa" in caplog.messages

    def test_first_working_candidate_wins(self, monkeypatch, caplog):
        providers = {"oqs": _REFUSING_PROVIDER, "pqclean": stub}
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        monkeypatch.setattr(registry, "get_provider", providers.__getitem__)
        caplog.set_level(logging.INFO, logger="chainsig.schemes.registry")
        instance = instantiate(by_variant()["ML-DSA-44"])
        assert isinstance(instance.backend, StubBackend)
        assert caplog.messages == ["ML-DSA-44 via pqclean"]

    def test_every_refusal_is_joined(self, monkeypatch):
        monkeypatch.delenv("CHAINSIG_PROVIDER", raising=False)
        monkeypatch.setattr(registry, "get_provider", lambda name: _REFUSING_PROVIDER)
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

    @pytest.mark.parametrize(
        ("variant", "other"), list(itertools.permutations(("P-256", "P-384", "P-521"), 2))
    )
    def test_other_curves_key_is_refused_and_not_cached(self, variant, other):
        # a backend parses keys against its own curve alone
        instance, signer = instantiate_or_skip(variant), instantiate_or_skip(other)
        pk, sk = signer.keypair()
        sig = signer.sign(sk, b"m")
        for _ in range(2):
            with pytest.raises(BackendFailure, match=r"^malformed ECDSA public key: [^\n]*\Z"):
                instance.verify(pk, b"m", sig)
            with pytest.raises(BackendFailure, match=r"^malformed ECDSA secret key: [^\n]*\Z"):
                instance.sign(sk, b"m")
        loaders = (instance.backend._public_key, instance.backend._private_key)
        assert [loader.cache_info().hits for loader in loaders] == [0, 0]
        assert [loader.cache_info().currsize for loader in loaders] == [0, 0]


#: the P-256 point 04‖X‖Y, which ends a DER public key
P256_POINT = 65


def _scalar(secret: bytes) -> int:
    return int.from_bytes(secret, "big")


class TestEcdsaKeyParsing:
    """What an ECDSA row times: each key is parsed on its first call only,
    from a bounded cache that never keeps a failure."""

    @pytest.fixture
    def parses(self, monkeypatch) -> Counter:
        # (parse call, the key's point or scalar) -> calls; keypairs are
        # fresh in each test, so no earlier test's cached key counts
        counts: Counter = Counter()
        from_encoded_point = ec.EllipticCurvePublicKey.from_encoded_point
        derive_private_key = ec.derive_private_key

        def parse_public(curve, data):
            counts["from_encoded_point", bytes(data)] += 1
            return from_encoded_point(curve, data)

        def parse_secret(private_value, curve, *args, **kwargs):
            counts["derive_private_key", private_value] += 1
            return derive_private_key(private_value, curve, *args, **kwargs)

        monkeypatch.setattr(
            ec.EllipticCurvePublicKey, "from_encoded_point", staticmethod(parse_public)
        )
        monkeypatch.setattr(ec, "derive_private_key", parse_secret)
        return counts

    def test_each_key_is_parsed_once(self, parses):
        instance = instantiate_or_skip("P-256")
        pk, sk = instance.keypair()
        for _ in range(5):
            assert instance.verify(pk, b"m", instance.sign(sk, b"m")) is True
        assert parses["derive_private_key", _scalar(sk)] == 1
        assert parses["from_encoded_point", pk[-P256_POINT:]] == 1

    def test_malformed_key_is_not_cached(self, parses):
        instance = instantiate_or_skip("P-256")
        pk, _ = instance.keypair()
        # a point off the curve fits the template, so each call parses it;
        # an out-of-range scalar is refused before it reaches OpenSSL, so
        # the loader's misses count its calls
        bad_pk = _flip_last_byte(pk)
        bad_sk = ecdsa._TEMPLATES["SECP256R1"].order.to_bytes(32, "big")
        bad = bad_pk[-P256_POINT:]
        misses = instance.backend._private_key.cache_info().misses
        for _ in range(3):
            with pytest.raises(BackendFailure, match="^malformed ECDSA public key: "):
                instance.verify(bad_pk, b"m", b"sig")
            with pytest.raises(BackendFailure, match="^malformed ECDSA secret key: "):
                instance.sign(bad_sk, b"m")
        assert parses["from_encoded_point", bad] == 3
        assert instance.backend._private_key.cache_info().misses - misses == 3
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
        assert parses["derive_private_key", _scalar(sk)] == 2
        assert parses["from_encoded_point", pk[-P256_POINT:]] == 2


def _flip_last_byte(blob: bytes) -> bytes:
    return blob[:-1] + bytes([blob[-1] ^ 0x01])


def _openssl_spki(key: ec.EllipticCurvePrivateKey) -> bytes:
    """The public key as OpenSSL's DER encoder writes it."""
    return key.public_key().public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )


ECDSA_CURVES = sorted(ecdsa._TEMPLATES)


def _keys(template, d: int) -> tuple[bytes, bytes]:
    return template.encode(ec.derive_private_key(d, template.curve).private_numbers())


@pytest.mark.parametrize("curve_name", ECDSA_CURVES)
class TestEcdsaKeyEncoding:
    """The public key an ECDSA backend hands out is the bytes OpenSSL's
    encoder writes, the secret key is the scalar, and the loaders read
    back the key both came from."""

    def test_order_is_the_curves(self, curve_name):
        template = ecdsa._TEMPLATES[curve_name]
        if not hasattr(template.curve, "group_order"):
            pytest.skip("this cryptography names no group order")
        assert template.order == template.curve.group_order

    def test_key_lengths_are_this_curves_alone(self, curve_name):
        public, secret = _keys(ecdsa._TEMPLATES[curve_name], 1)
        for name, other in ecdsa._TEMPLATES.items():
            if name != curve_name:
                other_public, other_secret = _keys(other, 1)
                assert len(public) != len(other_public)
                assert len(secret) != len(other_secret)

    @pytest.mark.parametrize("scalar", ["1", "2", "order-1", "top-byte-0"])
    def test_fixed_scalars(self, curve_name, scalar):
        template = ecdsa._TEMPLATES[curve_name]
        d = {
            "1": 1,
            "2": 2,
            "order-1": template.order - 1,
            "top-byte-0": 2 ** (8 * template.size - 8) - 1,
        }[scalar]
        key = ec.derive_private_key(d, template.curve)
        public, secret = template.encode(key.private_numbers())
        self._assert_keys_of(template, key, public, secret)

    def test_fresh_keys(self, curve_name):
        template = ecdsa._TEMPLATES[curve_name]
        backend = EcdsaBackend(curve_name, "SHA256")
        for _ in range(100):
            public, secret = backend.keypair()
            key = ec.derive_private_key(_scalar(secret), template.curve)
            self._assert_keys_of(template, key, public, secret)

    @staticmethod
    def _assert_keys_of(
        template, key: ec.EllipticCurvePrivateKey, public: bytes, secret: bytes
    ) -> None:
        numbers = key.private_numbers()
        size = (key.curve.key_size + 7) // 8
        assert public == _openssl_spki(key)
        assert secret == numbers.private_value.to_bytes(size, "big")
        assert ecdsa._private_key(template, secret).private_numbers() == numbers
        assert (
            ecdsa._public_key(template, public).public_numbers()
            == serialization.load_der_public_key(public).public_numbers()
            == numbers.public_numbers
        )


def _splice(blob: bytes, at: int, part: bytes) -> bytes:
    return blob[:at] + part + blob[at + len(part) :]


def _refused_public(template) -> dict[str, bytes]:
    public = _openssl_spki(ec.derive_private_key(1, template.curve))
    return {
        "wrong-prefix": _splice(public, 3, bytes([public[3] ^ 0x01])),
        "truncated": public[:-1],
        "trailing-byte": public + b"\x00",
        "compressed-tag": _splice(public, len(template.spki), b"\x02"),
        "point-off-curve": _flip_last_byte(public),
    }


def _refused_secret(template) -> dict[str, bytes]:
    def scalar(d: int) -> bytes:
        return d.to_bytes(template.size, "big")

    return {
        "truncated": scalar(1)[:-1],
        "trailing-byte": scalar(1) + b"\x00",
        "scalar-0": scalar(0),
        "scalar-order": scalar(template.order),
        # order + 1 acts as 1 where a loader reduces it: only the range
        # check is sure to refuse it
        "scalar-order+1": scalar(template.order + 1),
        "scalar-all-ones": scalar(2 ** (8 * template.size) - 1),
    }


REFUSALS = [
    pytest.param(curve, kind, refused, id=f"{curve}-{kind}-{case}")
    for curve in ECDSA_CURVES
    for kind, cases in (
        ("public", _refused_public(ecdsa._TEMPLATES[curve])),
        ("secret", _refused_secret(ecdsa._TEMPLATES[curve])),
    )
    for case, refused in cases.items()
]


@pytest.mark.parametrize(("curve_name", "kind", "refused"), REFUSALS)
def test_ecdsa_refuses_malformed_key_without_caching_it(curve_name, kind, refused):
    backend = EcdsaBackend(curve_name, "SHA256")
    loader = backend._public_key if kind == "public" else backend._private_key
    hits = loader.cache_info().hits
    for _ in range(2):
        with pytest.raises(BackendFailure, match=f"^malformed ECDSA {kind} key: ") as caught:
            if kind == "public":
                backend.verify(refused, b"m", b"sig")
            else:
                backend.sign(refused, b"m")
        assert "\n" not in str(caught.value)
    assert loader.cache_info().hits == hits


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


@pytest.mark.usefixtures("fresh_oqs")
class TestOqsLoadDiagnostic:
    """A missing liboqs is reported in one line, with the paths at DEBUG."""

    def _reason(self) -> str:
        # fresh_oqs forgot earlier searches, so this one runs under the patches
        with pytest.raises(UnsupportedVariant) as info:
            oqs.create(by_variant()["ML-DSA-44"])
        reason = str(info.value)
        assert "\n" not in reason
        return reason

    def test_search_is_summarized(self, monkeypatch, tmp_path, caplog):
        missing = [str(tmp_path / f"lib{i}" / "liboqs.so") for i in range(3)]
        monkeypatch.delenv("CHAINSIG_LIBOQS", raising=False)
        monkeypatch.setattr(oqs, "_candidate_paths", lambda *args: iter(missing))
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
        candidates = [missing[0], broken, missing[1]]
        monkeypatch.setattr(oqs, "_candidate_paths", lambda *args: iter(candidates))
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
                    raise UnsupportedVariant(expected)
                raise OSError(f"{path}: cannot open shared object file")

            monkeypatch.setattr(oqs, "_Library", fake_library)
        else:
            wrong_abi = request.getfixturevalue("liboqs_standins")["0.13.0"]
            expected = f"{wrong_abi} is liboqs 0.13.0; this binding targets 0.12.x, 0.16.x"
        monkeypatch.delenv("CHAINSIG_LIBOQS", raising=False)
        candidates = ["/nonexistent/a/liboqs.so", wrong_abi, "/nonexistent/c/liboqs.so"]
        monkeypatch.setattr(oqs, "_candidate_paths", lambda *args: iter(candidates))
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
            pqclean.create(by_variant()["Dilithium2"])

    def test_module_names_known_answer(self, monkeypatch):
        # the module each catalog variant asks for, with the import faked,
        # against the names the pqcrypto wheels ship
        asked = []
        monkeypatch.setattr(pqclean, "importlib", SimpleNamespace(import_module=asked.append))
        served, refused = {}, {}
        for descriptor in catalog():
            try:
                pqclean.create(descriptor)
            except UnsupportedVariant as exc:
                refused[descriptor.variant] = str(exc)
            else:
                served[descriptor.variant] = asked.pop()
        assert asked == []
        assert served == {
            variant: f"pqcrypto.sign.{module}" for variant, module in PQCLEAN_MODULES.items()
        }
        assert refused == {
            d.variant: f"no implementation of {d.variant!r}"
            for d in catalog()
            if d.variant not in PQCLEAN_MODULES
        }
        assert {by_variant()[variant].family.split("-")[0] for variant in refused} == {
            "ECDSA", "Dilithium", "Mayo", "Cross"
        }
