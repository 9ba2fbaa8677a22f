"""The liboqs and PQClean bindings, run against stand-ins the suite builds.

The stand-ins compute toy tags, not signatures, so nothing here measures a
post-quantum scheme. What runs is the binding: the ABI check and struct
mirror, buffer marshalling, length checks, the choice of the library that
serves Cross, and the release of each OQS_SIG.
"""

from __future__ import annotations

import ctypes
import gc
import logging
import sys

import pytest

from chainsig.bench import RunPlan, benchmark_variant
from chainsig.errors import BackendFailure, UnsupportedVariant
from chainsig.schemes import by_variant, catalog
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.oqs import _SigStruct
from conftest import STANDINS, flip_byte

# (public key, secret key, signature capacity) as the C stand-in enables them
OQS_STANDIN_SIZES = {
    "ML-DSA-44": (1312, 2560, 2420),
    "SHA2-128f-simple": (32, 64, 17088),
    "Cross-rsdp-128-fast": (77, 32, 18432),
}
CROSS_VARIANTS = [d.variant for d in catalog() if d.variant.startswith("Cross-")]


def _instance(provider, variant: str) -> SchemeInstance:
    descriptor = by_variant()[variant]
    return SchemeInstance(descriptor, provider.create(descriptor))


@pytest.mark.parametrize("version", ["0.12.0", "0.16.0"])
def test_mirror_matches_the_compiled_layout(liboqs_standins, version):
    cdll = ctypes.CDLL(liboqs_standins[version])

    def exported(name: str) -> int:
        return ctypes.c_size_t.in_dll(cdll, f"standin_{name}").value

    assert _SigStruct.length_public_key.offset == exported("offset_public_key")
    assert _SigStruct.length_secret_key.offset == exported("offset_secret_key")
    assert _SigStruct.length_signature.offset == exported("offset_signature")
    assert ctypes.sizeof(_SigStruct) == exported("sizeof")


@pytest.mark.parametrize("version", ["0.12.0", "0.16.0"])
@pytest.mark.parametrize("variant", sorted(OQS_STANDIN_SIZES))
def test_roundtrip_and_refusals(oqs_standin, version, variant):
    descriptor = by_variant()[variant]
    backend = oqs_standin(version, cross=version).create(descriptor)
    assert backend.library_version == version
    instance = SchemeInstance(descriptor, backend)
    public_len, secret_len, capacity = OQS_STANDIN_SIZES[variant]
    pk, sk = instance.keypair()
    assert (len(pk), len(sk)) == (public_len, secret_len)
    sig = instance.sign(sk, b"block")
    # the stand-in writes one byte less than the capacity it declares
    assert len(sig) == capacity - 1
    assert instance.verify(pk, b"block", sig) is True
    assert instance.verify(pk, b"bl0ck", sig) is False
    assert instance.verify(pk, b"block", sig[:-1]) is False
    assert instance.verify(pk, b"block", flip_byte(sig)) is False
    other_pk, _ = instance.keypair()
    assert other_pk != pk
    assert instance.verify(other_pk, b"block", sig) is False


@pytest.mark.parametrize("version", ["0.12.0", "0.16.0"])
def test_finalizer_frees_each_struct(oqs_standin, liboqs_standins, version):
    live = ctypes.c_int.in_dll(ctypes.CDLL(liboqs_standins[version]), "standin_live")
    provider = oqs_standin(version)
    gc.collect()
    before = live.value
    backends = [provider.create(by_variant()["ML-DSA-44"]) for _ in range(3)]
    assert live.value == before + 3
    del backends
    gc.collect()
    assert live.value == before


@pytest.mark.parametrize(
    "variant, reason",
    [("Falcon-512", "does not enable 'Falcon-512'"), ("P-256", "does not serve 'P-256'")],
)
def test_unserved_variant_refused(oqs_standin, variant, reason):
    with pytest.raises(UnsupportedVariant, match=reason):
        oqs_standin().create(by_variant()[variant])


def test_benchmark_variant_over_the_binding(oqs_standin):
    record = benchmark_variant(
        _instance(oqs_standin(), "ML-DSA-44"), RunPlan(warmup=1, runs=5)
    )
    stats = (record.keypair_stat, record.sign_stat, record.verify_stat)
    assert [stat.n for stat in stats] == [5, 5, 5]


class TestCrossLibraryChoice:
    """Cross comes from the primary unless it is 0.12.x, then from a Cross
    library if one loads, else from the primary; one warning whenever a
    0.12.x library serves it."""

    @pytest.mark.parametrize(
        "primary, cross, serves_cross",
        [
            ("0.12.0", None, "0.12.0"),
            ("0.12.0", "0.16.0", "0.16.0"),
            ("0.16.0", "0.12.0", "0.16.0"),
            ("0.12.0", "0.12.0", "0.12.0"),
            (None, "0.12.0", "0.12.0"),
        ],
    )
    def test_served_library_and_warning(
        self, oqs_standin, liboqs_standins, caplog, primary, cross, serves_cross
    ):
        provider = oqs_standin(primary, cross)
        caplog.set_level(logging.WARNING, logger="chainsig.schemes.oqs")
        served = []
        for variant in CROSS_VARIANTS:
            try:
                served.append(provider.create(by_variant()[variant]).library_version)
            except UnsupportedVariant as exc:
                # the stand-in enables one Cross parameter set
                assert "does not enable" in str(exc)
        assert served == [serves_cross]
        if primary is None:
            with pytest.raises(UnsupportedVariant, match="^CHAINSIG_LIBOQS: "):
                provider.create(by_variant()["ML-DSA-44"])
        else:
            assert provider.create(by_variant()["ML-DSA-44"]).library_version == primary

        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if serves_cross != "0.12.0":
            assert warnings == []
            return
        assert len(warnings) == 1
        served_path = liboqs_standins[cross or primary]
        assert f"liboqs 0.12.0 at {served_path}," in warnings[0]
        assert ("no dedicated Cross library: CHAINSIG_LIBOQS_CROSS: " in warnings[0]) == (
            cross is None
        )

    def test_hardened_primary_skips_the_cross_probe(self, oqs_standin, liboqs_standins, caplog):
        caplog.set_level(logging.DEBUG, logger="chainsig.schemes.oqs")
        provider = oqs_standin("0.16.0", cross="0.12.0")
        provider.create(by_variant()["Cross-rsdp-128-fast"])
        assert not any(liboqs_standins["0.12.0"] in m for m in caplog.messages)


class TestPqcleanStandin:
    def test_variant_module_is_imported(self, pqclean_standin):
        pqclean_standin.create(by_variant()["ML-DSA-44"])
        module = sys.modules["pqcrypto.sign.ml_dsa_44"]
        assert module.__file__.startswith(str(STANDINS))

    def test_roundtrip(self, pqclean_standin):
        instance = _instance(pqclean_standin, "ML-DSA-44")
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"block")
        assert instance.verify(pk, b"block", sig) is True
        assert instance.verify(pk, b"bl0ck", sig) is False
        assert instance.verify(pk, b"block", flip_byte(sig)) is False

    def test_wrong_key_lengths_raise(self, pqclean_standin):
        instance = _instance(pqclean_standin, "ML-DSA-44")
        pk, sk = instance.keypair()
        sig = instance.sign(sk, b"m")
        with pytest.raises(BackendFailure, match="secret key must be 2560 bytes, got 2559"):
            instance.sign(sk[:-1], b"m")
        with pytest.raises(BackendFailure, match="public key must be 1312 bytes, got 1313"):
            instance.verify(pk + b"\x00", b"m", sig)

    def test_malformed_signature_is_clean_false(self, pqclean_standin):
        # the module raises ValueError on a wrong-length signature
        instance = _instance(pqclean_standin, "ML-DSA-44")
        pk, sk = instance.keypair()
        assert instance.verify(pk, b"m", instance.sign(sk, b"m")[:-1]) is False
