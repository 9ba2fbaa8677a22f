"""Layer floors: what each layer adds to a reported row, measured in place.

Each floor goes through chainsig's own `time_operation`, the function
that produces every benchmark row, so the figures share its clock and
loop:

- loop floor: an empty operation, i.e. the timer and loop alone;
- guard: `SchemeInstance.keypair` over a backend that does nothing,
  i.e. the loop floor plus the guard and the byte copies;
- ECDSA marshalling: `EcdsaBackend` minus the bare `cryptography` call
  it wraps, on P-256, for keypair (DER encoding) and verify (key cache
  lookup). The two sides alternate in short blocks and the figure is the
  median of the per-block differences of medians, so a host that speeds
  up or slows down mid-measurement shifts both sides alike.
"""

from __future__ import annotations

import statistics

from chainsig import bench
from chainsig.schemes import SchemeBackend, SchemeInstance, catalog
from chainsig.schemes.ecdsa import EcdsaBackend
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec

FLOOR_SAMPLES = 20000
ECDSA_ROUNDS = 20
ECDSA_BLOCK = 100


class NullBackend(SchemeBackend):
    def keypair(self) -> tuple[bytes, bytes]:
        return b"p", b"s"

    def sign(self, secret_key: bytes, message: bytes) -> bytes:
        return b"s"

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return True


def _us(samples_ms: list[float]) -> list[float]:
    return [value * 1000.0 for value in samples_ms]


def _p50_p99(samples_us: list[float]) -> tuple[float, float]:
    cuts = statistics.quantiles(samples_us, n=100)
    return cuts[49], cuts[98]


def _marshal_us(bare, wrapped) -> float:
    """Median over rounds of median(wrapped) - median(bare), in us."""
    plan = bench.RunPlan(warmup=ECDSA_BLOCK // 10, runs=ECDSA_BLOCK)
    differences = []
    for _ in range(ECDSA_ROUNDS):
        bare_us = statistics.median(bench.time_operation(bare, plan)) * 1000.0
        wrapped_us = statistics.median(bench.time_operation(wrapped, plan)) * 1000.0
        differences.append(wrapped_us - bare_us)
    return statistics.median(differences)


def measure_floors() -> dict[str, float]:
    plan = bench.RunPlan(warmup=FLOOR_SAMPLES // 10, runs=FLOOR_SAMPLES)
    loop = _us(bench.time_operation(lambda: None, plan))
    null = SchemeInstance(catalog()[0], NullBackend())
    guard = _us(bench.time_operation(null.keypair, plan))

    backend = EcdsaBackend("SECP256R1", "SHA256")
    curve = ec.SECP256R1()
    keypair_us = _marshal_us(lambda: ec.generate_private_key(curve), backend.keypair)
    public, secret = backend.keypair()
    message = bytes(32)
    signature = backend.sign(secret, message)
    key = serialization.load_der_public_key(public)
    algorithm = ec.ECDSA(hashes.SHA256())
    verify_us = _marshal_us(
        lambda: key.verify(signature, message, algorithm),
        lambda: backend.verify(public, message, signature),
    )

    metrics = {}
    for name, samples in (("bench.loop_floor_us", loop), ("schemes.guard_us", guard)):
        metrics[f"{name}.p50"], metrics[f"{name}.p99"] = _p50_p99(samples)
    metrics["floors.samples"] = float(FLOOR_SAMPLES)
    metrics["schemes.ecdsa.keypair_marshal_us"] = keypair_us
    metrics["schemes.ecdsa.verify_marshal_us"] = verify_us
    metrics["schemes.ecdsa.samples"] = float(ECDSA_ROUNDS * ECDSA_BLOCK)
    return metrics
