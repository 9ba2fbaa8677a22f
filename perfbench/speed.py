"""Fixed reference workloads that track how fast the host runs right now.

The benchmark's vCPUs share physical cores with other machines, so the
same code runs up to twice as slow for tens of seconds at a time, and
interpreted Python and OpenSSL's big-number code slow down by different
amounts. Timing a reference of each kind just before and after each
child, on the same pinned CPU, gives the slowdowns the child met; a
timing divided by the matching slowdown reads as seconds on a host where
that reference takes its nominal time.
"""

from __future__ import annotations

import hashlib
import os
import time

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

REPEATS = 3
_MESSAGE = bytes(32)
_ALGORITHM = ec.ECDSA(hashes.SHA384())
_KEY = ec.generate_private_key(ec.SECP384R1())
_SIGNATURE = _KEY.sign(_MESSAGE, _ALGORITHM)


def pin_to_one_cpu() -> None:
    """Pin this process, and the children it starts later, to one CPU.

    The references then run where the children run. The last CPU is
    taken because CPU 0 usually serves most device interrupts; on the
    2-vCPU host the bounds were set on, stub-harness row means were
    steadier there.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _python() -> None:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    table = {}
    for i in range(20_000):
        table[str(i)] = i
    hashlib.sha256(bytes(1 << 20)).digest()


def _openssl() -> None:
    public = _KEY.public_key()
    for _ in range(5):
        _KEY.sign(_MESSAGE, _ALGORITHM)
        public.verify(_SIGNATURE, _MESSAGE, _ALGORITHM)


#: reference name -> (workload, nominal seconds: near what it takes on the
#: 2-vCPU Intel Xeon host the bounds were set on)
REFERENCES = {"python": (_python, 0.015), "openssl": (_openssl, 0.0045)}


def slowdowns() -> dict[str, float]:
    """How many times slower than nominal each reference runs now."""
    result = {}
    for name, (work, nominal) in REFERENCES.items():
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - start)
        result[name] = best / nominal
    return result
