"""Wall-clock measurement of keypair, sign and verify operations.

Protocol: a configurable number of warm-up invocations whose timings
are discarded, then the measured runs, each bracketed by two monotonic
clock readings. Means and sample standard deviations are reported per
operation; no outlier trimming of any kind is applied.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import math
import os
import time
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    BackendFailure,
    ChainsigError,
    ClockUnavailable,
    CorrectnessViolation,
    EmptySamples,
)
from .records import Validated
from .schemes import SchemeInstance

#: verify timings cycle over this many precomputed (message, signature)
#: pairs; enough to defeat trivial caching without paying sign cost per run
VERIFY_POOL_SIZE = 128

_RESOLUTION_PAIRS = 1_000_000
#: the timer probe stops after this many positive deltas
_RESOLUTION_DELTAS = 10_000


class StatSummary(NamedTuple):
    """Mean and sample standard deviation over n measured durations."""

    mean_ms: float
    std_ms: float
    n: int


class _RunPlan(NamedTuple):
    warmup: int = 1000
    runs: int = 10000
    message_len: int = 32


class RunPlan(Validated, _RunPlan):
    """Iteration counts for one benchmark: warmup discarded, runs kept."""

    __slots__ = ()

    def _check(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.message_len < 1:
            raise ValueError(f"message_len must be >= 1, got {self.message_len}")


class EnvironmentInfo(NamedTuple):
    """Host description recorded in a run's manifest."""

    cpu_model: str
    memory_bytes: int
    os_descriptor: str
    timer_resolution_ns: float


class BenchmarkRecord(NamedTuple):
    """One variant's statistics, an operation each."""

    keypair_stat: StatSummary
    sign_stat: StatSummary
    verify_stat: StatSummary


def measure_timer_resolution(pairs: int = _RESOLUTION_PAIRS) -> float:
    """Smallest positive delta between consecutive clock readings, in ns.

    Reads the clock until it has seen 10^4 positive deltas, or until
    pairs read pairs (10^6 by default) when the clock is coarser; more
    deltas do not move the minimum. The result reflects the effective
    granularity of timed intervals (clock quantum plus the cost of a
    reading). Raises ClockUnavailable when the clock never advanced.
    """
    clock = time.perf_counter_ns
    best = None
    wanted = _RESOLUTION_DELTAS
    previous = clock()
    for _ in itertools.repeat(None, pairs):
        current = clock()
        delta = current - previous
        if delta > 0:
            if best is None or delta < best:
                best = delta
            wanted -= 1
            if not wanted:
                break
        previous = current
    if best is None:
        raise ClockUnavailable(f"clock never advanced over {pairs} read pairs")
    return float(best)


def time_operation(
    op: Callable[..., object],
    plan: RunPlan,
    arguments: Iterable[object] | None = None,
) -> list[float]:
    """Run op warmup + runs times; return the last runs durations in ms.

    With arguments given, each invocation receives the iterable's next
    item as its single argument, drawn outside the timed window; an
    iterable with fewer than warmup + runs items raises ValueError.
    Failures during warm-up abort before any measurement is taken.
    Durations are kept as integer ns and converted to ms once, after the
    last run.
    """
    clock = time.perf_counter_ns
    deltas: list[float] = []
    record = deltas.append
    if arguments is None:
        for _ in itertools.repeat(None, plan.warmup):
            op()
        for _ in itertools.repeat(None, plan.runs):
            start = clock()
            op()
            end = clock()
            record(end - start)
    else:
        items = iter(arguments)
        for argument in itertools.islice(items, plan.warmup):
            op(argument)
        for argument in itertools.islice(items, plan.runs):
            start = clock()
            op(argument)
            end = clock()
            record(end - start)
        # runs >= 1, so a short warm-up also leaves deltas short
        if len(deltas) < plan.runs:
            raise ValueError(
                f"arguments ran out before {plan.warmup + plan.runs} invocations"
            )
    # in place, so a list of ints and a list of floats are never held at once
    for index, delta in enumerate(deltas):
        deltas[index] = delta / 1e6
    return deltas


def summarize(samples: Iterable[float]) -> StatSummary:
    """Arithmetic mean and sample (n-1) standard deviation; n=1 gives std 0.

    Two passes over the samples: the mean is their correctly rounded sum
    (math.fsum) over n, and the std is their Euclidean distance to the
    mean (math.dist) over sqrt(n - 1).
    """
    values = list(samples)
    n = len(values)
    if n == 0:
        raise EmptySamples("cannot summarize an empty sample list")
    mean = math.fsum(values) / n
    std = math.dist(values, [mean] * n) / math.sqrt(n - 1) if n > 1 else 0.0
    return StatSummary(mean_ms=mean, std_ms=std, n=n)


def _random_messages(count: int, size: int) -> Iterator[bytes]:
    """count random messages of size bytes, cut from one os.urandom block.

    The block holds count * size bytes; each message is read out of it
    only when the iterator reaches it.
    """
    stream = io.BytesIO(os.urandom(count * size))
    return iter(functools.partial(stream.read, size), b"")


@contextlib.contextmanager
def _backend_errors(variant: str, op_name: str) -> Iterator[None]:
    """Raise a foreign exception from the block as one BackendFailure; ChainsigErrors pass."""
    try:
        yield
    except ChainsigError:
        raise
    except Exception as exc:
        raise BackendFailure(f"{variant}: {op_name} failed in backend: {exc}") from exc


def _checked_bytes(variant: str, value: bytes, what: str) -> bytes:
    """value as exact bytes; an empty value is refused with BackendFailure."""
    if not value:
        raise BackendFailure(f"{variant}: backend produced an empty {what}")
    return value if type(value) is bytes else bytes(value)


def benchmark_variant(
    instance: SchemeInstance,
    plan: RunPlan,
) -> BenchmarkRecord:
    """Measure keypair, sign and verify for one variant.

    keypair generates a fresh pair every iteration. sign reuses one
    keypair and signs a fresh random message of plan.message_len bytes
    per iteration. verify cycles over precomputed (message, signature)
    pairs; every timed verification must return true, otherwise the
    variant is rejected with CorrectnessViolation. The host is not
    probed; callers that label rows call probe_environment once.

    Each timed window holds one backend call, plus the verdict check for
    verify. Outside the windows, the signing keypair and the pool's
    signatures are refused when empty and converted to exact bytes;
    results made inside a window are thrown away unchecked. A foreign
    exception becomes BackendFailure("<variant>: <op> failed in backend: <exc>").
    """
    variant = instance.descriptor.variant

    with _backend_errors(variant, "keypair"):
        keypair_samples = time_operation(instance.keypair, plan)
        public_key, secret_key = instance.keypair()
        public_key = _checked_bytes(variant, public_key, "key")
        secret_key = _checked_bytes(variant, secret_key, "key")

    with _backend_errors(variant, "sign"):
        sign_samples = time_operation(
            functools.partial(instance.sign, secret_key),
            plan,
            _random_messages(plan.warmup + plan.runs, plan.message_len),
        )
        pool_messages = _random_messages(min(plan.runs, VERIFY_POOL_SIZE), plan.message_len)
        pool = [
            (message, _checked_bytes(variant, instance.sign(secret_key, message), "signature"))
            for message in pool_messages
        ]

    def checked_verify(pair: tuple[bytes, bytes]) -> None:
        message, signature = pair
        if not instance.verify(public_key, message, signature):
            raise CorrectnessViolation(
                f"{variant}: verification of a freshly produced signature"
                " returned false"
            )

    with _backend_errors(variant, "verify"):
        verify_samples = time_operation(checked_verify, plan, itertools.cycle(pool))

    return BenchmarkRecord(
        keypair_stat=summarize(keypair_samples),
        sign_stat=summarize(sign_samples),
        verify_stat=summarize(verify_samples),
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        # as on arm64 Linux: platform would run `uname -p` to end at the same name
        return os.uname().machine
    except OSError:
        pass
    import platform  # reached only from probe_environment, like _os_descriptor's

    return platform.processor() or platform.machine() or "unknown"


def _memory_bytes() -> int:
    """Physical memory in bytes (MemTotal on Linux), or 0 when unknown."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (ValueError, OSError, AttributeError):
        return 0


#: platform.platform()'s substitutions, which keep the text fit for a file name
_UNSAFE_IN_NAMES = str.maketrans(
    {" ": "_", "/": "-", "\\": "-", ":": "-", ";": "-", '"': "-", "(": "-", ")": "-"}
)


def _os_descriptor() -> str:
    """platform.platform()'s text, built without starting a process on glibc.

    platform.platform() reads the processor field of platform.uname(),
    which on Linux runs `uname -p` in a subprocess; the text drops that
    field when it is empty, "unknown" or the machine name, as it is on
    common Linux hosts. With glibc the rest is os.uname() and glibc's own
    version string, joined and cleaned as platform.platform() does. Any
    other host gets platform.platform() itself.
    """
    try:
        uname = os.uname()
        parts = (os.confstr("CS_GNU_LIBC_VERSION") or "").split(maxsplit=1)  # "glibc 2.36"
    except (AttributeError, ValueError, OSError):
        parts = []
    if len(parts) != 2 or uname.sysname != "Linux":
        import platform  # only a measuring run probes, so a replay never loads platform

        return platform.platform()
    fields = (uname.sysname, uname.release, uname.machine, "with", "".join(parts))
    text = "-".join(field.strip() for field in fields if field)
    text = text.translate(_UNSAFE_IN_NAMES).replace("unknown", "")
    while "--" in text:
        text = text.replace("--", "-")
    return text.rstrip("-")


def probe_environment() -> EnvironmentInfo:
    """Best-effort host introspection; unknown fields degrade gracefully."""
    return EnvironmentInfo(
        cpu_model=_cpu_model(),
        memory_bytes=_memory_bytes(),
        os_descriptor=_os_descriptor(),
        timer_resolution_ns=measure_timer_resolution(),
    )

