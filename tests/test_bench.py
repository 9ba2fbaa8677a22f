"""Timing harness: summary statistics, run protocol, environment probe."""

from __future__ import annotations

import gc
import io
import itertools
import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainsig.bench import (
    VERIFY_POOL_SIZE,
    BenchmarkRecord,
    RunPlan,
    StatSummary,
    _random_messages,
    benchmark_variant,
    measure_floor,
    probe_environment,
    summarize,
    time_operation,
)
from chainsig.errors import ClockUnavailable, CorrectnessViolation, EmptySamples
from chainsig.schemes.base import SchemeBackend, SchemeInstance
from chainsig.schemes.stub import StubBackend
from conftest import (
    BrokenStubBackend,
    close,
    has_glibc,
    make_stub_descriptor,
    make_stub_instance,
    two_pass_mean_std,
)


class FakeClock:
    """A perf_counter_ns stand-in that counts its reads.

    Read k (from 0) returns reading(k), or `now` when no reading is
    given, so a test can move the clock from inside op or setup.
    """

    def __init__(self, reading=None):
        self.reading = reading
        self.now = 0
        self.reads = 0
        self.values = []

    def __call__(self):
        value = self.now if self.reading is None else self.reading(self.reads)
        self.reads += 1
        self.values.append(value)
        return value


@pytest.fixture
def fake_clock(monkeypatch):
    def install(reading=None):
        clock = FakeClock(reading)
        monkeypatch.setattr("chainsig.bench.time.perf_counter_ns", clock)
        return clock

    return install


def _label(code):
    """module.qualname of a code object, e.g. stub.StubBackend.sign."""
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


class WindowProfiler:
    """A perf_counter_ns stand-in that records what each timed window enters.

    Odd reads open a window and turn a sys.setprofile hook on, even
    reads close it and turn the hook off. windows[k] lists, in order, the
    Python frames entered between the reads of window k (the closing
    read's own frame excluded).
    """

    def __init__(self):
        self.reads = 0
        self.windows = []

    def __call__(self):
        self.reads += 1
        if self.reads % 2:
            self.windows.append([])
            sys.setprofile(self._profile)
        else:
            sys.setprofile(None)
        return self.reads

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code is not WindowProfiler.__call__.__code__:
            self.windows[-1].append(_label(frame.f_code))


class NullBackend(SchemeBackend):
    def keypair(self):
        return b"p", b"s"

    def sign(self, secret_key, message):
        return b"s"

    def verify(self, public_key, message, signature):
        return True


class ClockedBackend(StubBackend):
    """Stub whose every op advances a FakeClock by exactly cost_ns."""

    def __init__(self, clock, cost_ns):
        super().__init__()
        self.clock = clock
        self.cost_ns = cost_ns

    def keypair(self):
        self.clock.now += self.cost_ns
        return super().keypair()

    def sign(self, secret_key, message):
        self.clock.now += self.cost_ns
        return super().sign(secret_key, message)

    def verify(self, public_key, message, signature):
        self.clock.now += self.cost_ns
        return super().verify(public_key, message, signature)


class RecordingBackend(StubBackend):
    """Stub that keeps every message it signs and every pair it verifies.

    With fail_verify_at=k, the k-th verify call (from 1) returns false.
    """

    def __init__(self, fail_verify_at=None):
        super().__init__()
        self.signed = []
        self.verified = []
        self.fail_verify_at = fail_verify_at

    def sign(self, secret_key, message):
        self.signed.append(message)
        return super().sign(secret_key, message)

    def verify(self, public_key, message, signature):
        self.verified.append((message, signature))
        if len(self.verified) == self.fail_verify_at:
            return False
        return super().verify(public_key, message, signature)


class TestSummarize:
    def test_hand_oracle_one_two_three(self):
        stat = summarize([1.0, 2.0, 3.0])
        assert stat == StatSummary(mean_ms=2.0, std_ms=1.0, n=3)

    def test_single_sample_has_zero_std(self):
        assert summarize([5.0]) == StatSummary(mean_ms=5.0, std_ms=0.0, n=1)

    def test_constant_samples_have_zero_std(self):
        stat = summarize([0.25] * 10)
        assert stat.mean_ms == 0.25
        assert stat.std_ms == 0.0
        assert stat.n == 10

    def test_empty_raises(self):
        with pytest.raises(EmptySamples):
            summarize([])

    def test_accepts_generator(self):
        stat = summarize(x / 2 for x in range(1, 5))
        assert close(stat.mean_ms, 1.25)
        assert stat.n == 4

    def test_two_samples(self):
        stat = summarize([1.0, 3.0])
        assert stat.mean_ms == 2.0
        assert close(stat.std_ms, math.sqrt(2.0))

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1000.0),
            min_size=1,
            max_size=200,
        )
    )
    def test_matches_two_pass_oracle(self, samples):
        stat = summarize(samples)
        mean, std = two_pass_mean_std(samples)
        assert close(stat.mean_ms, mean)
        assert close(stat.std_ms, std)
        assert stat.n == len(samples)

    def test_matches_numpy(self):
        # numpy.mean and numpy.std(ddof=1), the implementation summarize
        # replaced, share no code with it or with the fsum oracle. The
        # samples are criterion 2's draws, whose sizes never come below 4,
        # then one list each of sizes 1, 2 and 3 from the same generator.
        rng = np.random.default_rng(20260818)
        sizes = itertools.chain((int(rng.integers(1, 10_001)) for _ in range(1000)), (1, 2, 3))
        for size in sizes:
            samples = rng.uniform(0.0, 1000.0, size=size)
            stat = summarize(samples.tolist())
            std = float(np.std(samples, ddof=1)) if size > 1 else 0.0
            assert close(stat.mean_ms, float(np.mean(samples)), tol=1e-12)
            assert close(stat.std_ms, std, tol=1e-12)
            assert stat.n == size


class TestRunPlan:
    def test_defaults(self):
        plan = RunPlan()
        assert (plan.warmup, plan.runs, plan.message_len) == (1000, 10000, 32)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"runs": 0},
            {"runs": -5},
            {"warmup": -1},
            {"message_len": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunPlan(**kwargs)

    def test_zero_warmup_allowed(self):
        assert RunPlan(warmup=0, runs=1).warmup == 0


class TestTimeOperation:
    def test_call_counts(self):
        calls = []
        plan = RunPlan(warmup=3, runs=2)
        samples = time_operation(lambda: calls.append(1), plan)
        assert len(calls) == 5
        assert len(samples) == 2

    def test_samples_non_negative(self):
        plan = RunPlan(warmup=0, runs=50)
        samples = time_operation(lambda: None, plan)
        assert all(value >= 0.0 for value in samples)

    def test_one_argument_per_invocation(self):
        produced = []
        received = []

        def arguments():
            while True:
                token = object()
                produced.append(token)
                yield token

        plan = RunPlan(warmup=2, runs=3)
        time_operation(received.append, plan, arguments())
        assert len(produced) == 5
        assert received == produced

    @pytest.mark.parametrize("available", [0, 1, 2, 4])
    def test_too_few_arguments_raise(self, available):
        received = []
        plan = RunPlan(warmup=2, runs=3)
        with pytest.raises(ValueError, match=r"^arguments ran out before 5 invocations$"):
            time_operation(received.append, plan, range(available))
        assert received == list(range(available))

    def test_warmup_samples_are_discarded(self):
        # the first `warmup` calls are two orders of magnitude slower;
        # none of that may leak into the reported samples
        state = {"calls": 0}

        def op():
            state["calls"] += 1
            if state["calls"] <= 5:
                deadline = _now_ns() + 5_000_000
                while _now_ns() < deadline:
                    pass

        plan = RunPlan(warmup=5, runs=40)
        samples = time_operation(op, plan)
        assert max(samples) < 2.0

    def test_spin_durations_are_ordered(self):
        fast = make_stub_instance(keypair_ms=0.2)
        slow = make_stub_instance(keypair_ms=0.6)
        plan = RunPlan(warmup=2, runs=15)
        fast_mean = summarize(time_operation(fast.keypair, plan)).mean_ms
        slow_mean = summarize(time_operation(slow.keypair, plan)).mean_ms
        assert fast_mean < slow_mean
        assert fast_mean >= 0.2
        assert slow_mean >= 0.6

    def test_samples_are_ns_deltas_in_ms_bit_for_bit(self, fake_clock):
        clock = fake_clock(lambda k: 10**12 + k * 1_234_567 + (k * k) % 997)
        plan = RunPlan(warmup=4, runs=300)
        samples = time_operation(lambda: None, plan)
        # warm-up reads no clock; each measured run reads it twice
        assert clock.reads == 2 * plan.runs
        starts, ends = clock.values[0::2], clock.values[1::2]
        expected = [(end - start) / 1e6 for start, end in zip(starts, ends)]
        assert [value.hex() for value in samples] == [value.hex() for value in expected]

    def test_argument_time_never_reaches_a_sample(self, fake_clock):
        clock = fake_clock()

        def arguments():
            while True:
                clock.now += 10**9
                yield 1_000

        def op(cost):
            clock.now += cost

        samples = time_operation(op, RunPlan(warmup=2, runs=50), arguments())
        assert samples == [0.001] * 50


def test_random_messages_cut_one_urandom_block(monkeypatch):
    block = bytes(range(256)) * 3
    requested = []

    def fake_urandom(size):
        requested.append(size)
        return block[:size]

    monkeypatch.setattr("chainsig.bench.os.urandom", fake_urandom)
    messages = list(_random_messages(48, 16))
    assert requested == [768]
    assert len(messages) == 48
    assert all(type(message) is bytes and len(message) == 16 for message in messages)
    assert b"".join(messages) == block


def _now_ns():
    import time

    return time.perf_counter_ns()


class TestMeasureFloor:
    @pytest.mark.parametrize("step", [1, 83, 250])
    def test_clock_stepping_k_ns_per_read_gives_a_floor_of_k(self, fake_clock, step):
        clock = fake_clock(lambda k: k * step)
        assert measure_floor() == {"median": step, "min": step, "max": step}
        # two reads per timed call, and no read after the last one
        assert clock.reads == 2 * 10**4

    def test_frozen_clock_raises_after_pairs_read_pairs(self, fake_clock):
        clock = fake_clock(lambda k: 5)
        with pytest.raises(
            ClockUnavailable, match=r"^clock never advanced over 1000000 read pairs$"
        ):
            measure_floor()
        # the timed calls, then a first reading and one per read pair
        assert clock.reads == 2 * 10**4 + 10**6 + 1

    def test_coarse_clock_reads_zero_and_does_not_raise(self, fake_clock):
        # every tick falls between two timed calls, so each sample is 0
        clock = fake_clock(lambda k: k // 40 * 250)
        assert measure_floor() == {"median": 0, "min": 0, "max": 0}
        # then the clock is read on until it advances, at the first tick
        assert clock.reads == 2 * 10**4 + 41

    def test_real_clock_gives_a_positive_finite_floor(self):
        floor = measure_floor()
        assert 0.0 < floor["min"] <= floor["median"] <= floor["max"]
        assert math.isfinite(floor["max"])


#: /proc/cpuinfo of a two-core arm64 Linux host: no line names the model
_ARM64_CPUINFO = "".join(
    f"processor\t: {core}\nBogoMIPS\t: 243.75\n"
    "Features\t: fp asimd evtstrm aes pmull sha1 sha2 crc32 atomics fphp asimdhp cpuid\n"
    "CPU implementer\t: 0x41\nCPU architecture: 8\nCPU variant\t: 0x3\n"
    "CPU part\t: 0xd0c\nCPU revision\t: 1\n\n"
    for core in range(2)
)


class TestProbeEnvironment:
    def test_fields_populated(self):
        env = probe_environment()
        assert env.cpu_model
        assert env.os_descriptor
        assert env.memory_bytes >= 0
        assert sorted(env.loop_floor_ns) == ["max", "median", "min"]
        assert env.loop_floor_ns["median"] > 0.0

    def test_identity_fields_stable(self):
        first = probe_environment()
        second = probe_environment()
        assert first.cpu_model == second.cpu_model
        assert first.os_descriptor == second.os_descriptor
        assert first.memory_bytes == second.memory_bytes

    @pytest.mark.skipif(not has_glibc(), reason="the probe starts no process on glibc hosts only")
    def test_os_descriptor_is_platform_text_without_a_process(self, monkeypatch):
        import platform
        import subprocess

        expected = platform.platform()

        def no_process(*args, **kwargs):
            raise AssertionError("the probe started a process")

        monkeypatch.setattr(subprocess, "Popen", no_process)
        # a fresh platform module, with no cached uname, if the probe imports one
        monkeypatch.delitem(sys.modules, "platform")
        assert probe_environment().os_descriptor == expected

    @pytest.mark.skipif(not has_glibc(), reason="the probe starts no process on glibc hosts only")
    def test_cpu_model_without_a_model_name_line_is_the_machine(self, monkeypatch):
        import builtins
        import os
        import subprocess

        from chainsig import bench

        def fake_open(path, *args, **kwargs):
            if path == "/proc/cpuinfo":
                return io.StringIO(_ARM64_CPUINFO)
            return builtins.open(path, *args, **kwargs)

        def no_process(*args, **kwargs):
            raise AssertionError("the probe started a process")

        monkeypatch.setattr(bench, "open", fake_open, raising=False)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        monkeypatch.delitem(sys.modules, "platform", raising=False)
        assert probe_environment().cpu_model == os.uname().machine
        assert "platform" not in sys.modules

    def test_os_descriptor_without_uname_is_platform_text(self, monkeypatch):
        # as on Windows, whose os module has no uname
        import os
        import platform

        monkeypatch.delattr(os, "uname")
        assert probe_environment().os_descriptor == platform.platform()


class TestBenchmarkVariant:
    def test_sample_accounting(self):
        instance = make_stub_instance()
        plan = RunPlan(warmup=2, runs=30)
        record = benchmark_variant(instance, plan)
        assert isinstance(record, BenchmarkRecord)
        assert record._fields == ("keypair_stat", "sign_stat", "verify_stat")
        for stat in (record.keypair_stat, record.sign_stat, record.verify_stat):
            assert stat.n == 30

    def test_known_delay_recovered_on_a_fake_clock(self, fake_clock):
        clock = fake_clock()
        backend = ClockedBackend(clock, cost_ns=1_000_000)
        plan = RunPlan(warmup=2, runs=25)
        record = benchmark_variant(SchemeInstance(make_stub_descriptor(), backend), plan)
        for stat in (record.keypair_stat, record.sign_stat, record.verify_stat):
            assert stat == StatSummary(mean_ms=1.0, std_ms=0.0, n=25)

    def test_known_delay_recovered_against_a_zero_delay_stub(self):
        # blocks of the 1 ms stub alternate with blocks of a zero-delay
        # stub, so drift on the host moves both sides of a block's
        # difference alike, and the median drops the blocks a stall hit
        delayed = make_stub_instance(keypair_ms=1.0, sign_ms=1.0, verify_ms=1.0)
        bare = make_stub_instance()
        plan = RunPlan(warmup=1, runs=5)
        differences = {"keypair_stat": [], "sign_stat": [], "verify_stat": []}
        for _ in range(25):
            slow = benchmark_variant(delayed, plan)
            fast = benchmark_variant(bare, plan)
            for name, block in differences.items():
                block.append(getattr(slow, name).mean_ms - getattr(fast, name).mean_ms)
        for name, block in differences.items():
            assert 1.0 <= statistics.median(block) <= 1.35, (name, sorted(block))

    def test_broken_backend_rejected_before_measurement(self):
        instance = SchemeInstance(make_stub_descriptor(), BrokenStubBackend())
        plan = RunPlan(warmup=1, runs=5)
        with pytest.raises(CorrectnessViolation, match="returned false"):
            benchmark_variant(instance, plan)

    @pytest.mark.parametrize("runs", [50, 300])
    def test_sign_messages_and_verify_pool(self, runs):
        backend = RecordingBackend()
        plan = RunPlan(warmup=7, runs=runs, message_len=24)
        benchmark_variant(SchemeInstance(make_stub_descriptor(), backend), plan)
        timed = plan.warmup + plan.runs
        pool_size = min(runs, VERIFY_POOL_SIZE)
        # sign is timed over warmup + runs fresh messages, then signs the pool
        assert len(backend.signed) == timed + pool_size
        assert all(type(message) is bytes and len(message) == 24 for message in backend.signed)
        assert len(set(backend.signed[:timed])) == timed
        pool = backend.signed[timed:]
        assert len(backend.verified) == timed
        assert len(set(backend.verified)) == pool_size
        assert {message for message, _ in backend.verified} == set(pool)

    def test_false_verify_in_a_measured_run_is_rejected(self):
        plan = RunPlan(warmup=3, runs=40)
        backend = RecordingBackend(fail_verify_at=plan.warmup + 20)
        with pytest.raises(
            CorrectnessViolation,
            match="Stub-A: verification of a freshly produced signature returned false",
        ):
            benchmark_variant(SchemeInstance(make_stub_descriptor(), backend), plan)
        assert len(backend.verified) == plan.warmup + 20

    def test_timed_windows_enter_only_the_op(self, monkeypatch):
        profiler = WindowProfiler()
        monkeypatch.setattr("chainsig.bench.time.perf_counter_ns", profiler)
        plan = RunPlan(warmup=3, runs=20)
        # a collection inside a window would run gc.callbacks, such as the
        # one hypothesis registers, and record their frames as entered
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            benchmark_variant(SchemeInstance(make_stub_descriptor(), NullBackend()), plan)
        finally:
            sys.setprofile(None)
            if gc_was_enabled:
                gc.enable()
        assert profiler.reads == 3 * 2 * plan.runs
        runs = plan.runs
        entered = {
            op: {tuple(window) for window in profiler.windows[k * runs:(k + 1) * runs]}
            for k, op in enumerate(("keypair", "sign", "verify"))
        }
        checked_verify = next(
            const for const in benchmark_variant.__code__.co_consts
            if getattr(const, "co_name", None) == "checked_verify"
        )
        # the backend's method alone, plus the verdict check for verify:
        # no chainsig wrapper runs inside a window
        assert entered == {
            "keypair": {(_label(NullBackend.keypair.__code__),)},
            "sign": {(_label(NullBackend.sign.__code__),)},
            "verify": {(_label(checked_verify), _label(NullBackend.verify.__code__))},
        }
        labels = {label for window in profiler.windows for label in window}
        assert not any("SchemeInstance" in label for label in labels)

    def test_host_is_not_probed(self, monkeypatch):
        def no_probe(*args, **kwargs):
            raise AssertionError("benchmark_variant must not probe the host")

        monkeypatch.setattr("chainsig.bench.probe_environment", no_probe)
        record = benchmark_variant(make_stub_instance(), RunPlan(warmup=0, runs=3))
        assert record.verify_stat.n == 3
