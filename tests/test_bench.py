"""Timing harness: summary statistics, run protocol, environment probe."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainsig.bench import (
    BenchmarkRecord,
    RunPlan,
    StatSummary,
    benchmark_variant,
    measure_timer_resolution,
    probe_environment,
    summarize,
    time_operation,
)
from chainsig.errors import CorrectnessViolation, EmptySamples
from chainsig.schemes.base import SchemeInstance
from chainsig.schemes.stub import BrokenStubBackend
from conftest import (
    close,
    make_stub_descriptor,
    make_stub_instance,
    two_pass_mean_std,
)


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

    def test_setup_runs_once_per_invocation(self):
        produced = []
        received = []

        def setup():
            token = object()
            produced.append(token)
            return token

        plan = RunPlan(warmup=2, runs=3)
        time_operation(received.append, plan, setup=setup)
        assert len(produced) == 5
        assert received == produced

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


def _now_ns():
    import time

    return time.perf_counter_ns()


class TestTimerResolution:
    def test_positive_and_finite(self):
        resolution = measure_timer_resolution(pairs=200_000)
        assert resolution > 0.0
        assert math.isfinite(resolution)

    def test_repeatable_within_an_order_of_magnitude(self):
        first = measure_timer_resolution(pairs=200_000)
        second = measure_timer_resolution(pairs=200_000)
        assert max(first, second) / min(first, second) < 10.0


class TestProbeEnvironment:
    def test_fields_populated(self):
        env = probe_environment(resolution_pairs=50_000)
        assert env.cpu_model
        assert env.os_descriptor
        assert env.memory_bytes >= 0
        assert env.timer_resolution_ns > 0.0

    def test_identity_fields_stable(self):
        first = probe_environment(resolution_pairs=50_000)
        second = probe_environment(resolution_pairs=50_000)
        assert first.cpu_model == second.cpu_model
        assert first.os_descriptor == second.os_descriptor
        assert first.memory_bytes == second.memory_bytes


class TestBenchmarkVariant:
    def test_sample_accounting(self, fake_environment):
        instance = make_stub_instance()
        plan = RunPlan(warmup=2, runs=30)
        record = benchmark_variant(instance, plan, environment=fake_environment)
        assert isinstance(record, BenchmarkRecord)
        assert record.descriptor is instance.descriptor
        assert record.environment is fake_environment
        for stat in (record.keypair_stat, record.sign_stat, record.verify_stat):
            assert stat.n == 30

    def test_known_delay_recovered(self, fake_environment):
        instance = make_stub_instance(
            keypair_ms=1.0, sign_ms=1.0, verify_ms=1.0
        )
        plan = RunPlan(warmup=2, runs=25)
        record = benchmark_variant(instance, plan, environment=fake_environment)
        for stat in (record.keypair_stat, record.sign_stat, record.verify_stat):
            assert 1.0 <= stat.mean_ms <= 1.35
            assert stat.std_ms < 0.25 * stat.mean_ms

    def test_broken_backend_rejected_before_measurement(self, fake_environment):
        instance = SchemeInstance(make_stub_descriptor(), BrokenStubBackend())
        plan = RunPlan(warmup=1, runs=5)
        with pytest.raises(CorrectnessViolation, match="returned false"):
            benchmark_variant(instance, plan, environment=fake_environment)
