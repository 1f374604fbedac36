"""Tests for statistics, CDFs, and recorders."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.costs import CostModel
from repro.kernel.cpu import CpuCore, Work
from repro.metrics.cdf import Cdf
from repro.metrics.recorder import (
    CpuUtilizationSampler,
    LatencyRecorder,
    ThroughputMeter,
)
from repro.metrics.stats import percentile, summarize_ns
from repro.sim import Simulator


class TestStats:
    def test_summary_fields(self):
        summary = summarize_ns([1_000, 2_000, 3_000, 4_000])
        assert summary.count == 4
        assert summary.min_ns == 1_000
        assert summary.max_ns == 4_000
        assert summary.avg_ns == 2_500
        assert summary.p50_ns == 2_500

    def test_summary_empty_is_none(self):
        assert summarize_ns([]) is None

    def test_unit_conversion_properties(self):
        summary = summarize_ns([1_500])
        assert summary.avg_us == 1.5
        assert summary.p99_us == 1.5

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 50) == 5.0

    @given(st.lists(st.integers(0, 10**9), min_size=1, max_size=200))
    def test_summary_invariants(self, samples):
        summary = summarize_ns(samples)
        assert summary.min_ns <= summary.p50_ns <= summary.p99_ns
        assert summary.p99_ns <= summary.p999_ns <= summary.max_ns
        assert summary.min_ns <= summary.avg_ns <= summary.max_ns

    def test_str_render(self):
        assert "p99" in str(summarize_ns([1000]))


class TestCdf:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])

    def test_at_and_quantile(self):
        cdf = Cdf([10, 20, 30, 40])
        assert cdf.at(5) == 0.0
        assert cdf.at(25) == 0.5
        assert cdf.at(100) == 1.0
        assert cdf.quantile(0) == 10
        assert cdf.quantile(1) == 40

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            Cdf([1]).quantile(1.5)

    def test_points_monotonic(self):
        cdf = Cdf(list(range(100)))
        points = cdf.points(20)
        values = [v for v, _q in points]
        probs = [q for _v, q in points]
        assert values == sorted(values)
        assert probs == sorted(probs)

    def test_points_requires_two(self):
        with pytest.raises(ValueError):
            Cdf([1]).points(1)

    def test_render_ascii(self):
        art = Cdf([1_000, 2_000, 50_000]).render_ascii(width=30, height=6)
        assert "*" in art
        assert "us" in art

    @given(st.lists(st.integers(0, 10**6), min_size=2, max_size=100))
    def test_at_quantile_roundtrip(self, samples):
        cdf = Cdf(samples)
        median = cdf.quantile(0.5)
        assert cdf.at(median) >= 0.5


class TestRecorders:
    def test_latency_recorder_warmup_gating(self):
        recorder = LatencyRecorder(warmup_until_ns=100)
        recorder.record(5, at_ns=50)
        recorder.record(7, at_ns=150)
        recorder.record(9)  # no timestamp: always kept
        assert list(recorder.samples_ns) == [7, 9]
        assert recorder.discarded == 1

    def test_latency_recorder_summary_and_cdf(self):
        recorder = LatencyRecorder()
        recorder.record(100)
        recorder.record(300)
        assert recorder.summary().avg_ns == 200
        assert recorder.cdf().count == 2

    def test_throughput_meter(self):
        meter = ThroughputMeter(warmup_until_ns=1_000)
        meter.record(500, nbytes=10)   # warmup: ignored
        meter.record(1_500, nbytes=20)
        meter.record(2_500, nbytes=30)
        assert meter.count == 2
        assert meter.bytes == 50
        assert meter.first_at == 1_500
        assert meter.rate_per_sec(1_000, 1_000_000_000 + 1_000) == 2.0

    def test_throughput_meter_zero_window(self):
        meter = ThroughputMeter()
        assert meter.rate_per_sec(100, 100) == 0.0

    def test_throughput_meter_counts_warmup_discards(self):
        meter = ThroughputMeter(warmup_until_ns=1_000)
        meter.record(500, nbytes=100)
        meter.record(1_500, nbytes=200)
        assert meter.count == 1
        assert meter.bytes == 200
        assert meter.discarded == 1

    def test_throughput_meter_summary_exposes_discarded(self):
        meter = ThroughputMeter(warmup_until_ns=10)
        meter.record(5)
        meter.record(20)
        summary = meter.summary()
        assert summary == {"count": 1, "bytes": 0, "discarded": 1,
                           "first_at": 20, "last_at": 20}

    def test_cpu_sampler_window(self):
        sim = Simulator()
        core = CpuCore(sim, 0, CostModel().replace(cstate_levels=()))

        def thread():
            yield Work(40_000)

        sampler = CpuUtilizationSampler(core, lambda: sim.now)
        core.spawn(thread())
        sim.run(until=100_000)
        assert sampler.utilization() == pytest.approx(0.4)
        sampler.mark()
        sim.run(until=200_000)
        assert sampler.utilization() == 0.0

    def test_cpu_sampler_softirq_fraction(self):
        sim = Simulator()
        core = CpuCore(sim, 0, CostModel().replace(cstate_levels=()))

        def handler():
            yield 30_000

        core.register_softirq(3, handler)
        sampler = CpuUtilizationSampler(core, lambda: sim.now)
        core.raise_softirq(3)
        sim.run(until=100_000)
        assert sampler.softirq_fraction() == pytest.approx(0.3)
