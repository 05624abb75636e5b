"""Unit tests for repro.obs.metrics (counters, gauges, histograms)."""

import math
import sys
import threading

import pytest

from repro.errors import ReproError
from repro.obs.metrics import (
    Counter,
    DEFAULT_SECONDS_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    NOOP_METRIC,
    exponential_buckets,
)


class TestExponentialBuckets:
    def test_geometric_growth(self):
        assert exponential_buckets(1.0, 2.0, 4) == [1.0, 2.0, 4.0, 8.0]

    def test_fractional_start(self):
        buckets = exponential_buckets(1e-6, 4.0, 3)
        assert buckets == pytest.approx([1e-6, 4e-6, 1.6e-5])

    def test_validation(self):
        with pytest.raises(ReproError):
            exponential_buckets(0.0, 2.0, 3)
        with pytest.raises(ReproError):
            exponential_buckets(1.0, 1.0, 3)
        with pytest.raises(ReproError):
            exponential_buckets(1.0, 2.0, 0)

    def test_default_seconds_buckets_cover_microsecond_to_minutes(self):
        assert DEFAULT_SECONDS_BUCKETS[0] == pytest.approx(1e-6)
        assert DEFAULT_SECONDS_BUCKETS[-1] > 60.0
        assert len(DEFAULT_SECONDS_BUCKETS) == 20


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        counter = Counter("c_total")
        with pytest.raises(ReproError):
            counter.inc(-1.0)

    def test_invalid_name_rejected(self):
        with pytest.raises(ReproError):
            Counter("0starts-with-digit")


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec(4.0)
        assert gauge.value == 3.0

    def test_can_go_negative(self):
        gauge = Gauge("g")
        gauge.dec(1.5)
        assert gauge.value == -1.5


class TestHistogram:
    def test_boundary_is_inclusive(self):
        # Prometheus `le` semantics: an observation equal to a bound
        # lands in that bucket, not the next one.
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        hist.observe(1.0)
        hist.observe(2.0)
        assert hist.bucket_counts() == [1, 1, 0, 0]

    def test_overflow_bucket(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        hist.observe(100.0)
        assert hist.bucket_counts() == [0, 0, 1]
        assert hist.cumulative_buckets()[-1] == (float("inf"), 1)

    def test_below_first_bound(self):
        hist = Histogram("h", buckets=[1.0, 2.0])
        hist.observe(0.001)
        assert hist.bucket_counts() == [1, 0, 0]

    def test_cumulative_monotone_and_ends_at_count(self):
        hist = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 99.0, 1.0):
            hist.observe(value)
        cumulative = [count for _le, count in hist.cumulative_buckets()]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == hist.count == 5

    def test_snapshot_is_consistent_under_concurrent_observe(self):
        """sum, count and buckets come from one locked read: the +Inf
        bucket equals count even while writers keep observing."""
        hist = Histogram("h", buckets=[1.0, 2.0])
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                hist.observe(0.5, exemplar="t")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for _ in range(500):
                snap = hist.snapshot()
                assert snap.buckets[-1] == (float("inf"), snap.count)
                assert snap.sum == 0.5 * snap.count
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert hist.snapshot().exemplars == [(1.0, 0.5, "t")]

    def test_sum_and_mean(self):
        hist = Histogram("h", buckets=[10.0])
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.sum == 6.0
        assert hist.mean == 3.0

    def test_mean_without_observations(self):
        assert Histogram("h", buckets=[1.0]).mean == 0.0

    def test_bounds_must_increase(self):
        with pytest.raises(ReproError):
            Histogram("h", buckets=[1.0, 1.0])
        with pytest.raises(ReproError):
            Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(ReproError):
            Histogram("h", buckets=[])

    def test_default_buckets_are_seconds_buckets(self):
        assert Histogram("h").bounds == DEFAULT_SECONDS_BUCKETS


class TestNoopMetric:
    def test_accepts_all_mutations(self):
        NOOP_METRIC.inc()
        NOOP_METRIC.inc(5)
        NOOP_METRIC.dec()
        NOOP_METRIC.set(3.0)
        NOOP_METRIC.observe(1.0)


class TestMetricsRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", "help")
        b = registry.counter("c_total")
        assert a is b
        assert len(registry) == 1

    def test_labels_distinguish_series(self):
        registry = MetricsRegistry()
        hit = registry.counter("lookups_total", outcome="hit")
        miss = registry.counter("lookups_total", outcome="miss")
        assert hit is not miss
        hit.inc()
        assert registry.get("lookups_total", outcome="hit").value == 1.0
        assert registry.get("lookups_total", outcome="miss").value == 0.0

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", a="1", b="2")
        b = registry.counter("c_total", b="2", a="1")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ReproError):
            registry.gauge("x")
        with pytest.raises(ReproError):
            registry.histogram("x")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=[1.0, 2.0])
        # re-asking without explicit buckets returns the original
        assert registry.histogram("h").bounds == [1.0, 2.0]
        with pytest.raises(ReproError):
            registry.histogram("h", buckets=[1.0, 3.0])

    def test_invalid_label_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.counter("c_total", **{"bad-label": "x"})

    def test_get_never_creates(self):
        registry = MetricsRegistry()
        assert registry.get("absent") is None
        assert len(registry) == 0

    def test_collect_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.gauge("a_gauge")
        registry.counter("m_total", kind="x")
        names = [m.name for m in registry.collect()]
        assert names == ["a_gauge", "m_total", "z_total"]

    def test_reset_clears(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.get("c_total") is None

    def test_concurrent_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000.0

    def test_histogram_infinity_not_in_bounds(self):
        hist = MetricsRegistry().histogram("h", buckets=[1.0])
        assert not any(math.isinf(b) for b in hist.bounds)
