"""Unit tests for the serving daemon's socket-free building blocks:
admission control, deadlines, the latency estimator and the config."""

import threading
import time

import pytest

from repro.server import (
    AdmissionController,
    Deadline,
    LatencyEstimator,
    OverloadedError,
    ServerConfig,
    ServerConfigError,
    SHED_QUEUE_FULL,
    SHED_TIMEOUT,
    should_degrade,
)


class TestAdmissionController:
    def test_admits_up_to_capacity(self):
        admission = AdmissionController(2, queue_depth=0)
        admission.acquire()
        admission.acquire()
        assert admission.stats().executing == 2
        assert admission.saturated

    def test_sheds_when_queue_full(self):
        admission = AdmissionController(1, queue_depth=0)
        admission.acquire()
        with pytest.raises(OverloadedError) as exc_info:
            admission.acquire()
        assert exc_info.value.reason == SHED_QUEUE_FULL
        assert admission.stats().shed_queue_full == 1

    def test_sheds_on_queue_timeout(self):
        admission = AdmissionController(
            1, queue_depth=1, queue_timeout_s=0.05
        )
        admission.acquire()
        start = time.perf_counter()
        with pytest.raises(OverloadedError) as exc_info:
            admission.acquire()
        assert exc_info.value.reason == SHED_TIMEOUT
        assert time.perf_counter() - start >= 0.04
        assert admission.stats().shed_timeout == 1

    def test_caller_timeout_caps_queue_wait(self):
        """A request with little deadline budget must not wait the full
        configured queue timeout."""
        admission = AdmissionController(
            1, queue_depth=1, queue_timeout_s=5.0
        )
        admission.acquire()
        start = time.perf_counter()
        with pytest.raises(OverloadedError):
            admission.acquire(timeout_s=0.05)
        assert time.perf_counter() - start < 1.0

    def test_queued_request_admitted_on_release(self):
        admission = AdmissionController(
            1, queue_depth=1, queue_timeout_s=5.0
        )
        admission.acquire()
        admitted = threading.Event()

        def waiter():
            admission.acquire()
            admitted.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        assert admission.stats().waiting == 1
        admission.release()
        thread.join(timeout=5.0)
        assert admitted.is_set()
        stats = admission.stats()
        assert stats.admitted == 2 and stats.shed == 0

    def test_release_restores_capacity(self):
        admission = AdmissionController(1, queue_depth=0)
        with admission.admit():
            assert admission.stats().executing == 1
        with admission.admit():
            pass
        stats = admission.stats()
        assert stats.executing == 0 and stats.admitted == 2

    def test_admit_releases_on_exception(self):
        admission = AdmissionController(1, queue_depth=0)
        with pytest.raises(RuntimeError):
            with admission.admit():
                raise RuntimeError("handler blew up")
        assert admission.stats().executing == 0
        admission.acquire()  # permit is back

    def test_concurrent_hammer_counts_reconcile(self):
        """admitted + shed == attempts, and permits are never leaked."""
        admission = AdmissionController(
            2, queue_depth=2, queue_timeout_s=0.02
        )
        attempts_per_thread = 25
        errors = []

        def worker():
            for _ in range(attempts_per_thread):
                try:
                    with admission.admit():
                        time.sleep(0.001)
                except OverloadedError:
                    pass
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = admission.stats()
        assert stats.admitted + stats.shed == 8 * attempts_per_thread
        assert stats.executing == 0 and stats.waiting == 0


class TestDeadline:
    def test_unlimited(self):
        deadline = Deadline.from_ms(None)
        assert deadline.unlimited
        assert deadline.remaining() == float("inf")
        assert not deadline.expired()

    def test_zero_means_unlimited(self):
        assert Deadline.from_ms(0).unlimited

    def test_budget_counts_down(self):
        deadline = Deadline.from_ms(50)
        assert 0 < deadline.remaining() <= 0.05
        assert not deadline.expired()

    def test_expiry(self):
        deadline = Deadline.from_ms(1)
        time.sleep(0.01)
        assert deadline.expired()
        assert deadline.remaining() < 0


class TestLatencyEstimator:
    def test_floor_before_samples(self):
        estimator = LatencyEstimator(floor_s=0.01)
        assert estimator.estimate() == 0.01
        assert estimator.samples == 0

    def test_ewma_tracks_observations(self):
        estimator = LatencyEstimator(floor_s=0.001, alpha=0.5)
        estimator.observe(0.1)
        assert estimator.estimate() == pytest.approx(0.1)
        estimator.observe(0.2)
        assert estimator.estimate() == pytest.approx(0.15)
        assert estimator.samples == 2

    def test_floor_applies_to_tiny_ewma(self):
        estimator = LatencyEstimator(floor_s=0.01)
        estimator.observe(0.0001)
        assert estimator.estimate() == 0.01

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyEstimator(floor_s=0.0)
        with pytest.raises(ValueError):
            LatencyEstimator(alpha=0.0)


class TestShouldDegrade:
    def test_no_deadline_never_degrades(self):
        estimator = LatencyEstimator(floor_s=10.0)
        assert not should_degrade(Deadline.from_ms(None), estimator, 1.5)

    def test_tight_deadline_degrades(self):
        estimator = LatencyEstimator(floor_s=0.05)
        assert should_degrade(Deadline.from_ms(1), estimator, 1.5)

    def test_roomy_deadline_takes_full_path(self):
        estimator = LatencyEstimator(floor_s=0.001)
        estimator.observe(0.002)
        assert not should_degrade(Deadline.from_ms(5000), estimator, 1.5)


class TestServerConfig:
    def test_defaults_validate(self):
        ServerConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        {"max_concurrency": 0},
        {"queue_depth": -1},
        {"queue_timeout_s": -0.5},
        {"default_deadline_ms": -1},
        {"degrade_safety": 0.0},
        {"min_latency_estimate_s": 0.0},
        {"retry_after_min_s": 0},
        {"retry_after_min_s": 10, "retry_after_max_s": 5},
        {"worker_index": -1},
        {"default_k": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ServerConfigError):
            ServerConfig(**kwargs).validate()
