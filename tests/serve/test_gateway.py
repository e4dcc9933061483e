"""Tests for the multi-tenant :class:`repro.serve.Gateway`, and for the
per-endpoint request stats the :class:`repro.serve.ServingApp` in front of it
records."""

from __future__ import annotations

import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import Gateway, ModelStore, ServingApp, StoreError
from repro.serve.gateway import LATENCY_WINDOW, percentile


@pytest.fixture()
def store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    for k in (1, 3, 5):
        service = LocalizationService("KNN", params={"k": k}).fit(tiny_campaign.train)
        store.publish(service, f"knn{k}", tags=("prod",))
    return store


class TestRouting:
    def test_localize_matches_direct_service(self, store, tiny_campaign):
        gateway = Gateway(store)
        test = tiny_campaign.test_for("S7")
        via_gateway = gateway.localize("knn3@prod", test.features)
        direct = store.resolve("knn3@prod").localize(test.features)
        np.testing.assert_array_equal(via_gateway.labels, direct.labels)
        np.testing.assert_array_equal(via_gateway.coordinates, direct.coordinates)

    def test_explicit_routes(self, store, tiny_campaign):
        gateway = Gateway(store, routes={"building-1/knn": "knn3@prod"})
        test = tiny_campaign.test_for("S7")
        routed = gateway.localize("building-1/knn", test.features)
        direct = gateway.localize("knn3@prod", test.features)
        np.testing.assert_array_equal(routed.labels, direct.labels)
        assert gateway.resolve_endpoint("building-1/knn") == "knn3@prod"
        assert gateway.resolve_endpoint("knn1") == "knn1"
        assert "building-1/knn" in gateway.endpoints()
        assert "knn1" in gateway.endpoints()

    def test_unknown_endpoint_raises_without_leaking_stats(self, store):
        """Unknown names must not grow /metrics: no EndpointStats entry."""
        with closing(ServingApp(store)) as app:
            for bogus in ("ghost@prod", "x1", "x2"):
                with pytest.raises(StoreError):
                    app.localize(bogus, np.zeros((1, 4)))
            assert app.metrics_document()["gateway"]["endpoints"] == {}

    def test_request_failure_on_valid_endpoint_counts_error(self, store):
        with closing(ServingApp(store)) as app:
            with pytest.raises(ValueError, match="APs"):
                app.localize("knn3@prod", np.zeros((1, 3)))  # wrong width
            stats = app.metrics_document()["gateway"]["endpoints"]["knn3@prod"]
        assert stats["errors"] == 1
        assert stats["requests"] == 0


class TestLazyLoadingAndEviction:
    def test_lazy_load_on_first_request(self, store, tiny_campaign):
        gateway = Gateway(store)
        assert gateway.loaded_refs() == []
        gateway.localize("knn1", tiny_campaign.test_for("S7").features)
        # Loaded services are keyed by the *pinned* immutable version ref.
        assert gateway.loaded_refs() == ["knn1@v1"]
        assert gateway.loads == 1
        # Second request reuses the loaded service.
        gateway.localize("knn1", tiny_campaign.test_for("S7").features)
        assert gateway.loads == 1

    def test_lru_eviction(self, store, tiny_campaign):
        gateway = Gateway(store, max_loaded=2)
        features = tiny_campaign.test_for("S7").features
        gateway.localize("knn1", features)
        gateway.localize("knn3", features)
        gateway.localize("knn1", features)  # refresh knn1 -> knn3 becomes LRU
        gateway.localize("knn5", features)  # evicts knn3
        assert set(gateway.loaded_refs()) == {"knn1@v1", "knn5@v1"}
        assert gateway.evictions == 1
        # Evicted endpoints transparently reload.
        gateway.localize("knn3", features)
        assert gateway.loads == 4

    def test_max_loaded_validated(self, store):
        with pytest.raises(ValueError):
            Gateway(store, max_loaded=0)


class _CountingStore(ModelStore):
    """A store whose ``resolve`` is counted and held until ``release`` is set."""

    def __init__(self, root, fail: bool = False) -> None:
        super().__init__(root)
        self.calls = 0
        self.fail = fail
        self.release = threading.Event()
        self._calls_lock = threading.Lock()

    def resolve(self, ref):
        with self._calls_lock:
            self.calls += 1
        assert self.release.wait(10)
        if self.fail:
            raise OSError(f"cannot read {ref}")
        return super().resolve(ref)


def _cold_burst(gateway: Gateway, store: _CountingStore, threads: int = 16):
    """``threads`` concurrent first requests for one ref; their outcomes."""
    outcomes = [None] * threads
    start = threading.Barrier(threads)
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)

    def request(index: int) -> None:
        start.wait(10)
        try:
            outcomes[index] = gateway.service_for("knn3@prod")
        except Exception as error:  # noqa: BLE001 - the outcome under test
            outcomes[index] = error

    workers = [threading.Thread(target=request, args=(i,)) for i in range(threads)]
    try:
        for worker in workers:
            worker.start()
        deadline = time.monotonic() + 10.0
        while store.calls == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        time.sleep(0.2)  # let the rest of the burst arrive behind the first load
        store.release.set()
        for worker in workers:
            worker.join(10)
    finally:
        store.release.set()
        sys.setswitchinterval(switch_interval)
    assert not any(worker.is_alive() for worker in workers)
    return outcomes


class TestSingleFlightLoads:
    def test_concurrent_first_requests_load_a_ref_once(self, store):
        counting = _CountingStore(store.root)
        gateway = Gateway(counting)
        outcomes = _cold_burst(gateway, counting)
        assert counting.calls == 1
        assert gateway.loads == 1
        assert all(service is outcomes[0] for service in outcomes)
        assert isinstance(outcomes[0], LocalizationService)

    def test_failed_load_reaches_every_waiter_and_is_retried(self, store):
        counting = _CountingStore(store.root, fail=True)
        gateway = Gateway(counting)
        outcomes = _cold_burst(gateway, counting)
        assert counting.calls == 1
        assert all(isinstance(outcome, OSError) for outcome in outcomes)
        assert gateway.loaded_refs() == [] and gateway.loads == 0
        # Nothing cached the failure: the next request loads again.
        counting.fail = False
        assert isinstance(gateway.service_for("knn3@prod"), LocalizationService)
        assert counting.calls == 2
        assert gateway.loaded_refs() == ["knn3@v1"]


class TestStats:
    """Per-endpoint request stats, as the serving app records them."""

    def test_request_counters_and_latency(self, store, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        with closing(ServingApp(store)) as app:
            for _ in range(3):
                app.localize("knn3@prod", features)
            stats = app.metrics_document()["gateway"]
        endpoint = stats["endpoints"]["knn3@prod"]
        assert endpoint["requests"] == 3
        assert endpoint["fingerprints"] == 3 * features.shape[0]
        assert endpoint["errors"] == 0
        assert endpoint["latency_ms"]["p50"] is not None
        assert endpoint["latency_ms"]["p99"] >= endpoint["latency_ms"]["p50"]
        assert stats["store"]["models"] == ["knn1", "knn3", "knn5"]

    def test_latency_window_is_bounded(self, store, tiny_campaign):
        """Regression: a long-lived app must not accumulate one latency
        sample per request forever — the percentile window is bounded."""
        requests = LATENCY_WINDOW + 6
        features = tiny_campaign.test_for("S7").features[:1]
        with closing(ServingApp(store)) as app:
            for _ in range(requests):
                app.localize("knn3@prod", features)
            endpoint_stats = app._endpoint_stats["knn3@prod"]
            assert LATENCY_WINDOW == 1024
            assert endpoint_stats.latencies.maxlen == LATENCY_WINDOW
            assert len(endpoint_stats.latencies) == LATENCY_WINDOW
            # Counters still see every request; only the window is bounded.
            endpoint = app.metrics_document()["gateway"]["endpoints"]["knn3@prod"]
        assert endpoint["requests"] == requests

    def test_percentile_helper(self):
        assert percentile([], 50) is None
        assert percentile([5.0], 99) == 5.0
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 100) == 100.0
