"""Per-endpoint request stats: one count per request, however it was coalesced.

:class:`repro.serve.ServingApp` records each localize request once, under the
endpoint it asked for, where the request enters and leaves the app.  These
tests hold a flush so that requests are certain to coalesce, and check that
such an app and one with ``max_batch=1`` (every request its own model call)
report the same numbers.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.attacks import FGSMAttack, ThreatModel
from repro.defenses import DefenseSpec, GuardRejectedError
from repro.serve import ModelStore, ServingApp, StoreError

N_REQUESTS = 8


@pytest.fixture(scope="module")
def adversarial_batch(tiny_campaign, trained_dnn) -> np.ndarray:
    """Strongly perturbed fingerprints (ε = 0.5, ø = 100 %) the detector flags."""
    test = tiny_campaign.test_for("S7")
    attack = FGSMAttack(ThreatModel(epsilon=0.5, phi_percent=100.0, seed=3))
    return attack.perturb(test.features, test.labels, trained_dnn)


@pytest.fixture()
def store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    store.publish(
        LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train),
        "knn",
        tags=("prod",),
    )
    for name, action in (("knn-monitor", "monitor"), ("knn-strict", "reject")):
        guarded = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        guarded.attach_guard(
            DefenseSpec.create("detector", params={"action": action}),
            dataset=tiny_campaign.train,
        )
        store.publish(guarded, name)
    return store


def _hold_first_flush(app: ServingApp, endpoint: str) -> threading.Event:
    """Make the endpoint's first model call wait until the returned event is set.

    Requests submitted meanwhile queue up behind it and flush together.
    """
    service = app.gateway.service_for(endpoint)
    release = threading.Event()
    original = service.localize
    held = []

    def localize(batch):
        if not held:
            held.append(True)
            assert release.wait(10)
        return original(batch)

    service.localize = localize
    app.batcher_for(endpoint)
    return release


def _wait_until_queued(app: ServingApp, endpoint: str, requests: int) -> None:
    stats = app.batcher_for(endpoint).stats
    deadline = time.monotonic() + 10.0
    while stats.requests < requests:
        assert time.monotonic() < deadline, f"{stats.requests} of {requests} queued"
        time.sleep(0.001)


def _localize_concurrently(app: ServingApp, payloads, on_all_started=None):
    """Serve every payload through the async path at once; outcomes in order."""

    async def main():
        tasks = [asyncio.ensure_future(app.localize_document(p)) for p in payloads]
        if on_all_started is not None:
            await asyncio.get_running_loop().run_in_executor(None, on_all_started)
        return await asyncio.gather(*tasks, return_exceptions=True)

    return asyncio.run(main())


class TestCoalescedRequests:
    @pytest.mark.parametrize("path", ["sync", "async"])
    def test_each_coalesced_request_counts_once(self, store, tiny_campaign, path):
        rows = tiny_campaign.test_for("S7").features[:N_REQUESTS]
        with closing(ServingApp(store)) as app:
            release = _hold_first_flush(app, "knn")

            def release_when_all_queued():
                _wait_until_queued(app, "knn", N_REQUESTS)
                release.set()

            if path == "sync":
                threads = [
                    threading.Thread(target=app.localize, args=("knn", row[None, :]))
                    for row in rows
                ]
                switch_interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    for thread in threads:
                        thread.start()
                    release_when_all_queued()
                    for thread in threads:
                        thread.join(10)
                finally:
                    release.set()
                    sys.setswitchinterval(switch_interval)
                assert not any(thread.is_alive() for thread in threads)
            else:
                outcomes = _localize_concurrently(
                    app,
                    [{"model": "knn", "fingerprints": row[None, :]} for row in rows],
                    release_when_all_queued,
                )
                assert all(isinstance(outcome, dict) for outcome in outcomes)
            document = app.metrics_document()
        served = document["gateway"]["endpoints"]["knn"]
        batching = document["batching"]["endpoints"]["knn"]
        assert served["requests"] == batching["requests"] == N_REQUESTS
        assert served["fingerprints"] == N_REQUESTS
        assert batching["batches"] < N_REQUESTS  # they did coalesce
        assert len(app._endpoint_stats["knn"].latencies) == N_REQUESTS


class TestBatchedAndDirectParity:
    def test_batched_and_direct_apps_count_the_same(
        self, store, tiny_campaign, adversarial_batch
    ):
        rows = tiny_campaign.test_for("S7").features
        payloads = [{"model": "knn", "fingerprints": rows[i : i + 1]} for i in range(4)]
        payloads += [
            {"model": "knn", "fingerprints": rows[4:7]},
            {"model": "knn", "fingerprints": np.zeros((1, 3))},  # wrong width
            {"model": "knn", "fingerprints": rows[7:8]},
            {"model": "ghost@prod", "fingerprints": rows[:1]},  # unknown endpoint
            {"model": "knn-monitor", "fingerprints": adversarial_batch},
            {"model": "knn-strict", "fingerprints": adversarial_batch},
        ]
        knn_requests = sum(1 for p in payloads if p["model"] == "knn")
        outcomes, endpoints = {}, {}
        for max_batch in (64, 1):
            with closing(ServingApp(store, max_batch=max_batch)) as app:
                on_all_started = None
                if max_batch > 1:
                    release = _hold_first_flush(app, "knn")

                    def on_all_started():
                        _wait_until_queued(app, "knn", knn_requests)
                        release.set()

                outcomes[max_batch] = _localize_concurrently(app, payloads, on_all_started)
                document = app.metrics_document()
                batches = document["batching"]["endpoints"]["knn"]["batches"]
                if max_batch > 1:
                    assert batches < knn_requests  # they did coalesce
                else:
                    assert batches == knn_requests - 1  # one per answered request
                endpoints[max_batch] = document["gateway"]["endpoints"]

        # Same answers, same errors, however the requests were flushed.
        for batched, alone in zip(outcomes[64], outcomes[1]):
            assert type(batched) is type(alone)
            if isinstance(alone, dict):
                assert batched["labels"] == alone["labels"]
        assert isinstance(outcomes[1][5], ValueError)
        assert isinstance(outcomes[1][7], StoreError)

        def counts(stats):
            keys = ("requests", "fingerprints", "errors", "guard")
            return {
                endpoint: {key: entry[key] for key in keys}
                for endpoint, entry in stats.items()
            }

        assert counts(endpoints[64]) == counts(endpoints[1])
        stats = endpoints[1]
        assert "ghost@prod" not in stats
        assert sorted(stats) == ["knn", "knn-monitor", "knn-strict"]
        assert stats["knn"]["requests"] == knn_requests - 1
        assert stats["knn"]["fingerprints"] == 8
        assert stats["knn"]["errors"] == 1
        assert stats["knn-monitor"]["requests"] == 1
        assert stats["knn-monitor"]["guard"]["flagged"] >= 1
        assert stats["knn-strict"]["requests"] == 0
        assert stats["knn-strict"]["errors"] == 0
        assert stats["knn-strict"]["guard"]["rejected"] == 1
        assert stats["knn-strict"]["guard"]["flagged"] >= 1


class TestLoneRequests:
    def test_a_rejected_lone_request_runs_the_model_once(self, store, adversarial_batch):
        """An enforcing guard's rejection of a request that flushed alone
        reaches its caller without a second model and guard pass."""
        with closing(ServingApp(store)) as app:
            service = app.gateway.service_for("knn-strict")
            original, calls = service.localize, []

            def counting_localize(batch):
                calls.append(batch.shape[0])
                return original(batch)

            service.localize = counting_localize
            with pytest.raises(GuardRejectedError):
                app.localize("knn-strict", adversarial_batch)
            rejected = app.metrics_document()["gateway"]["endpoints"]["knn-strict"]
        assert calls == [adversarial_batch.shape[0]]
        assert rejected["guard"]["rejected"] == 1


class TestMetricsShape:
    def test_endpoint_and_gateway_key_sets_are_pinned(self, store, tiny_campaign):
        """``GET /metrics`` keeps ``gateway.endpoints.<ep>`` where it was, with
        the same keys, though the app now records it."""
        with closing(ServingApp(store)) as app:
            app.localize("knn", tiny_campaign.test_for("S7").features[:2])
            gateway = app.metrics_document()["gateway"]
        assert set(gateway) == {
            "endpoints", "loaded", "loads", "evictions", "max_loaded",
            "promotions", "routes", "resolved", "store",
        }
        endpoint = gateway["endpoints"]["knn"]
        assert set(endpoint) == {
            "requests", "fingerprints", "errors", "guard", "latency_ms",
            "last_request_unix",
        }
        assert set(endpoint["guard"]) == {"flagged", "rejected"}
        assert set(endpoint["latency_ms"]) == {"mean", "p50", "p99", "max"}
        assert list(gateway)[0] == "endpoints"
