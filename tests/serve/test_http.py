"""Tests for ``repro serve``'s HTTP API and the :class:`ServiceClient`."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.server import AioServerThread


@pytest.fixture()
def published_store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    return store


@pytest.fixture()
def running_server(published_store):
    with AioServerThread(
        published_store,
        routes={"building-1/knn": "knn@prod"},
        max_batch=8,
    ) as server:
        yield server


@pytest.fixture()
def client(running_server) -> ServiceClient:
    with ServiceClient(running_server.base_url) as client:
        yield client


class TestLocalizeEndpoint:
    def test_http_predictions_bit_identical_to_direct(
        self, client, published_store, tiny_campaign
    ):
        test = tiny_campaign.test_for("S7")
        direct = published_store.resolve("knn@prod").localize(test.features)
        via_http = client.localize(test.features, model="knn@prod", probabilities=True)
        np.testing.assert_array_equal(via_http.labels, direct.labels)
        np.testing.assert_array_equal(via_http.coordinates, direct.coordinates)
        np.testing.assert_array_equal(via_http.error_estimate, direct.error_estimate)
        np.testing.assert_array_equal(via_http.probabilities, direct.probabilities)

    def test_routes_and_bare_names_serve(self, client, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        for endpoint in ("knn", "knn@prod", "knn@v1", "building-1/knn"):
            result = client.localize(test.features[:2], model=endpoint)
            assert result.labels.shape == (2,)

    def test_single_flat_fingerprint(self, client, tiny_campaign):
        single = tiny_campaign.test_for("S7").features[0]
        result = client.localize(single, model="knn")
        assert result.labels.shape == (1,)
        assert result.coordinates.shape == (1, 2)

    def test_empty_batch(self, client, tiny_campaign):
        empty = np.empty((0, tiny_campaign.train.num_aps))
        result = client.localize(empty, model="knn")
        assert result.labels.shape == (0,)
        assert result.coordinates.shape == (0, 2)

    def test_unknown_model_is_404(self, client, tiny_campaign):
        with pytest.raises(RuntimeError, match="404"):
            client.localize(tiny_campaign.test_for("S7").features, model="ghost@prod")

    def test_unknown_models_never_spawn_batchers(self, client, running_server, tiny_campaign):
        """Regression: each batcher owns a thread; bogus model names must not
        accumulate one batcher (and thread) per name."""
        features = tiny_campaign.test_for("S7").features
        for bogus in ("x1", "x2", "x3"):
            with pytest.raises(RuntimeError, match="404"):
                client.localize(features, model=bogus)
        assert list(running_server.app._batchers) == []
        client.localize(features, model="knn")
        assert list(running_server.app._batchers) == ["knn"]

    def test_wrong_ap_count_is_400_with_clear_message(self, client):
        with pytest.raises(RuntimeError, match="400.*APs"):
            client.localize(np.zeros((1, 3)), model="knn")

    def test_non_finite_fingerprint_is_400(self, client, tiny_campaign):
        features = tiny_campaign.test_for("S7").features[:2].copy()
        features[1, 0] = np.nan
        with pytest.raises(RuntimeError, match=r"400.*NaN or infinite.*rows \[1\]"):
            client.localize(features, model="knn")

    def test_malformed_json_is_400(self, client):
        request = urllib.request.Request(
            f"{client.base_url}/v1/localize",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_missing_fields_are_400(self, client):
        for payload in ({}, {"model": "knn"}, {"fingerprints": [[0.0]]}):
            request = urllib.request.Request(
                f"{client.base_url}/v1/localize",
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10)
            excinfo.value.close()
            assert excinfo.value.code == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{client.base_url}/v2/teleport", timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 404


class TestIntrospectionEndpoints:
    def test_healthz_schema(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["models"] == 1
        assert "version" in health and "uptime_s" in health
        assert "batching" not in health  # every request is batched

    def test_models_catalog_shares_registry_format(self, client):
        from repro.registry import LOCALIZERS, catalog_document

        document = client.models()
        reference = catalog_document("model", LOCALIZERS.catalog())
        # One envelope format: kind/count/entries with name/tags/summary rows.
        assert set(document) >= set(reference)
        assert document["kind"] == "served-model"
        assert document["count"] == 1
        entry = document["entries"][0]
        assert {"name", "tags", "summary"} <= set(entry)
        assert entry["name"] == "knn"
        assert entry["tags"] == ["prod"]
        assert entry["latest"]["model"] == "KNN"
        assert document["routes"] == {"building-1/knn": "knn@prod"}

    def test_metrics_counts_requests_and_batches(self, client, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        client.localize(test.features, model="knn@prod")
        client.localize(test.features, model="knn@prod")
        metrics = client.metrics()
        endpoint = metrics["gateway"]["endpoints"]["knn@prod"]
        assert endpoint["requests"] == 2
        assert endpoint["fingerprints"] == 2 * test.features.shape[0]
        assert endpoint["latency_ms"]["p50"] is not None
        batching = metrics["batching"]
        assert set(batching) == {"max_batch", "endpoints"}
        assert batching["endpoints"]["knn@prod"]["requests"] == 2
        assert metrics["gateway"]["loaded"] == ["knn@v1"]


class TestKeepAlive:
    def test_client_reuses_one_connection(self, client, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        for _ in range(5):
            client.localize(features[:1], model="knn")
        client.health()
        client.metrics()
        assert client.connections_opened == 1


class TestWarmPath:
    def test_only_an_endpoints_first_request_resolves_it(
        self, published_store, tiny_campaign, monkeypatch
    ):
        """Once an endpoint has a batcher, sync and async requests submit
        straight to it: ``Gateway.service_for`` runs once per endpoint."""
        import asyncio

        from repro.serve.http import ServingApp

        rows = tiny_campaign.test_for("S7").features
        direct = published_store.resolve("knn@prod").localize(rows)
        app = ServingApp(published_store, routes={"building-1/knn": "knn@prod"})
        resolved = []
        service_for = app.gateway.service_for

        def counting_service_for(endpoint):
            resolved.append(endpoint)
            return service_for(endpoint)

        monkeypatch.setattr(app.gateway, "service_for", counting_service_for)

        async def documents():
            return [
                await app.localize_document({"model": "knn@prod", "fingerprints": row})
                for row in rows
            ]

        try:
            sync_labels = [app.localize("building-1/knn", row).labels[0] for row in rows]
            async_labels = [document["labels"][0] for document in asyncio.run(documents())]
        finally:
            app.close()
        assert resolved == ["building-1/knn", "knn@prod"]
        assert sync_labels == async_labels == direct.labels.tolist()


class TestClosedApp:
    def test_localize_after_close_raises_and_starts_no_flusher(
        self, published_store, tiny_campaign
    ):
        """Regression: a request to a closed app built a batcher that nobody
        closed, so its flusher thread outlived the app."""
        from repro.serve.http import ServingApp

        def flushers():
            return {t for t in threading.enumerate() if t.name == "repro-microbatcher"}

        row = tiny_campaign.test_for("S7").features[:1]
        app = ServingApp(published_store)
        app.localize("knn", row)
        app.close()
        before = flushers()
        for endpoint in ("knn", "knn@prod"):
            with pytest.raises(RuntimeError, match="ServingApp is closed"):
                app.localize(endpoint, row)
        assert app._batchers == {}
        assert flushers() <= before


class TestUnbatchedMode:
    def test_direct_mode_is_also_bit_identical(self, published_store, tiny_campaign):
        """``max_batch=1``: every request is its own model call."""
        with AioServerThread(published_store, max_batch=1) as server:
            with ServiceClient(server.base_url) as client:
                test = tiny_campaign.test_for("BLU")
                direct = published_store.resolve("knn").localize(test.features)
                via_http = client.localize(test.features, model="knn", probabilities=True)
                np.testing.assert_array_equal(via_http.labels, direct.labels)
                np.testing.assert_array_equal(via_http.coordinates, direct.coordinates)
                np.testing.assert_array_equal(via_http.error_estimate, direct.error_estimate)
                np.testing.assert_array_equal(via_http.probabilities, direct.probabilities)
                assert client.metrics()["batching"]["max_batch"] == 1
