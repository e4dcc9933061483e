"""Serving-layer observability: Prometheus exposition, connection lifecycle
metrics and pre-resolution request counting on the HTTP front end."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

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
def base_url(running_server) -> str:
    return running_server.base_url


def _get(url: str):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.headers, response.read()


def _post_localize(url: str, payload: dict) -> int:
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        f"{url}/v1/localize", data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status
    except urllib.error.HTTPError as error:
        error.close()
        return error.code


class TestPrometheusExposition:
    def test_stdlib_prometheus_content_negotiation(self, base_url, tiny_campaign):
        """A plain stdlib ``urllib`` client (one connection per request) gets
        the exposition on ``?format=prometheus`` and JSON otherwise."""
        features = tiny_campaign.test_for("S7").features[:2].tolist()
        assert _post_localize(base_url, {"model": "knn", "fingerprints": features}) == 200

        status, headers, body = _get(f"{base_url}/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{transport="aio",endpoint="knn"} 1' in text
        # Gateway endpoint stats share the app registry and appear alongside.
        assert "repro_endpoint_requests_total" in text

        # The default /metrics stays the JSON document.
        status, headers, body = _get(f"{base_url}/metrics")
        assert headers["Content-Type"].startswith("application/json")
        document = json.loads(body)
        assert "gateway" in document and "server" in document

    def test_aio_prometheus_content_negotiation(self, base_url, tiny_campaign):
        """Requests on one persistent ``ServiceClient`` connection are each
        counted once in the exposition."""
        features = tiny_campaign.test_for("S7").features[:2]
        with ServiceClient(base_url) as client:
            for _ in range(3):
                client.localize(features, model="knn")

        status, headers, body = _get(f"{base_url}/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode()
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'repro_http_requests_total{transport="aio",endpoint="knn"} 3' in text

    def test_prometheus_document_parses_cleanly(self, base_url):
        _get(f"{base_url}/healthz")
        _, _, body = _get(f"{base_url}/metrics?format=prometheus")
        families = set()
        for line in body.decode().splitlines():
            assert line, "exposition must not contain blank lines"
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram")
                assert name not in families, "metric family repeated"
                families.add(name)
            elif not line.startswith("#"):
                name_and_labels, _, value = line.rpartition(" ")
                assert name_and_labels
                float(value)  # every sample value is a number
        assert "repro_http_connections_accepted_total" in families


class TestRequestAccounting:
    def test_unknown_model_counted_before_resolution(self, base_url, running_server):
        """404s must be attributed to the *requested* endpoint — the gateway
        never creates stats for unknown models, so the HTTP layer counts."""
        status = _post_localize(
            base_url, {"model": "no-such-model", "fingerprints": [[0.0]]}
        )
        assert status == 404
        document = running_server.app.metrics_document()
        server_doc = document["server"]
        assert server_doc["requests"]["aio"]["no-such-model"] == 1
        assert server_doc["responses"]["aio"]["no-such-model"]["404"] == 1
        # The gateway's per-endpoint stats stay orphan-free.
        assert "no-such-model" not in document["gateway"]["endpoints"]

    def test_aio_unknown_model_counted_before_resolution(self, running_server):
        """On a persistent connection the 404 for an unknown model is counted
        against the requested name, and the connection keeps serving."""
        with ServiceClient(running_server.base_url) as client:
            with pytest.raises(RuntimeError, match="failed with 404"):
                client.localize([[0.0]], model="ghost")
            client.models()  # same connection, after the 404
        server_doc = running_server.app.server_document()
        assert server_doc["requests"]["aio"]["ghost"] == 1
        assert server_doc["responses"]["aio"]["ghost"]["404"] == 1
        assert server_doc["connections"]["aio"]["keepalive_reuses"] >= 1

    def test_undecodable_body_counted_against_path(self, base_url, running_server):
        """A body that cannot be decoded has no requested endpoint yet — the
        error is attributed to the request path itself."""
        request = urllib.request.Request(
            f"{base_url}/v1/localize", data=b"not json{",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 400
        server_doc = running_server.app.server_document()
        assert server_doc["responses"]["aio"]["/v1/localize"]["400"] == 1

    def test_payload_without_model_counted_as_invalid(self, base_url, running_server):
        status = _post_localize(base_url, {"fingerprints": [[0.0]]})
        assert status in (400, 404)
        server_doc = running_server.app.server_document()
        assert server_doc["requests"]["aio"]["_invalid"] == 1


class TestConnectionLifecycle:
    def test_connections_accepted_and_closed(self, base_url, running_server):
        for _ in range(3):
            _get(f"{base_url}/healthz")
        connections = running_server.app.server_document()["connections"]["aio"]
        assert connections["accepted"] >= 3
        assert connections["closed"] + connections["active"] == connections["accepted"]

    def test_aio_keepalive_reuse_is_counted(self, running_server, tiny_campaign):
        features = tiny_campaign.test_for("S7").features[:1]
        with ServiceClient(running_server.base_url) as client:
            for _ in range(4):  # one persistent connection, four requests
                client.localize(features, model="knn")
        connections = running_server.app.server_document()["connections"]["aio"]
        assert connections["accepted"] >= 1
        assert connections["keepalive_reuses"] >= 3

    def test_isolated_apps_do_not_share_counters(self, published_store):
        """Two ServingApps in one process must not see each other's traffic."""
        from repro.serve.http import ServingApp

        first = ServingApp(published_store)
        second = ServingApp(published_store)
        first.record_http_request("knn")
        assert second.server_document()["requests"] == {}
        first.close()
        second.close()
