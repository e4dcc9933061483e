"""Integration tests for the asyncio serving front end (``repro.serve.aio``)."""

from __future__ import annotations

import json
import socket
import threading

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.protocol import CONTENT_MSGPACK, CONTENT_NDARRAY, msgpack_available
from repro.serve.aio.server import AioServerThread


@pytest.fixture()
def published_store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    return store


@pytest.fixture()
def aio_server(published_store):
    with AioServerThread(
        published_store,
        routes={"building-1/knn": "knn@prod"},
        max_batch=8,
    ) as server:
        yield server


@pytest.fixture()
def client(aio_server) -> ServiceClient:
    with ServiceClient(aio_server.base_url) as client:
        yield client


def _exchange_until_close(port: int, request: bytes) -> bytes:
    """Send raw request bytes; return everything read until the server closes."""
    blob = b""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:  # closed with our bytes still unread
                return blob
            if not chunk:
                return blob
            blob += chunk


class TestBitIdentity:
    def test_json_bodies_match_direct_service(self, client, published_store, tiny_campaign):
        test = tiny_campaign.test_for("S7")
        direct = published_store.resolve("knn@prod").localize(test.features)
        via_http = client.localize(test.features, model="knn@prod", probabilities=True)
        np.testing.assert_array_equal(via_http.labels, direct.labels)
        np.testing.assert_array_equal(via_http.coordinates, direct.coordinates)
        np.testing.assert_array_equal(via_http.error_estimate, direct.error_estimate)
        np.testing.assert_array_equal(via_http.probabilities, direct.probabilities)

    def test_binary_bodies_match_direct_service(
        self, aio_server, published_store, tiny_campaign
    ):
        test = tiny_campaign.test_for("S7")
        direct = published_store.resolve("knn@prod").localize(test.features)
        with ServiceClient(aio_server.base_url, content_type=CONTENT_NDARRAY) as client:
            via_http = client.localize(test.features, model="knn@prod")
        assert via_http.labels.tobytes() == np.asarray(direct.labels).tobytes()
        assert via_http.coordinates.tobytes() == direct.coordinates.tobytes()

    @pytest.mark.skipif(not msgpack_available(), reason="msgpack not installed")
    def test_msgpack_bodies_match_direct_service(
        self, aio_server, published_store, tiny_campaign
    ):
        test = tiny_campaign.test_for("S7")
        direct = published_store.resolve("knn@prod").localize(test.features)
        with ServiceClient(aio_server.base_url, content_type=CONTENT_MSGPACK) as client:
            via_http = client.localize(test.features, model="knn@prod")
        np.testing.assert_array_equal(via_http.labels, direct.labels)

    def test_routes_flat_and_empty_requests(self, client, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        for endpoint in ("knn", "knn@prod", "knn@v1", "building-1/knn"):
            assert client.localize(features[:2], model=endpoint).labels.shape == (2,)
        assert client.localize(features[0], model="knn").labels.shape == (1,)
        empty = np.empty((0, tiny_campaign.train.num_aps))
        assert client.localize(empty, model="knn").labels.shape == (0,)


class TestKeepAliveAndPipelining:
    def test_connection_is_reused(self, client, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        for _ in range(5):
            client.localize(features[:1], model="knn")
        client.health()
        client.metrics()
        assert client.connections_opened == 1

    def test_pipelined_requests_answered_in_order(self, aio_server):
        request = (
            f"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            f"GET /v1/models HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        ).encode()
        # Both requests in one write, no read between.
        text = _exchange_until_close(aio_server.port, request).decode()
        assert text.count("HTTP/1.1 200") == 2
        first, second = text.split("HTTP/1.1 200")[1:]
        assert '"status": "ok"' in first
        assert '"served-model"' in second

    def test_response_content_type_mirrors_request(self, aio_server, tiny_campaign):
        features = tiny_campaign.test_for("S7").features[:1]
        with ServiceClient(aio_server.base_url, content_type=CONTENT_NDARRAY) as client:
            result = client.localize(features, model="knn")
        assert result.labels.shape == (1,)


class TestErrorMapping:
    def _post(self, server, body: bytes, content_type: str) -> int:
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/localize", body=body, headers={"Content-Type": content_type}
            )
            response = connection.getresponse()
            response.read()
            return response.status
        finally:
            connection.close()

    def test_unknown_model_is_404(self, client, tiny_campaign):
        with pytest.raises(RuntimeError, match="404"):
            client.localize(tiny_campaign.test_for("S7").features, model="ghost@prod")

    def test_wrong_ap_count_is_400(self, client):
        with pytest.raises(RuntimeError, match="400.*APs"):
            client.localize(np.zeros((1, 3)), model="knn")

    def test_non_finite_fingerprint_is_400(self, aio_server, tiny_campaign):
        features = tiny_campaign.test_for("S7").features[:2].copy()
        features[0, 3] = np.inf
        with ServiceClient(aio_server.base_url, content_type=CONTENT_NDARRAY) as client:
            with pytest.raises(RuntimeError, match=r"400.*NaN or infinite.*rows \[0\]"):
                client.localize(features, model="knn")

    def test_malformed_json_is_400(self, aio_server):
        assert self._post(aio_server, b"{not json", "application/json") == 400

    def test_missing_fields_are_400(self, aio_server):
        for payload in ({}, {"model": "knn"}, {"fingerprints": [[0.0]]}):
            status = self._post(
                aio_server, json.dumps(payload).encode(), "application/json"
            )
            assert status == 400

    def test_unsupported_content_type_is_415(self, aio_server):
        assert self._post(aio_server, b"a,b\n1,2", "text/csv") == 415

    @pytest.mark.skipif(msgpack_available(), reason="msgpack installed")
    def test_msgpack_without_library_is_415(self, aio_server):
        assert self._post(aio_server, b"\x81", CONTENT_MSGPACK) == 415

    def test_unknown_path_is_404(self, aio_server):
        import urllib.error
        import urllib.request

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{aio_server.base_url}/v2/teleport", timeout=10)
        excinfo.value.close()
        assert excinfo.value.code == 404

    def test_oversized_header_is_431(self, aio_server):
        request = (
            "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + "a" * (80 * 1024) + "\r\n\r\n"
        ).encode()
        with socket.create_connection(("127.0.0.1", aio_server.port), timeout=10) as sock:
            sock.sendall(request)
            blob = sock.recv(65536)
        assert b"431" in blob.split(b"\r\n", 1)[0]
        # The request line never parsed, so the rejection has no path label.
        server_doc = aio_server.app.server_document()
        assert server_doc["responses"]["aio"]["_malformed"]["431"] == 1

    def test_oversized_body_is_413_and_counted_against_path(self, aio_server):
        blob = _exchange_until_close(
            aio_server.port,
            b"POST /v1/localize HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 999999999999\r\n\r\n",
        )
        assert blob.startswith(b"HTTP/1.1 413 ")
        server_doc = aio_server.app.server_document()
        assert server_doc["requests"]["aio"]["/v1/localize"] == 1
        assert server_doc["responses"]["aio"]["/v1/localize"]["413"] == 1

    def test_chunked_request_gets_one_411_and_closes(self, aio_server):
        body = json.dumps({"model": "knn", "fingerprints": [[0.0] * 8]}).encode()
        blob = _exchange_until_close(
            aio_server.port,
            b"POST /v1/localize HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n"
            + f"{len(body):x}\r\n".encode() + body + b"\r\n0\r\n\r\n",
        )
        # Exactly one response: the chunk bytes are never parsed as a request.
        assert blob.count(b"HTTP/1.1 ") == 1
        assert blob.startswith(b"HTTP/1.1 411 ")
        assert b"Connection: close" in blob
        server_doc = aio_server.app.server_document()
        assert server_doc["responses"]["aio"]["/v1/localize"] == {"411": 1}


class TestIntrospection:
    def test_health_announces_aio_frontend(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["frontend"] == "aio"
        assert "application/x-repro-ndarray" in health["content_types"]

    def test_metrics_shape_matches_stdlib_tier(self, client, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        client.localize(features, model="knn@prod")
        metrics = client.metrics()
        endpoint = metrics["gateway"]["endpoints"]["knn@prod"]
        assert endpoint["requests"] == 1
        assert endpoint["fingerprints"] == features.shape[0]
        assert metrics["gateway"]["loaded"] == ["knn@v1"]
        assert metrics["shadow"] == {}

    def test_connection_is_active_until_its_response_is_written(self, aio_server):
        baseline = aio_server.app.server_document()["connections"]["aio"]["active"]
        blob = _exchange_until_close(
            aio_server.port,
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        head, _, body = blob.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        # The closing connection is still open while its own answer is built.
        assert json.loads(body)["server"]["connections"]["aio"]["active"] >= baseline + 1
        assert aio_server.app.server_document()["connections"]["aio"]["active"] == baseline


class TestShadowRouting:
    def test_mirror_route_populates_shadow_metrics(self, published_store, tiny_campaign):
        routes = {"b1/knn": "knn@prod,shadow=knn@v1,fraction=1.0"}
        features = tiny_campaign.test_for("S7").features
        direct = published_store.resolve("knn@prod").localize(features)
        with AioServerThread(published_store, routes=routes) as server:
            with ServiceClient(server.base_url) as client:
                for _ in range(6):
                    result = client.localize(features, model="b1/knn")
                    # Mirroring must never change what the primary returns.
                    np.testing.assert_array_equal(result.labels, direct.labels)
                server.drain_shadow_tasks(timeout=30.0)
                shadow = client.metrics()["shadow"]["b1/knn"]
        assert shadow["requests"] == 6
        assert shadow["mirrored"] == 6
        assert shadow["shadow_served"] == 0
        assert shadow["shadow_errors"] == 0
        # Same model on both arms: the paired comparison sees zero mismatches.
        assert shadow["label_mismatches"] == 0
        assert shadow["compared"] == shadow["primary"]["fingerprints"]
        assert shadow["shadow"]["fingerprints"] == 6 * features.shape[0]

    def test_split_route_serves_shadow_for_fraction(self, published_store, tiny_campaign):
        routes = {"b1/knn": "knn@prod,shadow=knn@v1,fraction=1.0,policy=split"}
        features = tiny_campaign.test_for("S7").features
        with AioServerThread(published_store, routes=routes) as server:
            with ServiceClient(server.base_url) as client:
                result = client.localize(features, model="b1/knn")
                assert result.labels.shape == (features.shape[0],)
                shadow = client.metrics()["shadow"]["b1/knn"]
        assert shadow["shadow_served"] == 1
        assert shadow["mirrored"] == 0

    def test_models_document_lists_shadow_routes(self, published_store):
        routes = {"b1/knn": "knn@prod,shadow=knn@v1,fraction=0.5"}
        with AioServerThread(published_store, routes=routes) as server:
            with ServiceClient(server.base_url) as client:
                document = client.models()
        assert document["shadow_routes"]["b1/knn"]["shadow"] == "knn@v1"


class _OneShotCloseServer:
    """Accepts connections; closes the first one after a single response.

    Reproduces a server-side idle-timeout drop so the keep-alive client's
    retry path can be exercised deterministically.
    """

    RESPONSE = (
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: 16\r\n\r\n"
        b'{"status": "ok"}'
    )

    def __init__(self) -> None:
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self.requests_served = 0
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _read_request(self, connection) -> bool:
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = connection.recv(65536)
            if not chunk:
                return False
            data += chunk
        return True

    def _serve(self) -> None:
        # First connection: one response, then close (simulated idle drop).
        first, _ = self._listener.accept()
        with first:
            if self._read_request(first):
                first.sendall(self.RESPONSE)
                self.requests_served += 1
        # Second connection: serve until the client hangs up.
        second, _ = self._listener.accept()
        with second:
            while self._read_request(second):
                second.sendall(self.RESPONSE)
                self.requests_served += 1

    def close(self) -> None:
        self._listener.close()


class TestClientRetry:
    def test_client_retries_once_on_idle_close(self):
        server = _OneShotCloseServer()
        try:
            with ServiceClient(f"http://127.0.0.1:{server.port}") as client:
                assert client.health() == {"status": "ok"}
                assert client.connections_opened == 1
                # The server dropped the idle connection after that response;
                # the next call must transparently reconnect and succeed.
                assert client.health() == {"status": "ok"}
                assert client.connections_opened == 2
                # And the fresh connection keeps being reused afterwards.
                assert client.health() == {"status": "ok"}
                assert client.connections_opened == 2
        finally:
            server.close()

    def test_client_rejects_non_http_urls(self):
        with pytest.raises(ValueError):
            ServiceClient("ftp://127.0.0.1:8080")
