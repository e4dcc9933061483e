"""Zero-downtime hot promote: manifest watching under live traffic.

Satellite of the asyncio serving tier: ``repro store promote`` must atomically
swap what an endpoint serves — no dropped requests, no torn responses, and a
byte-identical rollback — while the server keeps running.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import Gateway, ModelStore, ServiceClient
from repro.serve.aio.server import AioServerThread


@pytest.fixture()
def store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    return store


class TestGatewayPinning:
    def test_tag_flip_promotes_without_restart(self, store, tiny_campaign):
        gateway = Gateway(store, watch_interval_s=0.0)
        features = tiny_campaign.test_for("S7").features
        v1_labels = gateway.localize("knn@prod", features).labels
        assert gateway.resolved_version("knn@prod") == "knn@v1"
        assert gateway.promotions == 0

        v2_service = LocalizationService("KNN", params={"k": 1}).fit(tiny_campaign.train)
        store.publish(v2_service, "knn")
        store.promote("knn@v2", "prod")

        v2_labels = gateway.localize("knn@prod", features).labels
        assert gateway.resolved_version("knn@prod") == "knn@v2"
        assert gateway.promotions == 1
        np.testing.assert_array_equal(
            v2_labels, store.resolve("knn@v2").localize(features).labels
        )

        # Rollback restores byte-identical v1 predictions.
        store.promote("knn@v1", "prod")
        rolled_back = gateway.localize("knn@prod", features).labels
        assert gateway.resolved_version("knn@prod") == "knn@v1"
        assert rolled_back.tobytes() == np.asarray(v1_labels).tobytes()

    def test_immutable_refs_never_repin(self, store, tiny_campaign):
        gateway = Gateway(store, watch_interval_s=0.0)
        features = tiny_campaign.test_for("S7").features
        gateway.localize("knn@v1", features)
        store.publish(
            LocalizationService("KNN", params={"k": 1}).fit(tiny_campaign.train), "knn"
        )
        store.promote("knn@v2", "prod")
        gateway.localize("knn@v1", features)
        assert gateway.resolved_version("knn@v1") == "knn@v1"
        assert gateway.promotions == 0

    def test_bare_names_track_latest(self, store, tiny_campaign):
        gateway = Gateway(store, watch_interval_s=0.0)
        features = tiny_campaign.test_for("S7").features
        gateway.localize("knn", features)
        assert gateway.resolved_version("knn") == "knn@v1"
        store.publish(
            LocalizationService("KNN", params={"k": 1}).fit(tiny_campaign.train), "knn"
        )
        gateway.localize("knn", features)
        assert gateway.resolved_version("knn") == "knn@v2"

    def test_stats_expose_resolved_pins(self, store, tiny_campaign):
        gateway = Gateway(store)
        gateway.localize("knn@prod", tiny_campaign.test_for("S7").features)
        stats = gateway.stats()
        assert stats["resolved"] == {"knn@prod": "knn@v1"}
        assert stats["promotions"] == 0


class TestPromoteUnderLoad:
    def test_flip_is_atomic_and_exactly_once(self, store, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        v1_direct = store.resolve("knn@v1").localize(features)
        v2_service = LocalizationService("KNN", params={"k": 1}).fit(tiny_campaign.train)
        expected = {"knn@v1": np.asarray(v1_direct.labels).tobytes()}

        observations = []
        errors = []
        promoted = threading.Event()
        served_after_promote = threading.Event()
        stop = threading.Event()

        def load_loop(base_url: str) -> None:
            with ServiceClient(base_url) as client:
                while not stop.is_set():
                    try:
                        document = client.localize_document(features, model="knn@prod")
                    except Exception as error:  # any failure fails the test
                        errors.append(error)
                        return
                    ref = document["ref"]
                    labels = np.asarray(document["labels"], dtype=np.int64)
                    observations.append((ref, labels.tobytes()))
                    if promoted.is_set() and ref == "knn@v2":
                        served_after_promote.set()

        # watch_interval_s=0: the gateway stats the manifest on every request,
        # so a promote is visible on the very next response.
        with AioServerThread(store, watch_interval_s=0.0) as server:
            worker = threading.Thread(target=load_loop, args=(server.base_url,))
            worker.start()
            try:
                while len(observations) < 10 and worker.is_alive():
                    time.sleep(0.01)  # let v1 traffic accumulate
                version = store.publish(v2_service, "knn")
                expected[version.ref] = np.asarray(
                    store.resolve(version.ref).localize(features).labels
                ).tobytes()
                store.promote(version.ref, "prod")
                promoted.set()
                assert served_after_promote.wait(timeout=60.0)
                stop.set()
            finally:
                stop.set()
                worker.join(timeout=60.0)
            with ServiceClient(server.base_url) as client:
                metrics = client.metrics()

        assert not errors, f"requests failed across the promote: {errors!r}"
        refs = [ref for ref, _ in observations]
        assert set(refs) == {"knn@v1", "knn@v2"}
        # Exactly one flip: v1..v1 v2..v2, never interleaved back.
        flips = sum(1 for a, b in zip(refs, refs[1:]) if a != b)
        assert flips == 1
        assert refs[0] == "knn@v1" and refs[-1] == "knn@v2"
        # No torn responses: every body is byte-identical to its version.
        for ref, labels_bytes in observations:
            assert labels_bytes == expected[ref]
        assert metrics["gateway"]["promotions"] == 1
        assert metrics["gateway"]["resolved"]["knn@prod"] == "knn@v2"

    def test_rollback_is_byte_identical(self, store, tiny_campaign):
        features = tiny_campaign.test_for("S7").features
        with AioServerThread(store, watch_interval_s=0.0) as server:
            with ServiceClient(server.base_url) as client:
                before = client.localize_document(features, model="knn@prod")
                store.publish(
                    LocalizationService("KNN", params={"k": 1}).fit(tiny_campaign.train),
                    "knn",
                )
                store.promote("knn@v2", "prod")
                during = client.localize_document(features, model="knn@prod")
                store.promote("knn@v1", "prod")
                after = client.localize_document(features, model="knn@prod")
        assert before["ref"] == "knn@v1"
        assert during["ref"] == "knn@v2"
        assert after["ref"] == "knn@v1"
        assert after["labels"] == before["labels"]
        assert after["coordinates"] == before["coordinates"]
