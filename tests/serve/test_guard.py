"""Serving-side inference guard: endpoint counters, 403 enforcement, provenance."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from contextlib import closing

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.attacks import FGSMAttack, ThreatModel
from repro.defenses import DefenseSpec, FingerprintDetectorDefense, GuardRejectedError
from repro.serve import ModelStore, ServiceClient, ServingApp
from repro.serve.aio.server import AioServerThread


def _guarded_service(tiny_campaign, action: str) -> LocalizationService:
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    service.attach_guard(
        DefenseSpec.create("detector", params={"action": action}),
        dataset=tiny_campaign.train,
    )
    return service


@pytest.fixture(scope="module")
def adversarial_batch(tiny_campaign, trained_dnn) -> np.ndarray:
    """Strongly perturbed fingerprints (ε = 0.5, ø = 100 %) for the detector."""
    test = tiny_campaign.test_for("S7")
    attack = FGSMAttack(ThreatModel(epsilon=0.5, phi_percent=100.0, seed=3))
    return attack.perturb(test.features, test.labels, trained_dnn)


class TestServiceGuard:
    def test_monitor_mode_flags_without_rejecting(self, tiny_campaign, adversarial_batch):
        service = _guarded_service(tiny_campaign, "monitor")
        clean = service.localize(tiny_campaign.test_for("S7").features)
        attacked = service.localize(adversarial_batch)
        assert clean.guard_flags is not None and attacked.guard_flags is not None
        assert attacked.guard_flags.sum() > clean.guard_flags.sum()
        assert attacked.guard_flags.sum() >= len(adversarial_batch) // 2

    def test_reject_mode_raises_with_flagged_rows(self, tiny_campaign, adversarial_batch):
        service = _guarded_service(tiny_campaign, "reject")
        with pytest.raises(GuardRejectedError) as excinfo:
            service.localize(adversarial_batch)
        assert excinfo.value.defense == "detector"
        assert len(excinfo.value.flagged_indices) >= 1

    def test_guard_does_not_change_predictions(self, tiny_campaign):
        guarded = _guarded_service(tiny_campaign, "monitor")
        plain = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        features = tiny_campaign.test_for("S7").features
        np.testing.assert_array_equal(
            guarded.localize(features).labels, plain.localize(features).labels
        )

    def test_guard_survives_save_load(self, tiny_campaign, adversarial_batch, tmp_path):
        service = _guarded_service(tiny_campaign, "monitor")
        restored = LocalizationService.load(service.save(tmp_path / "guarded.npz"))
        assert isinstance(restored.guard, FingerprintDetectorDefense)
        np.testing.assert_array_equal(
            restored.localize(adversarial_batch).guard_flags,
            service.localize(adversarial_batch).guard_flags,
        )

    def test_reject_action_survives_save_load(
        self, tiny_campaign, adversarial_batch, tmp_path
    ):
        """A rejecting guard must not silently degrade to monitor mode."""
        service = _guarded_service(tiny_campaign, "reject")
        restored = LocalizationService.load(service.save(tmp_path / "strict.npz"))
        assert restored.guard.rejects
        assert restored.guard.action == "reject"
        with pytest.raises(GuardRejectedError):
            restored.localize(adversarial_batch)

    def test_fitted_instance_attach_keeps_config(self, tiny_campaign):
        """attach_guard(Defense instance) records the full constructor config."""
        detector = FingerprintDetectorDefense(
            target_fpr=0.05, margin=2.0, action="reject"
        ).fit_guard(tiny_campaign.train)
        service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        service.attach_guard(detector)
        rebuilt = LocalizationService.from_state_arrays(service.state_arrays()).guard
        assert rebuilt.target_fpr == 0.05
        assert rebuilt.margin == 2.0
        assert rebuilt.action == "reject"

    def test_empty_batch_passes_guard(self, tiny_campaign):
        """Empty batches stay valid on guarded services (they were before)."""
        service = _guarded_service(tiny_campaign, "reject")
        result = service.localize(np.empty((0, tiny_campaign.train.num_aps)))
        assert len(result) == 0
        assert result.guard_flags is not None and result.guard_flags.shape == (0,)
        # The (0, 0)-shaped batch the HTTP layer produces for "[]" too.
        assert len(service.localize(np.empty((0, 0)))) == 0


class TestGatewayGuardMetrics:
    """Guard counters per endpoint, as the serving app in front of the
    gateway records them."""

    def test_flagged_counter_accumulates(self, tiny_campaign, adversarial_batch, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.publish(_guarded_service(tiny_campaign, "monitor"), "knn", tags=("prod",))
        with closing(ServingApp(store)) as app:
            app.localize("knn@prod", adversarial_batch)
            stats = app.metrics_document()["gateway"]["endpoints"]["knn@prod"]
        assert stats["guard"]["flagged"] >= 1
        assert stats["guard"]["rejected"] == 0
        assert stats["requests"] == 1

    def test_rejected_counter_and_reraise(self, tiny_campaign, adversarial_batch, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.publish(_guarded_service(tiny_campaign, "reject"), "knn", tags=("prod",))
        with closing(ServingApp(store)) as app:
            with pytest.raises(GuardRejectedError):
                app.localize("knn@prod", adversarial_batch)
            stats = app.metrics_document()["gateway"]["endpoints"]["knn@prod"]
        assert stats["guard"]["rejected"] == 1
        assert stats["guard"]["flagged"] >= 1
        # Guard rejections are their own counter, not generic errors.
        assert stats["errors"] == 0


class TestStoreProvenance:
    def test_manifest_records_defense(self, tiny_campaign, tmp_path):
        store = ModelStore(tmp_path / "store")
        version = store.publish(_guarded_service(tiny_campaign, "monitor"), "knn")
        assert version.defense == "detector"
        assert store.lookup("knn").defense == "detector"
        assert store.inspect("knn")["defense"] == "detector"
        undefended = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
        plain = store.publish(undefended, "knn-plain")
        assert plain.defense == "none"

    def test_resolved_service_keeps_guard(self, tiny_campaign, adversarial_batch, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.publish(_guarded_service(tiny_campaign, "monitor"), "knn", tags=("prod",))
        restored = store.resolve("knn@prod")
        assert restored.defense_name == "detector"
        result = restored.localize(adversarial_batch)
        assert result.guard_flags is not None and result.guard_flags.sum() >= 1


class TestHTTPGuard:
    @pytest.fixture()
    def guarded_server(self, tiny_campaign, tmp_path):
        store = ModelStore(tmp_path / "store")
        store.publish(_guarded_service(tiny_campaign, "monitor"), "knn", tags=("prod",))
        store.publish(_guarded_service(tiny_campaign, "reject"), "knn-strict", tags=("prod",))
        with AioServerThread(store, max_batch=8) as server:
            yield server

    def _post(self, server, payload):
        request = urllib.request.Request(
            f"{server.base_url}/v1/localize",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        return urllib.request.urlopen(request, timeout=10)

    def test_monitor_mode_reports_flagged_indices(
        self, guarded_server, adversarial_batch
    ):
        with self._post(
            guarded_server,
            {"model": "knn", "fingerprints": adversarial_batch.tolist()},
        ) as response:
            document = json.loads(response.read().decode("utf-8"))
        assert document["count"] == len(adversarial_batch)
        assert len(document["guard_flagged"]) >= 1

    def test_reject_mode_is_403_with_flagged_rows(
        self, guarded_server, adversarial_batch
    ):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                guarded_server,
                {"model": "knn-strict", "fingerprints": adversarial_batch.tolist()},
            )
        with excinfo.value as error:
            document = json.loads(error.read().decode("utf-8"))
        assert excinfo.value.code == 403
        assert document["defense"] == "detector"
        assert len(document["flagged"]) >= 1

    def test_metrics_surface_guard_counters(self, guarded_server, adversarial_batch):
        with ServiceClient(guarded_server.base_url) as client:
            client.localize(adversarial_batch, model="knn")
            metrics = client.metrics()
        guard = metrics["gateway"]["endpoints"]["knn"]["guard"]
        assert guard["flagged"] >= 1 and guard["rejected"] == 0

    def test_empty_batch_is_200_on_guarded_endpoint(self, guarded_server):
        with self._post(
            guarded_server, {"model": "knn-strict", "fingerprints": []}
        ) as response:
            document = json.loads(response.read().decode("utf-8"))
        assert document["count"] == 0

    def test_batched_rejection_counted_once(self, guarded_server, adversarial_batch):
        """A rejected request counts once, though its failed batched flush is
        retried alone."""
        expected_flags = int(
            guarded_server.app.gateway.store.resolve("knn-strict")
            .guard.guard(adversarial_batch)
            .num_flagged
        )
        assert expected_flags >= 1
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(
                guarded_server,
                {"model": "knn-strict", "fingerprints": adversarial_batch.tolist()},
            )
        excinfo.value.close()
        assert excinfo.value.code == 403
        with ServiceClient(guarded_server.base_url) as client:
            stats = client.metrics()["gateway"]["endpoints"]["knn-strict"]
        # Exactly once each — the failed batched flush must not pre-count them.
        assert stats["guard"]["rejected"] == 1
        assert stats["guard"]["flagged"] == expected_flags
