"""Spawned workers follow their parent's telemetry settings.

Every child the repo starts goes through :func:`repro.spawn.spawn`: with
telemetry off in the parent nothing is logged in the children, and with an
event-log directory configured in the parent the children log there.  One
test per way the CLI spawns children: ``repro queue work --workers N``,
``repro run --jobs N`` and ``repro serve --workers N``; and stopped serving
workers close their sinks, so their last spans are not lost.
"""

from __future__ import annotations

import os
import socket
import time
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, LocalizationService
from repro.eval.engine import ArtifactCache
from repro.obs import events
from repro.queue import RunLedger
from repro.reproduce import main
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.supervisor import ServeSupervisor

#: One cheap model on one device and one attack point: a few plan units.
TINY_RUN = ["--models", "KNN", "--devices", "OP3", "--methods", "FGSM",
            "--epsilons", "0.3", "--phis", "50"]


def _worker_spans(log_dir: Path, name: str, **attrs) -> list:
    """Spans called ``name`` that processes other than this one logged."""
    if not log_dir.exists():
        return []
    return [
        record
        for record in events.read_events(log_dir, kind="span")
        if record["name"] == name
        and record["pid"] != os.getpid()
        and all(record["attrs"].get(key) == value for key, value in attrs.items())
    ]


def test_no_telemetry_reaches_spawned_queue_workers(tmp_path, capsys):
    spec = ExperimentSpec(models=("KNN",), devices=("OP3",), attack_methods=("FGSM",),
                          epsilons=(0.3,), phi_percents=(50.0,))
    ledger = RunLedger.submit(spec, ArtifactCache(tmp_path))
    assert main(["queue", "work", ledger.run_id, "--workers", "2", "--no-telemetry",
                 "--cache-dir", str(tmp_path)]) == 0
    assert ledger.is_complete(ledger.states())
    assert not (tmp_path / "telemetry").exists()


def test_jobs_workers_log_where_the_parent_logs(tmp_path, monkeypatch, capsys):
    # --no-cache drains through a throwaway cache; the workers' events must
    # land in the parent's event log, not in that cache.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    assert main(["run", *TINY_RUN, "--jobs", "2", "--no-cache"]) == 0
    assert _worker_spans(tmp_path / "telemetry", "queue.unit"), (
        "no queue.unit span from a worker reached the parent's log"
    )


@pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT")
def test_serving_workers_log_where_the_supervisor_logs(tmp_path, tiny_campaign):
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    log_dir = tmp_path / "telemetry"
    events.configure_sink(log_dir)
    query = tiny_campaign.test_for("S7").features[:1]
    requests = 6
    with ServeSupervisor(
        str(store.root), port=0, workers=2, routes={"b1/knn": "knn@prod"}
    ) as supervisor:
        supervisor.wait_until_ready(timeout=120.0)
        for _ in range(requests):
            with ServiceClient(f"http://127.0.0.1:{supervisor.port}") as client:
                client.localize(query, model="b1/knn")
        # A worker's sink appends what it logged every 50 ms, so the spans
        # reach the log while the workers run.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            served = _worker_spans(log_dir, "http.request", path="/v1/localize")
            if len(served) >= requests:
                break
            time.sleep(0.05)
    assert len(served) == requests
    assert _worker_spans(log_dir, "serve.batch.flush")


@pytest.mark.skipif(not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT")
def test_stopped_serving_workers_keep_their_last_spans(tmp_path, tiny_campaign):
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    log_dir = tmp_path / "telemetry"
    events.configure_sink(log_dir)
    query = tiny_campaign.test_for("S7").features[:1]
    requests = 200
    with ServeSupervisor(
        str(store.root), port=0, workers=2, routes={"b1/knn": "knn@prod"}
    ) as supervisor:
        supervisor.wait_until_ready(timeout=120.0)
        for _ in range(requests):
            with ServiceClient(f"http://127.0.0.1:{supervisor.port}") as client:
                client.localize(query, model="b1/knn")
    # Leaving the block stops the fleet with SIGTERM: each worker's loop
    # stops, and its sink appends what it had queued before the worker exits.
    served = _worker_spans(log_dir, "http.request", path="/v1/localize")
    assert len(served) == requests
