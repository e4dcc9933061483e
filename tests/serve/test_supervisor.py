"""Tests for the SO_REUSEPORT multi-process serving supervisor."""

from __future__ import annotations

import multiprocessing
import signal
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.serve import ModelStore, ServiceClient
from repro.serve.aio.supervisor import ServeSupervisor


def _reuseport_supported() -> bool:
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False


pytestmark = pytest.mark.skipif(
    not _reuseport_supported(), reason="SO_REUSEPORT not supported on this platform"
)


@pytest.fixture()
def published_store(tiny_campaign, tmp_path) -> ModelStore:
    store = ModelStore(tmp_path / "store")
    service = LocalizationService("KNN", params={"k": 3}).fit(tiny_campaign.train)
    store.publish(service, "knn", tags=("prod",))
    return store


@pytest.fixture()
def supervisor(published_store):
    with ServeSupervisor(
        str(published_store.root),
        port=0,
        workers=2,
        routes={"b1/knn": "knn@prod"},
    ) as supervisor:
        supervisor.wait_until_ready(timeout=120.0)
        yield supervisor


class TestServeSupervisor:
    def test_workers_share_the_port_and_serve_identically(
        self, supervisor, published_store, tiny_campaign
    ):
        features = tiny_campaign.test_for("S7").features
        direct = published_store.resolve("knn@prod").localize(features)
        workers_seen = set()
        # Fresh connection per request: the kernel balances accepts across
        # the SO_REUSEPORT listeners, so both workers eventually answer.
        deadline = time.monotonic() + 120.0
        while len(workers_seen) < 2 and time.monotonic() < deadline:
            with ServiceClient(f"http://127.0.0.1:{supervisor.port}") as client:
                result = client.localize(features, model="b1/knn")
                assert result.labels.tobytes() == np.asarray(direct.labels).tobytes()
                workers_seen.add(client.health()["worker"])
        assert workers_seen == {0, 1}
        assert supervisor.alive_workers() == 2

    def test_dead_worker_is_respawned_within_budget(
        self, supervisor, tiny_campaign
    ):
        features = tiny_campaign.test_for("S7").features
        supervisor._processes[0].terminate()
        supervisor._processes[0].join(timeout=30.0)
        assert supervisor.poll() >= 1  # respawn happens inside poll()
        assert supervisor.restarts == 1
        supervisor.wait_until_ready(timeout=120.0)
        assert supervisor.alive_workers() == 2
        with ServiceClient(f"http://127.0.0.1:{supervisor.port}") as client:
            assert client.localize(features, model="b1/knn").labels.shape == (
                features.shape[0],
            )

    def test_restart_budget_is_per_slot(self, published_store):
        supervisor = ServeSupervisor(
            str(published_store.root), port=0, workers=1, max_restarts=0
        )
        supervisor.start()
        try:
            supervisor.wait_until_ready(timeout=120.0)
            supervisor._processes[0].terminate()
            supervisor._processes[0].join(timeout=30.0)
            assert supervisor.poll() == 0  # budget exhausted: no respawn
            assert supervisor.restarts == 0
        finally:
            supervisor.stop()

    def test_stop_kills_a_worker_that_ignores_sigterm(self, published_store):
        # A worker whose drain hangs must not outlive stop(): it would keep
        # the SO_REUSEPORT port bound.
        context = multiprocessing.get_context("spawn")
        ready = context.Event()
        stuck = context.Process(
            target=exec,
            args=(
                "import signal, time\n"
                "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
                "ready.set()\n"
                "time.sleep(60)\n",
                {"ready": ready},
            ),
            daemon=True,
        )
        stuck.start()
        assert ready.wait(30)
        supervisor = ServeSupervisor(str(published_store.root), port=0, workers=1)
        supervisor._processes[0] = stuck
        started = time.monotonic()
        supervisor.stop(timeout=0.5)
        assert time.monotonic() - started < 10
        assert stuck.exitcode == -signal.SIGKILL

    def test_workers_validated(self, published_store):
        with pytest.raises(ValueError):
            ServeSupervisor(str(published_store.root), workers=0)

    def test_sigterm_reaps_the_worker_fleet(self, published_store):
        # An orphaned SO_REUSEPORT fleet would keep the port bound and
        # silently split traffic with the next `repro serve`; SIGTERM on
        # the CLI supervisor must take the workers down with it.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(published_store.root),
                "--workers", "2", "--port", str(port),
                "--route", "b1/knn=knn@prod",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                try:
                    with ServiceClient(f"http://127.0.0.1:{port}") as client:
                        client.health()
                    break
                except OSError:
                    time.sleep(0.2)
            else:
                pytest.fail("supervised server never came up")
            process.terminate()  # SIGTERM, not SIGKILL: graceful path
            process.wait(timeout=30.0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                        pass
                except OSError:
                    return  # nothing listening: the fleet died with the parent
                time.sleep(0.2)
            pytest.fail("workers still accepting after the parent's SIGTERM")
        finally:
            if process.poll() is None:
                process.kill()
