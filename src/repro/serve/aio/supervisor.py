"""Multi-process serving: N SO_REUSEPORT acceptor workers + a restart loop.

``repro serve --workers N`` runs N independent asyncio server
processes, every one binding the *same* ``(host, port)`` with
``SO_REUSEPORT`` — the kernel then load-balances accepted connections across
the listening sockets, with no userspace proxy in the path.  Each worker
owns its own gateway/micro-batcher over the **shared on-disk**
:class:`~repro.serve.store.ModelStore`, so a ``repro store promote`` is
observed by every worker through the same manifest-signature watch that
drives single-process hot promote — no coordination channel needed.

The parent process is a pure supervisor: it never accepts traffic, it only
watches its children and respawns any that die (up to ``max_restarts`` per
worker slot, so a crash-looping model cannot fork-bomb the host).  When
``port=0`` is requested, the parent reserves a concrete port first by
*binding* (never listening on) a ``SO_REUSEPORT`` socket — a bound,
non-listening TCP socket is invisible to accept load-balancing, so it
reserves the number without swallowing connections — and hands that port to
every worker.

Workers are started through :func:`repro.spawn.spawn`: serving processes
must not inherit the parent's thread/lock state through ``fork`` (the
gateway and batchers carry live threads and mutexes).  Each starts with a
one-thread BLAS pool, so N workers do not each spin a thread on every core,
and with the supervisor's telemetry: its ``http.request`` and
``serve.batch.flush`` spans land in the supervisor's event log.
"""

from __future__ import annotations

import http.client
import multiprocessing
import signal
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Union

from ...spawn import spawn
from .routing import RouteSpec

__all__ = ["ServeSupervisor", "serve_workers"]


def _worker_entry(config: Dict[str, Any]) -> None:
    """Top-level (picklable) entry point of one acceptor process."""
    from .server import serve_aio

    serve_aio(
        config["store_root"],
        host=config["host"],
        port=config["port"],
        routes=config["routes"],
        reuse_port=True,
        announce=False,
        worker_id=config["worker_id"],
        **config["app_kwargs"],
    )


class ServeSupervisor:
    """Spawn, watch and restart the SO_REUSEPORT worker fleet.

    Parameters
    ----------
    store_root:
        Path of the shared on-disk model store (each worker opens its own
        :class:`ModelStore` over it).
    workers:
        Number of acceptor processes.
    max_restarts:
        Per-worker-slot respawn budget; a slot that exhausts it stays down
        (``alive_workers`` then reports the shrunken fleet).
    app_kwargs:
        Forwarded to every worker's :class:`~repro.serve.http.ServingApp`
        (``max_batch``, ``max_loaded``, ``watch_interval_s``).
    """

    def __init__(
        self,
        store_root: str,
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 2,
        routes: Optional[Mapping[str, Union[str, RouteSpec]]] = None,
        max_restarts: int = 5,
        **app_kwargs,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store_root = str(store_root)
        self.host = host
        self.port = int(port)
        self.workers = int(workers)
        self.routes = dict(routes or {})
        self.max_restarts = int(max_restarts)
        self.app_kwargs = dict(app_kwargs)
        self.restarts = 0
        self._restart_counts: List[int] = [0] * self.workers
        self._processes: List[Optional[multiprocessing.process.BaseProcess]] = (
            [None] * self.workers
        )
        self._reservation: Optional[socket.socket] = None

    # -- lifecycle ------------------------------------------------------
    def _reserve_port(self) -> None:
        """Pick (and hold) a concrete port for ``port=0`` requests."""
        reservation = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        reservation.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        reservation.bind((self.host, 0))
        # Deliberately no listen(): a bound, non-listening socket keeps the
        # port reserved for our SO_REUSEPORT group without ever being
        # eligible to receive connections itself.
        self.port = reservation.getsockname()[1]
        self._reservation = reservation

    def _spawn(self, index: int) -> None:
        config = {
            "store_root": self.store_root,
            "host": self.host,
            "port": self.port,
            "routes": self.routes,
            "worker_id": index,
            "app_kwargs": self.app_kwargs,
        }
        self._processes[index] = spawn(
            _worker_entry, (config,), name=f"repro-serve-worker-{index}", daemon=True
        )

    def start(self) -> "ServeSupervisor":
        if self.port == 0:
            self._reserve_port()
        for index in range(self.workers):
            self._spawn(index)
        return self

    def poll(self) -> int:
        """Respawn dead workers (within budget); returns the live count."""
        alive = 0
        for index, process in enumerate(self._processes):
            if process is None:
                continue
            if process.is_alive():
                alive += 1
                continue
            process.join(timeout=0)
            if self._restart_counts[index] >= self.max_restarts:
                self._processes[index] = None  # slot exhausted its budget
                continue
            self._restart_counts[index] += 1
            self.restarts += 1
            self._spawn(index)
            alive += 1
        return alive

    def alive_workers(self) -> int:
        return sum(
            1 for p in self._processes if p is not None and p.is_alive()
        )

    def wait_until_ready(self, timeout: float = 30.0) -> None:
        """Block until a worker answers ``GET /healthz`` (raises on timeout)."""
        deadline = time.monotonic() + timeout
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                connection = http.client.HTTPConnection(
                    self.host, self.port, timeout=2.0
                )
                try:
                    connection.request("GET", "/healthz")
                    if connection.getresponse().status == 200:
                        return
                finally:
                    connection.close()
            except OSError as error:
                last_error = error
            time.sleep(0.05)
        raise TimeoutError(
            f"no worker answered http://{self.host}:{self.port}/healthz "
            f"within {timeout}s (last error: {last_error})"
        )

    def run_forever(self, poll_interval_s: float = 0.5) -> None:
        """Supervise until interrupted (the blocking CLI loop).

        SIGTERM is translated into a graceful stop: the workers are spawned
        children, so a parent killed without cleanup would orphan a fleet
        still bound to the port via SO_REUSEPORT, silently splitting all
        future traffic with the next ``repro serve``.
        """
        previous_handler: Any = None

        def _on_sigterm(signum, frame):  # noqa: ARG001
            raise KeyboardInterrupt

        try:
            previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
        except ValueError:
            pass  # not the main thread (embedded use); SIGINT still works
        try:
            while True:
                if self.poll() == 0:
                    raise RuntimeError(
                        "every serving worker is down and out of restart budget "
                        f"({self.max_restarts} restarts/worker)"
                    )
                time.sleep(poll_interval_s)
        except KeyboardInterrupt:
            pass
        finally:
            if previous_handler is not None:
                signal.signal(signal.SIGTERM, previous_handler)
            self.stop()

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the fleet within ``timeout`` seconds.

        Each worker gets SIGTERM, on which it drains, closes its telemetry
        sink and exits; one still running at the deadline is killed, so a
        stuck drain cannot leave a fleet member bound to the port.
        """
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
        deadline = time.monotonic() + timeout
        for process in self._processes:
            if process is not None:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
                if process.is_alive():
                    process.kill()
                    process.join()
        if self._reservation is not None:
            self._reservation.close()
            self._reservation = None

    def __enter__(self) -> "ServeSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_workers(
    store_root: str,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    routes: Optional[Mapping[str, Union[str, RouteSpec]]] = None,
    announce: bool = True,
    **app_kwargs,
) -> None:
    """Blocking multi-process entry point (``repro serve --workers N``)."""
    supervisor = ServeSupervisor(
        store_root, host=host, port=port, workers=workers, routes=routes, **app_kwargs
    )
    supervisor.start()
    if announce:
        print(
            f"repro serve (aio): {workers} workers on "
            f"http://{supervisor.host}:{supervisor.port} (SO_REUSEPORT)"
        )
        print(f"  store: {store_root}")
    supervisor.run_forever()
