"""Production serving layer: versioned model store, gateway, micro-batching, HTTP.

The offline half of the system (curriculum-adversarial training) runs through
the cached parallel engine; this package productizes the *online* half —
localizing live fingerprints at serving scale:

* :mod:`repro.serve.store` — :class:`ModelStore`, a versioned,
  content-addressed registry of fitted :class:`~repro.api.LocalizationService`
  artifacts layered on the engine's
  :class:`~repro.eval.engine.ArtifactCache`; ``publish`` / ``resolve`` /
  ``promote`` turn anonymous cache entries into named deployable models
  (``"calloc@prod"``).
* :mod:`repro.serve.gateway` — :class:`Gateway`, the multi-tenant router
  mapping endpoints to loaded services with lazy, single-flight
  load-on-first-request, version pinning and LRU eviction.
* :mod:`repro.serve.batching` — :class:`MicroBatcher`, a throughput-oriented
  executor that coalesces requests from many callers into one batched
  ``localize`` call (a greedy flusher: whatever queued while the last batch
  computed, up to ``max_batch`` fingerprints) with bit-identical results.
* :mod:`repro.serve.http` — :class:`ServingApp`, the application behind
  the ``repro serve`` API (``POST /v1/localize``, ``GET /v1/models``,
  ``/healthz``, ``/metrics``): gateway, one micro-batcher per endpoint that
  every request goes through, shadow routing, the per-endpoint request
  stats (:class:`EndpointStats`, one count per request however it was
  coalesced) and HTTP accounting; plus the keep-alive
  :class:`ServiceClient`.
* :mod:`repro.serve.aio` — the HTTP front end: asyncio keep-alive/
  pipelined HTTP with binary body codecs, ``SO_REUSEPORT`` multi-process
  workers, manifest-watch hot promote/rollback, and deterministic
  shadow/canary routing with the ``repro store promote --if-canary-ok``
  gate.

Quickstart::

    from repro.serve import ModelStore, serve_aio
    from repro import LocalizationService

    store = ModelStore("./store")
    service = LocalizationService.trained_on("Building 1", "KNN")
    store.publish(service, "knn", tags=("prod",))

    restored = store.resolve("knn@prod")      # bit-identical service
    serve_aio(store, port=8080)               # or: repro serve --store ./store
"""

from .batching import BatchStats, MicroBatcher
from .gateway import Gateway
from .http import EndpointStats, ServiceClient, ServingApp
from .store import ModelStore, ModelVersion, StoreError

__all__ = [
    "ModelStore",
    "ModelVersion",
    "StoreError",
    "Gateway",
    "EndpointStats",
    "MicroBatcher",
    "BatchStats",
    "ServingApp",
    "ServiceClient",
    # asyncio tier (lazy — importing the aio server pulls in asyncio plumbing
    # that plain store/gateway users never need):
    "AioServerThread",
    "RouteSpec",
    "ServeSupervisor",
    "canary_ok",
    "parse_route",
    "serve_aio",
    "serve_workers",
]

_LAZY_AIO = {
    "AioServerThread",
    "RouteSpec",
    "ServeSupervisor",
    "canary_ok",
    "parse_route",
    "serve_aio",
    "serve_workers",
}


def __getattr__(name: str):
    if name in _LAZY_AIO:
        from . import aio

        return getattr(aio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
