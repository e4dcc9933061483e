"""Multi-tenant request router over a :class:`~repro.serve.store.ModelStore`.

The :class:`Gateway` is the serving-side counterpart of the store: tenants
address models by *endpoint* — either an explicit route registered with
:meth:`Gateway.add_route` (``"building-1/calloc" -> "calloc@prod"``) or a
store reference used directly (``"calloc@prod"``).  Services are loaded
lazily on first request, once however many requests ask at the same time,
and kept in a bounded LRU (so a gateway serving dozens of buildings × models
holds only the hot ones in memory).  The gateway counts no requests:
:class:`~repro.serve.http.ServingApp` records each one where it enters and
leaves.

Routing never changes predictions: ``gateway.localize(endpoint, batch)`` is
bit-identical to ``store.resolve(ref).localize(batch)``.

Mutable references (``"calloc"``, ``"calloc@prod"``, ``"calloc@latest"``) are
**pinned** to the immutable version they currently select (``"calloc@v2"``)
and the pin is re-validated against the store's manifest signature — so a
``repro store promote`` (or a new publish) hot-swaps what an endpoint serves
with no restart, while every response still comes from exactly one immutable
version (in-flight requests are never torn across versions: the service
object they hold is immutable).
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from .store import ModelStore

if TYPE_CHECKING:  # pragma: no cover
    from ..api import LocalizationResult, LocalizationService

__all__ = ["Gateway", "LATENCY_WINDOW", "percentile"]

#: Selectors that name one immutable version forever (``@v2`` / ``@2``) —
#: refs using them never need re-validation against the manifest.
_VERSION_SELECTOR_RE = re.compile(r"v?\d+")

#: Recent request latencies kept for an exact p50/p99 by each endpoint's
#: stats and each shadow-route arm (bounds ``/metrics`` memory; the counters
#: see every request).
LATENCY_WINDOW = 1024


def percentile(samples: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample list."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


def _ms(seconds: Optional[float]) -> Optional[float]:
    """Seconds as the milliseconds ``GET /metrics`` reports (None passes)."""
    return round(seconds * 1000.0, 4) if seconds is not None else None


@dataclass
class _Pin:
    """What a (possibly mutable) store ref currently resolves to."""

    #: Immutable version ref (``"calloc@v2"``) — also the LRU key.
    version_ref: str
    #: Model name the ref addresses (the manifest watched for changes).
    name: str
    #: Tag/latest refs can move; ``name@vN`` refs are pinned forever.
    mutable: bool
    #: Manifest signature the pin was validated against (may be one write
    #: stale — see :meth:`Gateway._pin` — which only costs one extra lookup).
    signature: Optional[Tuple[int, int]]
    #: ``time.monotonic()`` of the last validation (throttles the stat poll).
    checked: float


class Gateway:
    """Routes ``(endpoint, batch)`` requests to lazily-loaded store services.

    It routes, pins and loads; it counts no requests (the serving app in
    front of it records each one once).

    Parameters
    ----------
    store:
        The :class:`ModelStore` references are resolved against.
    max_loaded:
        LRU capacity: at most this many loaded services are kept in memory;
        the least-recently-used one is evicted when a new endpoint loads.
    routes:
        Optional initial ``endpoint -> store ref`` mapping.
    watch_interval_s:
        How long a validated pin of a *mutable* ref (tag/``latest``) is
        trusted before the manifest signature is re-checked.  ``0`` (the
        default) re-checks on every request — one ``stat`` call, cheap next
        to inference — so promotes take effect immediately; raise it to
        bound the poll rate on very hot endpoints.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` the load, eviction
        and promotion counters live in.  Defaults to a private registry so
        independent gateways never share counts; the serving app passes its
        own so everything it serves reports into one store.
    """

    def __init__(
        self,
        store: ModelStore,
        max_loaded: int = 8,
        routes: Optional[Mapping[str, str]] = None,
        watch_interval_s: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_loaded < 1:
            raise ValueError("max_loaded must be >= 1")
        self.store = store
        self.max_loaded = int(max_loaded)
        self.watch_interval_s = float(watch_interval_s)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._routes: Dict[str, str] = dict(routes or {})
        #: Pinned immutable version behind each requested ref.
        self._pins: Dict[str, _Pin] = {}
        #: version ref -> loaded service, in LRU order (most recent last).
        self._loaded: "OrderedDict[str, LocalizationService]" = OrderedDict()
        #: version ref -> the one load in flight for it (single-flight).
        self._loading: "Dict[str, Future[LocalizationService]]" = {}
        self._lock = threading.Lock()
        self._loads = self.registry.counter(
            "repro_gateway_loads_total", "Services loaded into the LRU"
        ).labels()
        self._evictions = self.registry.counter(
            "repro_gateway_evictions_total", "Services evicted from the LRU"
        ).labels()
        #: Times a watched mutable ref re-resolved to a different version.
        self._promotions = self.registry.counter(
            "repro_gateway_promotions_total",
            "Watched refs that re-resolved to a new version",
        ).labels()

    # -- routing --------------------------------------------------------
    def add_route(self, endpoint: str, ref: str) -> None:
        """Map a tenant-facing endpoint name to a store reference."""
        with self._lock:
            self._routes[endpoint] = ref

    def routes(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._routes)

    def resolve_endpoint(self, endpoint: str) -> str:
        """The store reference an endpoint routes to (identity when unrouted)."""
        with self._lock:
            return self._routes.get(endpoint, endpoint)

    def endpoints(self) -> List[str]:
        """Every addressable endpoint: explicit routes + published models."""
        with self._lock:
            explicit = set(self._routes)
        return sorted(explicit | set(self.store.list_models()))

    # -- service loading ------------------------------------------------
    def _pin(self, ref: str) -> str:
        """The immutable version ref (``name@vN``) behind ``ref``, watched.

        Immutable refs pin once and are trusted forever.  Mutable refs
        (bare name / tag / ``@latest``) are re-validated against the store's
        manifest signature — one ``stat`` call — and re-resolved exactly when
        a publish/promote replaced the manifest, which is how ``repro store
        promote`` swaps a live endpoint with no restart.
        """
        name, _, selector = str(ref).partition("@")
        mutable = not (selector and _VERSION_SELECTOR_RE.fullmatch(selector))
        now = time.monotonic()
        with self._lock:
            pin = self._pins.get(ref)
            if pin is not None and (
                not pin.mutable
                or (self.watch_interval_s > 0 and now - pin.checked < self.watch_interval_s)
            ):
                return pin.version_ref
        # Signature and lookup both happen outside the lock (file I/O).  The
        # signature is read *before* the lookup: if a promote lands between
        # the two, we may cache the pre-promote signature with the
        # post-promote version — the next validation then sees a "changed"
        # signature and re-looks-up, converging in one extra cheap round
        # rather than ever serving a stale pin as fresh.
        signature = self.store.manifest_signature(name) if mutable else None
        if mutable:
            with self._lock:
                pin = self._pins.get(ref)
                if pin is not None and pin.signature == signature:
                    pin.checked = now
                    return pin.version_ref
        version = self.store.lookup(ref)
        with self._lock:
            pin = self._pins.get(ref)
            if pin is not None and pin.version_ref != version.ref:
                self._promotions.inc()
            self._pins[ref] = _Pin(
                version_ref=version.ref,
                name=name,
                mutable=mutable,
                signature=signature,
                checked=now,
            )
            return version.ref

    def resolved_version(self, endpoint: str) -> str:
        """The immutable version ref ``endpoint`` currently serves."""
        return self._pin(self.resolve_endpoint(endpoint))

    def service_for(self, endpoint: str) -> "LocalizationService":
        """The loaded service behind ``endpoint`` (lazy load + LRU update)."""
        return self._service_for_ref(self._pin(self.resolve_endpoint(endpoint)))

    def _service_for_ref(self, ref: str) -> "LocalizationService":
        """The loaded service behind an already-pinned immutable ref.

        Single-flight: the first request for a ref that is not loaded starts
        the load, and concurrent requests for that ref wait on it instead of
        decoding the service again.  A failed load is cached nowhere: it
        raises in every waiter, and the next request retries.
        """
        with self._lock:
            service = self._loaded.get(ref)
            if service is not None:
                self._loaded.move_to_end(ref)
                return service
            pending = self._loading.get(ref)
            if pending is None:
                load: "Future[LocalizationService]" = Future()
                self._loading[ref] = load
        if pending is not None:
            return pending.result()
        # Resolve outside the lock: store I/O may be slow and must not block
        # requests for already-loaded endpoints.  ``ref`` is an immutable
        # version ref, so a concurrent promote cannot change what it loads.
        try:
            service = self.store.resolve(ref)
        except BaseException as error:
            with self._lock:
                del self._loading[ref]
            load.set_exception(error)
            raise
        with self._lock:
            del self._loading[ref]
            self._loaded[ref] = service
            self._loads.inc()
            while len(self._loaded) > self.max_loaded:
                self._loaded.popitem(last=False)
                self._evictions.inc()
        load.set_result(service)
        return service

    def loaded_refs(self) -> List[str]:
        """Refs currently resident, least-recently-used first."""
        with self._lock:
            return list(self._loaded)

    # Registry-backed lifecycle counter views (same ints as before).
    @property
    def loads(self) -> int:
        return int(self._loads.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def promotions(self) -> int:
        return int(self._promotions.value)

    # -- serving --------------------------------------------------------
    def localize(self, endpoint: str, batch) -> "LocalizationResult":
        """Route one localize call; bit-identical to the direct service call.

        Services carrying an inference guard (published from defended
        training, see :mod:`repro.defenses`) are screened inside
        ``service.localize``.  The result is stamped with the immutable
        version that scored it.
        """
        ref = self._pin(self.resolve_endpoint(endpoint))
        result = self._service_for_ref(ref).localize(batch)
        # Stamp the version that actually scored the batch: reading the pin
        # again after the fact could race a concurrent promote and report a
        # version the labels did not come from.
        result.served_ref = ref
        return result

    # -- introspection --------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Routing and LRU state: the ``gateway`` section of ``GET /metrics``
        apart from its per-endpoint request stats."""
        with self._lock:
            loaded = list(self._loaded)
            routes = dict(self._routes)
            resolved = {ref: pin.version_ref for ref, pin in self._pins.items()}
        return {
            "loaded": loaded,
            "loads": self.loads,
            "evictions": self.evictions,
            "max_loaded": self.max_loaded,
            "promotions": self.promotions,
            "routes": routes,
            "resolved": resolved,
            "store": {
                "root": str(self.store.root),
                "models": self.store.list_models(),
                "artifact_cache": self.store.artifacts.stats.as_dict(),
            },
        }

    def __repr__(self) -> str:
        return (
            f"Gateway(store={self.store!r}, max_loaded={self.max_loaded}, "
            f"loaded={len(self._loaded)})"
        )
