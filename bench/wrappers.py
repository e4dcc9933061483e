"""Per-layer tracing from outside the program: wrap public functions in spans.

:func:`install` replaces each function listed in :data:`SITES` with a
wrapper that runs it inside ``repro.obs.trace.span(<layer metric name>)``
and returns a handle whose ``restore()`` puts every original object back
(``is``-identical, including ``classmethod`` descriptors).  Wrappers only
time and count; arguments and results pass through untouched, so traced
runs must produce byte-identical outputs.

Call sites resolve these functions at call time (module globals, class
attributes), which is why patching the defining module is enough — the one
exception, ``repro.queue.worker.execute_unit``, is bound when a
``QueueWorker`` is constructed, so install before creating workers.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

__all__ = ["SITES", "Site", "install", "Installed"]


@dataclass(frozen=True)
class Site:
    """One wrapped function: ``module[.owner].attr`` timed as ``span``."""

    module: str
    owner: Optional[str]
    attr: str
    span: str
    #: Optional ``(args, kwargs, result) -> attrs`` stamped on the span.
    describe: Optional[Callable[..., dict]] = None


def _fit_layer(args: tuple, kwargs: dict) -> Tuple[str, str]:
    from repro.registry import LOCALIZERS

    task = args[0] if args else kwargs["task"]
    module = getattr(LOCALIZERS.get(task.name), "__module__", "")
    return ("core" if module.startswith("repro.core") else "baselines"), task.name


def _craft_rows(args, kwargs, result) -> dict:
    attacks = args[0] if args else kwargs["attacks"]
    features = args[1] if len(args) > 1 else kwargs["features"]
    return {"rows": len(attacks) * len(features)}


def _hit(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _stored_bytes(extension: str):
    def describe(args, kwargs, result) -> dict:
        cache, kind, digest = args[0], args[1], args[2]
        path = cache.path_for(kind, digest, extension)
        return {"bytes": path.stat().st_size if path.exists() else 0}

    return describe


def _acquired(args, kwargs, result) -> dict:
    return {"acquired": bool(result)}


def _renewed(args, kwargs, result) -> dict:
    return {"renewed": bool(result)}


def _rows(args, kwargs, result) -> dict:
    return {"rows": len(result)}


ENGINE = "repro.eval.engine"
LEDGER = "repro.queue.ledger"
PROTOCOL = "repro.serve.aio.protocol"

#: Every wrapped public function and the span that times it.
SITES: Tuple[Site, ...] = (
    Site(ENGINE, None, "simulate_campaign", "data.campaign"),
    Site(ENGINE, None, "train_localizer", "fit"),  # core.fit / baselines.fit
    Site("repro.attacks.surrogate", "SurrogateGradientModel", "fit", "attacks.surrogate"),
    Site(ENGINE, None, "craft_grid", "attacks.craft", _craft_rows),
    Site("repro.interfaces", "Localizer", "evaluate", "eval.score"),
    Site(ENGINE, None, "evaluate_scenario_unit", "eval.scenario"),
    Site(ENGINE, "ArtifactCache", "get_pickle", "eval.cache.get", _hit),
    Site(ENGINE, "ArtifactCache", "get_arrays", "eval.cache.get", _hit),
    Site(ENGINE, "ArtifactCache", "get_either", "eval.cache.get", _hit),
    Site(ENGINE, "ArtifactCache", "put_pickle", "eval.cache.put", _stored_bytes("pkl")),
    Site(ENGINE, "ArtifactCache", "put_arrays", "eval.cache.put", _stored_bytes("npz")),
    Site("repro.reproduce", None, "run_artefact", "eval.artefact"),
    Site(LEDGER, "RunLedger", "submit", "queue.submit"),
    Site(LEDGER, "RunLedger", "transitioned_units", "queue.claim"),
    Site(LEDGER, "RunLedger", "unit_state", "queue.claim"),
    Site(LEDGER, "RunLedger", "read_lease", "queue.claim"),
    Site(LEDGER, "RunLedger", "acquire_lease", "queue.claim", _acquired),
    Site(LEDGER, "RunLedger", "renew_lease", "queue.heartbeat", _renewed),
    Site(LEDGER, "RunLedger", "write_result", "queue.commit"),
    Site(LEDGER, "RunLedger", "mark_done", "queue.commit", lambda *_: {"done": True}),
    Site(LEDGER, "RunLedger", "release_lease", "queue.commit"),
    Site(LEDGER, "RunLedger", "record_failed_attempt", "queue.retry"),
    Site("repro.queue.worker", None, "execute_unit", "queue.execute"),
    Site("repro.queue.worker", "QueueWorker", "run", "queue.worker"),
    Site(PROTOCOL, None, "decode_body", "serve.protocol.decode"),
    Site(PROTOCOL, None, "parse_localize_payload", "serve.protocol.parse"),
    Site(PROTOCOL, None, "build_localize_document", "serve.protocol.build"),
    Site(PROTOCOL, None, "encode_body", "serve.protocol.encode"),
    Site("repro.serve.gateway", "Gateway", "service_for", "serve.gateway.resolve"),
    Site("repro.serve.batching", "MicroBatcher", "submit", "serve.batching.submit"),
    Site("repro.api", "LocalizationService", "localize", "serve.predict", _rows),
)


def _wrap(site: Site, original: Callable, collector) -> Callable:
    from repro.obs import trace

    if site.span == "fit":

        @functools.wraps(original)
        def fit(*args, **kwargs):
            layer, model = _fit_layer(args, kwargs)
            with trace.span(f"{layer}.fit", model=model):
                return original(*args, **kwargs)

        return fit
    if site.span == "serve.batching.submit":
        # The wait spans two threads (submit here, completion on the
        # flusher), so it is counted at its boundaries, not as a span.
        @functools.wraps(original)
        def submit(*args, **kwargs):
            start = time.perf_counter()
            future = original(*args, **kwargs)

            def done(_future) -> None:
                collector.add("serve.batching.requests")
                collector.add("serve.batching.queued_s", time.perf_counter() - start)

            future.add_done_callback(done)
            return future

        return submit

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with trace.span(site.span) as live:
            result = original(*args, **kwargs)
            if site.describe is not None:
                live.set(**site.describe(args, kwargs, result))
            return result

    return wrapper


class Installed:
    """Handle returned by :func:`install`; ``restore()`` undoes every patch."""

    def __init__(self) -> None:
        self._patches: List[Tuple[Any, str, Any]] = []

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


def install(collector) -> Installed:
    """Wrap every site in :data:`SITES`; spans and counts land in ``collector``."""
    handle = Installed()
    try:
        for site in SITES:
            module = importlib.import_module(site.module)
            owner = getattr(module, site.owner) if site.owner else module
            original = owner.__dict__[site.attr]
            if isinstance(original, classmethod):
                patched: Any = classmethod(_wrap(site, original.__func__, collector))
            else:
                patched = _wrap(site, original, collector)
            handle._patches.append((owner, site.attr, original))
            setattr(owner, site.attr, patched)
    except BaseException:
        handle.restore()
        raise
    return handle
