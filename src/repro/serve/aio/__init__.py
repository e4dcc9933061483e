"""Asyncio serving tier: event-loop front end, worker fleet, canary routing.

The transport half of :mod:`repro.serve` (the application behind it is
:class:`repro.serve.http.ServingApp`):

* :mod:`repro.serve.aio.protocol` — wire codecs (JSON / raw-ndarray /
  optional msgpack) and the shared localize request/response semantics.
* :mod:`repro.serve.aio.routing` — the ``shadow=REF,fraction=p`` route
  grammar, deterministic seeded-hash canary selection, the two route
  policies (``mirror``/``split``), paired primary-vs-shadow stats and the
  :func:`~repro.serve.aio.routing.canary_ok` promotion gate.
* :mod:`repro.serve.aio.server` — the keep-alive/pipelining asyncio HTTP
  server bridging into the synchronous micro-batcher, bit-identical to a
  direct ``localize`` call.
* :mod:`repro.serve.aio.supervisor` — N ``SO_REUSEPORT`` acceptor processes
  over one shared on-disk store, with restart-on-death supervision.

``server`` and ``supervisor`` are re-exported lazily: they import
:mod:`repro.serve.http` (for :class:`ServingApp`), which in turn imports this
package's codecs and routing — eager imports here would close that cycle
while :mod:`repro.serve.http` is still initialising.
"""

from .protocol import (
    CONTENT_JSON,
    CONTENT_MSGPACK,
    CONTENT_NDARRAY,
    ProtocolError,
    UnsupportedContentType,
    msgpack_available,
    supported_content_types,
)
from .routing import RouteSpec, ShadowStats, canary_fraction, canary_ok, parse_route

__all__ = [
    "CONTENT_JSON",
    "CONTENT_MSGPACK",
    "CONTENT_NDARRAY",
    "ProtocolError",
    "UnsupportedContentType",
    "msgpack_available",
    "supported_content_types",
    "RouteSpec",
    "ShadowStats",
    "canary_fraction",
    "canary_ok",
    "parse_route",
    # lazily resolved (see __getattr__):
    "AioServer",
    "AioServerThread",
    "serve_aio",
    "ServeSupervisor",
    "serve_workers",
]

_LAZY = {
    "AioServer": "server",
    "AioServerThread": "server",
    "serve_aio": "server",
    "ServeSupervisor": "supervisor",
    "serve_workers": "supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, name)
