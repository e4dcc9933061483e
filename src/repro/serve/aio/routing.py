"""Shadow/canary routing: route specs, deterministic traffic splitting, stats.

A serving route maps a tenant-facing *endpoint* to a primary store reference
and, optionally, a **shadow** candidate that receives a deterministic
fraction of the traffic::

    --route "building-1/knn=knn@prod,shadow=knn@v2,fraction=0.25"

Which requests fall in the fraction is decided by :func:`canary_fraction`, a
seeded SHA-256 hash of the request's fingerprint bytes — no process state, no
wall clock, no :mod:`random`: the same request is routed identically by every
worker process and on every replay (the R1 determinism lint rule covers this
module).  How the selected requests are treated is a pluggable **router
policy** (the sixth registry kind in :mod:`repro.registry`):

``mirror`` (default)
    Every response comes from the primary; selected requests are *also*
    scored by the shadow in the background and the per-arm guard/latency
    outcomes are compared on ``GET /metrics``.  Zero client-visible risk.
``split``
    Selected requests are *served* by the shadow (a true canary): clients on
    the canary fraction see the candidate's predictions.

:func:`canary_ok` is the promotion gate behind
``repro store promote --if-canary-ok``: it reads the comparison document and
refuses promotion while the candidate looks worse than the primary.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ...obs.metrics import MetricsRegistry

# Only repro.registry (and the dependency-free obs.metrics) at module level:
# this module is imported lazily by the ROUTER_POLICIES registry, and
# importing anything from repro.serve here would re-enter the serve package
# while it is still initialising.
from ...registry import ROUTER_POLICIES, make_router_policy, register_router_policy

__all__ = [
    "RouteSpec",
    "RoutingDecision",
    "MirrorPolicy",
    "SplitPolicy",
    "parse_route",
    "format_routes_help",
    "canary_fraction",
    "ShadowStats",
    "canary_ok",
]


# ----------------------------------------------------------------------
# Route specification + CLI grammar
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RouteSpec:
    """One endpoint's routing configuration.

    ``ref`` is the primary store reference; ``shadow`` (optional) is the
    candidate reference mirrored/served for the deterministic ``fraction`` of
    requests under ``policy``.  ``seed`` feeds :func:`canary_fraction` so two
    shadow routes can sample independent request subsets.
    """

    ref: str
    shadow: Optional[str] = None
    fraction: float = 0.0
    policy: str = "mirror"
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.ref:
            raise ValueError("route needs a primary store ref")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"shadow fraction must be in [0, 1], got {self.fraction}")
        if self.shadow is not None and self.fraction == 0.0:
            raise ValueError(
                f"shadow '{self.shadow}' configured with fraction=0 — it would "
                "never receive traffic; pass fraction=p in (0, 1]"
            )
        if self.shadow is None and self.fraction > 0.0:
            raise ValueError("fraction given without a shadow ref")
        if self.shadow is not None:
            try:
                ROUTER_POLICIES.resolve(self.policy)  # raises with did-you-mean
            except KeyError as error:
                # RegistryError subclasses KeyError; route parsing promises a
                # uniform ValueError for every malformed --route value.
                raise ValueError(str(error.args[0] if error.args else error)) from error

    @property
    def has_shadow(self) -> bool:
        return self.shadow is not None and self.fraction > 0.0

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"ref": self.ref}
        if self.has_shadow:
            data.update(
                shadow=self.shadow,
                fraction=self.fraction,
                policy=ROUTER_POLICIES.resolve(self.policy),
                seed=self.seed,
            )
        return data


_ROUTE_KEYS = ("shadow", "fraction", "policy", "seed")


def parse_route_value(text: str) -> RouteSpec:
    """Parse the value side of a route: ``REF[,shadow=REF][,fraction=P]...``.

    The plain ``REF`` form of earlier releases parses unchanged, so route
    dictionaries may mix bare refs and canary values freely.
    """
    parts = text.split(",")
    ref = parts[0].strip()
    options: Dict[str, str] = {}
    for part in parts[1:]:
        key, key_sep, value = part.partition("=")
        key, value = key.strip(), value.strip()
        if not key_sep or key not in _ROUTE_KEYS or not value:
            raise ValueError(
                f"bad route option '{part}' in '{text}' "
                f"(expected one of: {', '.join(f'{k}=...' for k in _ROUTE_KEYS)})"
            )
        if key in options:
            raise ValueError(f"duplicate route option '{key}' in '{text}'")
        options[key] = value
    try:
        return RouteSpec(
            ref=ref,
            shadow=options.get("shadow"),
            fraction=float(options.get("fraction", 0.1 if "shadow" in options else 0.0)),
            policy=options.get("policy", "mirror"),
            seed=int(options.get("seed", 0)),
        )
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad route '{text}': {error}") from error


def parse_route(text: str) -> Tuple[str, RouteSpec]:
    """Parse one ``--route`` value into ``(endpoint, RouteSpec)``.

    Grammar: ``ENDPOINT=REF[,shadow=REF][,fraction=P][,policy=NAME][,seed=N]``.
    The plain ``ENDPOINT=REF`` form of earlier releases parses unchanged.
    """
    endpoint, separator, remainder = text.partition("=")
    if not separator or not endpoint or not remainder:
        raise ValueError(f"--route expects ENDPOINT=REF[,key=value...], got '{text}'")
    return endpoint.strip(), parse_route_value(remainder)


def format_routes_help() -> str:
    """One-line ``--route`` grammar reminder for CLI help text."""
    return (
        "ENDPOINT=REF[,shadow=REF][,fraction=P][,policy=mirror|split][,seed=N]"
    )


# ----------------------------------------------------------------------
# Deterministic request hashing
# ----------------------------------------------------------------------
def canary_fraction(seed: int, features: np.ndarray) -> float:
    """Deterministic position of a request in ``[0, 1)``.

    SHA-256 over the seed and the raw fingerprint bytes (dtype, shape and
    data), mapped to a uniform float.  The same ``(seed, request)`` pair
    hashes identically in every process and on every run — canary membership
    is a pure function of the request, never of arrival order, worker
    identity or the clock.
    """
    array = np.ascontiguousarray(np.asarray(features, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(struct.pack("<q", int(seed)))
    digest.update(str(array.shape).encode("ascii"))
    digest.update(array.tobytes())
    (value,) = struct.unpack("<Q", digest.digest()[:8])
    return value / 2.0**64


@dataclass(frozen=True)
class RoutingDecision:
    """What a router policy decided for one request."""

    #: The shadow serves the request (client sees the candidate's response).
    serve_shadow: bool = False
    #: The shadow additionally scores a copy in the background.
    mirror_shadow: bool = False


@register_router_policy("mirror", tags=("shadow",), aliases=("shadow-mirror",))
class MirrorPolicy:
    """Primary serves everything; the selected fraction is also mirrored."""

    name = "mirror"

    def decide(self, u: float, fraction: float) -> RoutingDecision:
        return RoutingDecision(serve_shadow=False, mirror_shadow=u < fraction)


@register_router_policy("split", tags=("canary",), aliases=("canary-split",))
class SplitPolicy:
    """The selected fraction is *served* by the shadow (true canary traffic)."""

    name = "split"

    def decide(self, u: float, fraction: float) -> RoutingDecision:
        return RoutingDecision(serve_shadow=u < fraction, mirror_shadow=False)


# ----------------------------------------------------------------------
# Primary-vs-shadow comparison stats
# ----------------------------------------------------------------------
class _ArmStats:
    """One routing arm's bounded outcome window (primary or shadow).

    Counters are views over ``repro_shadow_arm_*`` registry series labeled
    ``(endpoint, arm)``; the latency window stays local for exact p50/p99.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        endpoint: str,
        arm: str,
        window: int = 1024,
    ) -> None:
        label = {"endpoint": endpoint, "arm": arm}
        labelnames = ("endpoint", "arm")
        self._requests = registry.counter(
            "repro_shadow_arm_requests_total",
            "Requests scored per routing arm", labelnames,
        ).labels(**label)
        self._fingerprints = registry.counter(
            "repro_shadow_arm_fingerprints_total",
            "Fingerprints scored per routing arm", labelnames,
        ).labels(**label)
        self._errors = registry.counter(
            "repro_shadow_arm_errors_total",
            "Errors raised per routing arm", labelnames,
        ).labels(**label)
        self._flagged = registry.counter(
            "repro_shadow_arm_flagged_total",
            "Guard-flagged fingerprints per routing arm", labelnames,
        ).labels(**label)
        self._latency = registry.histogram(
            "repro_shadow_arm_latency_seconds",
            "Scoring latency per routing arm", labelnames,
        ).labels(**label)
        self.latencies: deque = deque(maxlen=window)

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def fingerprints(self) -> int:
        return int(self._fingerprints.value)

    @property
    def errors(self) -> int:
        return int(self._errors.value)

    @property
    def flagged(self) -> int:
        return int(self._flagged.value)

    def record(self, seconds: float, fingerprints: int, flagged: int) -> None:
        self._requests.inc()
        self._fingerprints.inc(int(fingerprints))
        self._flagged.inc(int(flagged))
        self._latency.observe(float(seconds))
        self.latencies.append(float(seconds))

    def record_error(self) -> None:
        self._errors.inc()

    def as_dict(self) -> Dict[str, Any]:
        from ..gateway import _ms, percentile

        window = list(self.latencies)
        fingerprints = self.fingerprints
        rate = self.flagged / fingerprints if fingerprints else None
        return {
            "requests": self.requests,
            "fingerprints": fingerprints,
            "errors": self.errors,
            "flagged": self.flagged,
            "flagged_rate": round(rate, 6) if rate is not None else None,
            "latency_ms": {
                "p50": _ms(percentile(window, 50.0)),
                "p99": _ms(percentile(window, 99.0)),
            },
        }


class ShadowStats:
    """Paired primary-vs-shadow outcomes of one shadowed endpoint.

    Mirrored requests are scored by *both* arms, so the comparison is paired:
    identical request streams, differing only in the model version.  Windows
    are bounded (like :class:`~repro.serve.http.EndpointStats`) so a
    long-lived canary cannot grow memory without limit.  Thread-safe — the
    shadow arm records from background tasks/threads.
    """

    def __init__(
        self,
        endpoint: str,
        spec: RouteSpec,
        window: int = 1024,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.endpoint = endpoint
        self.spec = spec
        self.registry = registry if registry is not None else MetricsRegistry()
        label = {"endpoint": endpoint}

        def _counter(name: str, help: str):
            return self.registry.counter(name, help, ("endpoint",)).labels(**label)

        self._requests = _counter(
            "repro_shadow_requests_total", "Requests seen by a shadowed endpoint"
        )
        self._mirrored = _counter(
            "repro_shadow_mirrored_total", "Requests mirrored onto the shadow arm"
        )
        self._shadow_served = _counter(
            "repro_shadow_served_total", "Requests served by the shadow arm"
        )
        self._shadow_errors = _counter(
            "repro_shadow_errors_total", "Errors raised by the shadow arm"
        )
        self._label_mismatches = _counter(
            "repro_shadow_label_mismatches_total",
            "Fingerprints where primary and shadow predicted different labels",
        )
        self._compared = _counter(
            "repro_shadow_compared_total",
            "Fingerprints compared between primary and shadow",
        )
        self.primary = _ArmStats(self.registry, endpoint, "primary", window=window)
        self.shadow = _ArmStats(self.registry, endpoint, "shadow", window=window)
        self._lock = threading.Lock()

    @property
    def requests(self) -> int:
        return int(self._requests.value)

    @property
    def mirrored(self) -> int:
        return int(self._mirrored.value)

    @property
    def shadow_served(self) -> int:
        return int(self._shadow_served.value)

    @property
    def shadow_errors(self) -> int:
        return int(self._shadow_errors.value)

    @property
    def label_mismatches(self) -> int:
        return int(self._label_mismatches.value)

    @property
    def compared_fingerprints(self) -> int:
        return int(self._compared.value)

    def record_request(self, decision: RoutingDecision) -> None:
        self._requests.inc()
        if decision.mirror_shadow:
            self._mirrored.inc()
        if decision.serve_shadow:
            self._shadow_served.inc()

    def record_arm(
        self, arm: str, seconds: float, fingerprints: int, flagged: int
    ) -> None:
        with self._lock:
            stats = self.primary if arm == "primary" else self.shadow
            stats.record(seconds, fingerprints, flagged)

    def record_shadow_error(self) -> None:
        with self._lock:
            self._shadow_errors.inc()
            self.shadow.record_error()

    def record_comparison(self, mismatches: int, fingerprints: int) -> None:
        self._label_mismatches.inc(int(mismatches))
        self._compared.inc(int(fingerprints))

    def as_dict(self) -> Dict[str, Any]:
        with self._lock:
            compared = self.compared_fingerprints
            mismatches = self.label_mismatches
            mismatch_rate = mismatches / compared if compared else None
            return {
                "endpoint": self.endpoint,
                "ref": self.spec.ref,
                "shadow_ref": self.spec.shadow,
                "fraction": self.spec.fraction,
                "policy": ROUTER_POLICIES.resolve(self.spec.policy),
                "seed": self.spec.seed,
                "requests": self.requests,
                "mirrored": self.mirrored,
                "shadow_served": self.shadow_served,
                "shadow_errors": self.shadow_errors,
                "label_mismatches": mismatches,
                "compared": compared,
                "mismatch_rate": (
                    round(mismatch_rate, 6) if mismatch_rate is not None else None
                ),
                "primary": self.primary.as_dict(),
                "shadow": self.shadow.as_dict(),
            }


# ----------------------------------------------------------------------
# Promotion gate
# ----------------------------------------------------------------------
def canary_ok(
    document: Mapping[str, Any],
    min_requests: int = 50,
    max_flagged_delta: float = 0.0,
    max_p99_ratio: float = 1.5,
) -> Tuple[bool, List[str]]:
    """Judge one endpoint's shadow-comparison document for promotion.

    Returns ``(ok, reasons)``; ``reasons`` lists every violated criterion so
    an operator sees the full picture, not the first failure:

    * at least ``min_requests`` mirrored/shadow-served requests were scored;
    * the shadow arm raised no errors;
    * the shadow ``guard.flagged`` rate is at most the primary rate plus
      ``max_flagged_delta``;
    * the shadow p99 latency is at most ``max_p99_ratio`` × the primary p99.

    Prediction disagreement is deliberately *not* gated: a retrained
    candidate is expected to predict differently — that is the point.
    """
    reasons: List[str] = []
    scored = int(document.get("mirrored", 0)) + int(document.get("shadow_served", 0))
    if scored < min_requests:
        reasons.append(
            f"only {scored} shadow-scored request(s), need >= {min_requests}"
        )
    errors = int(document.get("shadow_errors", 0))
    if errors:
        reasons.append(f"shadow arm raised {errors} error(s)")
    primary = document.get("primary", {})
    shadow = document.get("shadow", {})
    primary_rate = primary.get("flagged_rate")
    shadow_rate = shadow.get("flagged_rate")
    if shadow_rate is not None:
        baseline = primary_rate if primary_rate is not None else 0.0
        if shadow_rate > baseline + max_flagged_delta:
            reasons.append(
                f"shadow flagged rate {shadow_rate:.4f} exceeds primary "
                f"{baseline:.4f} by more than {max_flagged_delta:.4f}"
            )
    primary_p99 = (primary.get("latency_ms") or {}).get("p99")
    shadow_p99 = (shadow.get("latency_ms") or {}).get("p99")
    if primary_p99 and shadow_p99 and shadow_p99 > primary_p99 * max_p99_ratio:
        reasons.append(
            f"shadow p99 {shadow_p99}ms exceeds {max_p99_ratio}x primary "
            f"p99 {primary_p99}ms"
        )
    return (not reasons, reasons)


def decide_route(spec: RouteSpec, features: np.ndarray) -> RoutingDecision:
    """The routing decision for one request under ``spec`` (pure function)."""
    if not spec.has_shadow:
        return RoutingDecision()
    policy = make_router_policy(spec.policy)
    return policy.decide(canary_fraction(spec.seed, features), spec.fraction)
