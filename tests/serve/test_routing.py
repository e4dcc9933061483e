"""Tests for shadow/canary routing: grammar, hashing, policies, promote gate."""

from __future__ import annotations

import asyncio
from contextlib import closing

import numpy as np
import pytest

from repro.api import LocalizationService
from repro.defenses import DefenseSpec, GuardRejectedError
from repro.serve import ModelStore, ServingApp
from repro.serve.aio.routing import (
    RouteSpec,
    RoutingDecision,
    ShadowStats,
    canary_fraction,
    canary_ok,
    decide_route,
    parse_route,
)
from repro.serve.gateway import LATENCY_WINDOW


class TestParseRoute:
    def test_plain_form_unchanged(self):
        endpoint, spec = parse_route("building-1/knn=knn@prod")
        assert endpoint == "building-1/knn"
        assert spec == RouteSpec(ref="knn@prod")
        assert not spec.has_shadow

    def test_shadow_defaults_fraction(self):
        _, spec = parse_route("b1/knn=knn@prod,shadow=knn@v2")
        assert spec.shadow == "knn@v2"
        assert spec.fraction == pytest.approx(0.1)
        assert spec.policy == "mirror"
        assert spec.has_shadow

    def test_full_grammar(self):
        endpoint, spec = parse_route(
            "b1/knn=knn@prod,shadow=knn@v2,fraction=0.25,policy=split,seed=7"
        )
        assert endpoint == "b1/knn"
        assert spec.ref == "knn@prod"
        assert spec.fraction == pytest.approx(0.25)
        assert spec.policy == "split"
        assert spec.seed == 7

    @pytest.mark.parametrize(
        "text",
        [
            "no-equals-sign",
            "=knn@prod",
            "ep=",
            "ep=knn,fraction=0.5",  # fraction without a shadow ref
            "ep=knn,shadow=knn@v2,fraction=1.5",
            "ep=knn,shadow=knn@v2,fraction=0",
            "ep=knn,shadow=knn@v2,policy=teleport",
            "ep=knn,shadow=knn@v2,policy=canary-split",
            "ep=knn,shadow=knn@v2,seed=abc",
            "ep=knn,teleport=yes",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_route(text)

    def test_route_spec_validates_directly(self):
        with pytest.raises(ValueError):
            RouteSpec(ref="")
        with pytest.raises(ValueError, match="never receive traffic"):
            RouteSpec(ref="knn", shadow="knn@v2", fraction=0.0)

    def test_policy_is_case_insensitive_and_stored_lowercase(self):
        _, spec = parse_route("ep=knn@prod,shadow=knn@v2,policy=Split")
        assert spec.policy == "split"
        assert RouteSpec(ref="a", shadow="b", fraction=0.5, policy="MIRROR").policy == "mirror"
        with pytest.raises(ValueError, match="mirror or split"):
            RouteSpec(ref="a", shadow="b", fraction=0.5, policy="shadow-mirror")

    def test_as_dict_hides_shadow_keys_for_plain_routes(self):
        assert RouteSpec(ref="knn@prod").as_dict() == {"ref": "knn@prod"}
        shadowed = RouteSpec(ref="a", shadow="b", fraction=0.5).as_dict()
        assert shadowed["shadow"] == "b"
        assert shadowed["policy"] == "mirror"


class TestCanaryFraction:
    def test_deterministic(self):
        features = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert canary_fraction(0, features) == canary_fraction(0, features)
        assert canary_fraction(0, features) == canary_fraction(0, features.copy())

    def test_in_unit_interval_and_seed_sensitive(self):
        features = np.ones((2, 4))
        values = {canary_fraction(seed, features) for seed in range(8)}
        assert all(0.0 <= value < 1.0 for value in values)
        assert len(values) == 8  # different seeds sample different subsets

    def test_roughly_uniform_over_requests(self):
        rng = np.random.default_rng(0)
        values = [canary_fraction(0, rng.normal(size=(1, 6))) for _ in range(400)]
        below = sum(value < 0.25 for value in values)
        assert 0.15 < below / len(values) < 0.35


def _requests_around(seed: int, fraction: float):
    """One request whose canary position falls below ``fraction``, one above."""
    rows = np.arange(400, dtype=np.float64).reshape(100, 1, 4)
    positions = [canary_fraction(seed, row) for row in rows]
    hit = next(row for row, u in zip(rows, positions) if u < fraction)
    miss = next(row for row, u in zip(rows, positions) if u >= fraction)
    return hit, miss


class TestPolicies:
    def test_mirror_serves_primary_and_mirrors_fraction(self):
        spec = RouteSpec(ref="knn", shadow="knn@v2", fraction=0.1, policy="mirror")
        hit, miss = _requests_around(spec.seed, spec.fraction)
        assert decide_route(spec, hit) == RoutingDecision(mirror_shadow=True)
        assert decide_route(spec, miss) == RoutingDecision()

    def test_split_serves_shadow_for_fraction(self):
        spec = RouteSpec(ref="knn", shadow="knn@v2", fraction=0.1, policy="split")
        hit, miss = _requests_around(spec.seed, spec.fraction)
        assert decide_route(spec, hit) == RoutingDecision(serve_shadow=True)
        assert decide_route(spec, miss) == RoutingDecision()

    def test_decide_route_plain_spec_never_shadows(self):
        decision = decide_route(RouteSpec(ref="knn"), np.ones((1, 4)))
        assert decision == RoutingDecision()

    def test_decide_route_is_deterministic_per_request(self):
        spec = RouteSpec(ref="knn", shadow="knn@v2", fraction=0.5, seed=3)
        features = np.full((1, 4), 2.5)
        first = decide_route(spec, features)
        assert all(decide_route(spec, features) == first for _ in range(5))


class TestCanaryOk:
    def _document(self, **overrides):
        spec = RouteSpec(ref="knn@prod", shadow="knn@v2", fraction=0.5)
        stats = ShadowStats("b1/knn", spec)
        for _ in range(60):
            stats.record_request(RoutingDecision(mirror_shadow=True))
            stats.record_arm("primary", 0.010, 4, 0)
            stats.record_arm("shadow", 0.011, 4, 0)
            stats.record_comparison(0, 4)
        document = stats.as_dict()
        document.update(overrides)
        return document

    def test_healthy_canary_passes(self):
        ok, reasons = canary_ok(self._document())
        assert ok, reasons

    def test_too_few_requests(self):
        ok, reasons = canary_ok(self._document(mirrored=3, shadow_served=0))
        assert not ok and any("shadow-scored" in reason for reason in reasons)

    def test_shadow_errors_block(self):
        ok, reasons = canary_ok(self._document(shadow_errors=2))
        assert not ok and any("error" in reason for reason in reasons)

    def test_flagged_regression_blocks(self):
        document = self._document()
        document["shadow"] = dict(document["shadow"], flagged_rate=0.2)
        document["primary"] = dict(document["primary"], flagged_rate=0.0)
        ok, reasons = canary_ok(document)
        assert not ok and any("flagged" in reason for reason in reasons)

    def test_latency_regression_blocks(self):
        document = self._document()
        document["primary"] = dict(document["primary"], latency_ms={"p99": 10.0})
        document["shadow"] = dict(document["shadow"], latency_ms={"p99": 100.0})
        ok, reasons = canary_ok(document)
        assert not ok and any("p99" in reason for reason in reasons)

    def test_prediction_disagreement_is_not_gated(self):
        ok, _ = canary_ok(self._document(label_mismatches=100, mismatch_rate=0.4))
        assert ok  # a retrained candidate is expected to predict differently


class TestShadowStats:
    def test_bounded_windows(self):
        spec = RouteSpec(ref="a", shadow="b", fraction=0.5)
        stats = ShadowStats("ep", spec)
        for _ in range(LATENCY_WINDOW + 6):
            stats.record_arm("primary", 0.01, 1, 0)
        assert len(stats.primary.latencies) == LATENCY_WINDOW
        assert stats.primary.requests == LATENCY_WINDOW + 6


@pytest.fixture()
def split_store(tiny_campaign, tmp_path) -> ModelStore:
    """``knn`` v1 (prod); v2, fitted on one AP fewer, fails every request; v3's
    enforcing guard, calibrated with no headroom, rejects every request."""
    store = ModelStore(tmp_path / "store")
    train = tiny_campaign.train
    store.publish(
        LocalizationService("KNN", params={"k": 3}).fit(train), "knn", tags=("prod",)
    )
    narrow = train.with_rss(train.rss_dbm[:, :-1])
    store.publish(LocalizationService("KNN", params={"k": 3}).fit(narrow), "knn")
    strict = LocalizationService("KNN", params={"k": 3}).fit(train)
    strict.attach_guard(
        DefenseSpec.create("detector", params={"action": "reject", "margin": 1e-9}),
        dataset=train,
    )
    store.publish(strict, "knn")
    return store


def _serve_one_by_one(app: ServingApp, endpoint: str, rows) -> list:
    """Each row as its own request through the async path; outcomes in order."""

    async def main():
        outcomes = []
        for row in rows:
            try:
                outcomes.append(
                    await app.localize_document({"model": endpoint, "fingerprints": row})
                )
            except Exception as error:
                outcomes.append(error)
        return outcomes

    return asyncio.run(main())


class TestSplitAccounting:
    """A ``split`` route feeds the canary gate what each arm actually served."""

    def test_primary_served_requests_feed_the_primary_arm(self, split_store, tiny_campaign):
        spec = RouteSpec(ref="knn@prod", shadow="knn@v1", fraction=0.5, policy="split")
        rows = tiny_campaign.test_for("S7").features[:9, None, :]
        served_by_shadow = sum(decide_route(spec, row).serve_shadow for row in rows)
        assert 0 < served_by_shadow < len(rows)
        with closing(ServingApp(split_store, routes={"b1/knn": spec})) as app:
            _serve_one_by_one(app, "b1/knn", rows)
            document = app.metrics_document()["shadow"]["b1/knn"]
        assert document["requests"] == len(rows)
        assert document["shadow_served"] == served_by_shadow
        assert document["shadow"]["requests"] == served_by_shadow
        assert document["primary"]["requests"] == len(rows) - served_by_shadow
        assert document["primary"]["latency_ms"]["p99"] is not None

    def test_failed_shadow_served_requests_block_promotion(self, split_store, tiny_campaign):
        spec = RouteSpec(ref="knn@v1", shadow="knn@v2", fraction=1.0, policy="split")
        rows = tiny_campaign.test_for("S7").features[:5, None, :]
        with closing(ServingApp(split_store, routes={"b1/knn": spec})) as app:
            outcomes = _serve_one_by_one(app, "b1/knn", rows)
            document = app.metrics_document()["shadow"]["b1/knn"]
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)
        assert document["shadow_served"] == 5
        assert document["shadow_errors"] == 5
        assert document["shadow"]["errors"] == 5
        ok, reasons = canary_ok(document, min_requests=0)
        assert not ok and any("5 error(s)" in reason for reason in reasons)

    def test_guard_rejected_shadow_served_requests_count_their_flags(
        self, split_store, tiny_campaign
    ):
        spec = RouteSpec(ref="knn@v1", shadow="knn@v3", fraction=1.0, policy="split")
        rows = tiny_campaign.test_for("S7").features[:5, None, :]
        with closing(ServingApp(split_store, routes={"b1/knn": spec})) as app:
            outcomes = _serve_one_by_one(app, "b1/knn", rows)
            document = app.metrics_document()["shadow"]["b1/knn"]
        assert all(isinstance(outcome, GuardRejectedError) for outcome in outcomes)
        assert document["shadow_served"] == 5
        assert document["shadow_errors"] == 0
        assert document["shadow"]["fingerprints"] == 5
        assert document["shadow"]["flagged_rate"] == 1.0
        ok, reasons = canary_ok(document, min_requests=0)
        assert not ok and any("flagged rate" in reason for reason in reasons)
