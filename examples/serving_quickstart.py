#!/usr/bin/env python3
"""Serving quickstart: publish a model to the store and query it over HTTP.

This example walks the full production serving flow:

1. train a localizer for one paper building through the cached execution
   engine (``LocalizationService.trained_on``);
2. publish it to a versioned :class:`~repro.serve.ModelStore` under a name
   and a ``prod`` tag;
3. start the ``repro serve`` HTTP API in-process on a background thread
   (store → gateway → micro-batcher → asyncio HTTP front end);
4. query it through the thin :class:`~repro.serve.ServiceClient` and verify
   the HTTP predictions are bit-identical to the direct service call;
5. inspect the serving metrics (per-endpoint latency, batching stats).

The same server runs standalone as::

    repro store publish --building "Building 1" --model KNN --tag prod
    repro serve --port 8080
    curl -s -X POST localhost:8080/v1/localize \
         -d '{"model": "knn@prod", "fingerprints": [[...]]}'

Run with:  python examples/serving_quickstart.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import LocalizationService, ModelStore, ServiceClient
from repro.api import PROFILES
from repro.data import CampaignConfig, collect_campaign, paper_building
from repro.serve.aio.server import AioServerThread


def main() -> None:
    # ------------------------------------------------------------------
    # Offline phase: train a model for Building 1 and publish it.
    # KNN keeps this example fast; any persistable registry model works
    # (CALLOC, DNN, CNN, ANVIL, AdvLoc — see `repro list-models`).
    # ------------------------------------------------------------------
    store_dir = tempfile.mkdtemp(prefix="repro-store-")
    store = ModelStore(store_dir)
    service = LocalizationService.trained_on(
        "Building 1", model="KNN", profile="quick", cache=False
    )
    version = store.publish(service, "knn", tags=("prod",))
    print(f"published {version.ref} (tags: {', '.join(version.tags)}) to {store_dir}")

    # The store is versioned and content-addressed: publishing again under a
    # new name reuses the identical artifact, and tags can be promoted later
    # (store.promote("knn@v1", "prod")) to roll a deployment back.
    restored = store.resolve("knn@prod")
    print(f"resolve('knn@prod') -> fitted {restored.model_name} service")

    # ------------------------------------------------------------------
    # Serve it: store -> gateway -> micro-batching -> JSON over HTTP.
    # The server binds any free port; `repro serve` runs it standalone.
    # ------------------------------------------------------------------
    server = AioServerThread(store, routes={"building-1/knn": "knn@prod"}).start()
    client = ServiceClient(server.base_url)
    print(f"serving on {server.base_url}  (health: {client.health()['status']})")

    # ------------------------------------------------------------------
    # Online phase: localize live fingerprints through the HTTP API.
    # ------------------------------------------------------------------
    config = PROFILES["quick"]()
    campaign = collect_campaign(
        paper_building("Building 1", rp_granularity_m=config.rp_granularity_m),
        CampaignConfig(seed=config.campaign_seed),
    )
    queries = campaign.test_for("S7").features
    via_http = client.localize(queries, model="building-1/knn")
    direct = service.localize(queries)
    assert np.array_equal(via_http.labels, direct.labels)
    assert np.array_equal(via_http.coordinates, direct.coordinates)
    print(f"localized {len(via_http)} fingerprints over HTTP "
          f"(bit-identical to the direct call)")
    print(f"first prediction: RP {via_http.labels[0]} at "
          f"{via_http.coordinates[0].round(2)} m, "
          f"self-estimated error {via_http.error_estimate[0]:.2f} m")

    # ------------------------------------------------------------------
    # Observability: the catalog and per-endpoint serving metrics.
    # ------------------------------------------------------------------
    models = client.models()
    print(f"catalog: {[entry['name'] for entry in models['entries']]} "
          f"routes={models['routes']}")
    metrics = client.metrics()
    endpoint = metrics["gateway"]["endpoints"]["building-1/knn"]
    print(f"endpoint stats: {endpoint['requests']} request(s), "
          f"p50 {endpoint['latency_ms']['p50']} ms")

    client.close()
    server.close()


if __name__ == "__main__":
    main()
