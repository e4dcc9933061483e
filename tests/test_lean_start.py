"""Resolving a model imports no scipy: only a GPC fit does.

Each check runs in a fresh interpreter, since any earlier test of the
session may already have imported scipy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.api import LocalizationService
from repro.baselines.gpc import GaussianProcessLocalizer

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CHILD = """
import json, sys
import numpy as np
from repro.api import ExperimentSpec, LocalizationService
from repro.data import FingerprintDataset
from repro.registry import LOCALIZERS

service_path, data_path, scores_path = sys.argv[1:]
names = LOCALIZERS.names()
for name in names:
    LOCALIZERS.get(name)
after_lookup = "scipy" in sys.modules
ExperimentSpec(models=tuple(names))
after_spec = "scipy" in sys.modules
LocalizationService.load(service_path)
after_load = "scipy" in sys.modules

data = np.load(data_path)
dataset = FingerprintDataset(data["rss_dbm"], data["labels"], data["rp_positions"])
gpc = LOCALIZERS.create("GPC").fit(dataset)
np.save(scores_path, gpc.decision_function(data["queries"]))
print(json.dumps({
    "models": len(names),
    "after_lookup": after_lookup,
    "after_spec": after_spec,
    "after_load": after_load,
    "after_fit": "scipy" in sys.modules,
}))
"""


def test_only_a_gpc_fit_imports_scipy(trained_calloc, tiny_campaign, tmp_path):
    params = {"embed_dim": 32, "attention_dim": 16, "num_lessons": 4, "epochs_per_lesson": 3}
    service = LocalizationService("CALLOC", params=params)
    service.localizer = trained_calloc  # the session's fitted model, as saved
    service._rp_positions = np.asarray(tiny_campaign.train.rp_positions)
    service_path = service.save(tmp_path / "calloc.npz")
    train = tiny_campaign.train
    queries = tiny_campaign.test_for("S7").features
    data_path = tmp_path / "data.npz"
    np.savez(
        data_path,
        rss_dbm=train.rss_dbm,
        labels=train.labels,
        rp_positions=train.rp_positions,
        queries=queries,
    )
    scores_path = tmp_path / "scores.npy"

    env = dict(os.environ, PYTHONPATH=_SRC)
    process = subprocess.run(
        [sys.executable, "-c", _CHILD, str(service_path), str(data_path), str(scores_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    report = json.loads(process.stdout.splitlines()[-1])
    assert report["models"] >= 10
    assert not report["after_lookup"]
    assert not report["after_spec"]
    assert not report["after_load"]
    assert report["after_fit"]
    # The deferred import changes nothing the fit computes.
    expected = GaussianProcessLocalizer().fit(train).decision_function(queries)
    assert np.load(scores_path).tobytes() == expected.tobytes()
