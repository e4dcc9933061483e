"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper using the
``quick`` evaluation profile (one building, three devices, a reduced ε/ø
grid, coarser reference-point granularity) so the full suite completes in
minutes on a laptop.  To reproduce the paper-scale grid, switch the fixture
to ``EvaluationConfig.full()`` and expect a multi-hour run.

The rendered text of every artefact is written to
``benchmarks/results/<name>.txt`` so its numbers can be inspected after a
run.  The figure benchmarks share one artefact cache for the session, so each
distinct campaign and model is built once per run; their pytest-benchmark
timings are therefore not cold regenerations.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval import EvaluationConfig
from repro.eval.engine import ArtifactCache

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def eval_config() -> EvaluationConfig:
    """Evaluation profile used by all figure benchmarks."""
    return EvaluationConfig.quick()


@pytest.fixture(scope="session")
def artifact_cache(tmp_path_factory) -> ArtifactCache:
    """One artefact cache shared by every figure benchmark of the session."""
    return ArtifactCache(tmp_path_factory.mktemp("artifact-cache"))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where each benchmark drops its rendered artefact."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_artefact(results_dir):
    """Callable that persists an artefact's text rendering."""

    def _save(name: str, text: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        return path

    return _save
