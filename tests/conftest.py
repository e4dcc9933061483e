"""Shared fixtures: a tiny synthetic campaign and pre-trained small models.

The tiny building keeps every training-based test fast (a handful of access
points, a short path, coarse reference-point granularity) while exercising the
exact same code paths as the paper-scale buildings.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.baselines import DNNLocalizer, KNNLocalizer
from repro.core import CALLOC
from repro.data import (
    Building,
    BuildingSpec,
    CampaignConfig,
    LocalizationCampaign,
    Material,
    build_building,
    collect_campaign,
)
from repro.eval.engine import CACHE_DIR_ENV
from repro.spawn import BLAS_THREAD_VARIABLES, blas_threads, set_blas_threads


@pytest.fixture(scope="session", autouse=True)
def _private_default_cache(tmp_path_factory):
    """Point the default artefact cache at a temporary directory.

    CLI tests run ``main([...])`` without ``--cache-dir``, and the ``repro``
    processes some tests start inherit this environment: none of them may
    write into the user's ``~/.cache/repro``.  A test that sets
    ``REPRO_CACHE_DIR`` itself (``monkeypatch.setenv``) still gets its own.
    """
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = str(tmp_path_factory.mktemp("default-cache"))
    yield
    if previous is None:
        os.environ.pop(CACHE_DIR_ENV, None)
    else:
        os.environ[CACHE_DIR_ENV] = previous


@pytest.fixture(scope="session")
def tiny_spec() -> BuildingSpec:
    """A small building specification used across the test suite."""
    return BuildingSpec(
        name="Tiny Lab",
        visible_aps=24,
        path_length_m=16.0,
        characteristics=(Material.WOOD, Material.CONCRETE),
        width_m=20.0,
        depth_m=14.0,
        dynamic_noise_db=1.5,
        shadowing_std_db=3.0,
    )


@pytest.fixture(scope="session")
def tiny_building(tiny_spec: BuildingSpec) -> Building:
    """Instantiated tiny building with 2 m reference-point granularity."""
    return build_building(tiny_spec, rp_granularity_m=2.0, seed=42)


@pytest.fixture(scope="session")
def tiny_campaign(tiny_building: Building) -> LocalizationCampaign:
    """Simulated campaign (train on OP3, test on all devices) in the tiny building."""
    return collect_campaign(tiny_building, CampaignConfig(seed=11))


@pytest.fixture(scope="session")
def trained_knn(tiny_campaign: LocalizationCampaign) -> KNNLocalizer:
    """A fitted KNN localizer on the tiny campaign."""
    return KNNLocalizer(k=3).fit(tiny_campaign.train)


@pytest.fixture(scope="session")
def trained_dnn(tiny_campaign: LocalizationCampaign) -> DNNLocalizer:
    """A fitted DNN localizer on the tiny campaign (small epoch budget)."""
    return DNNLocalizer(hidden_dims=(32,), epochs=25, seed=0).fit(tiny_campaign.train)


@pytest.fixture(scope="session")
def trained_calloc(tiny_campaign: LocalizationCampaign) -> CALLOC:
    """A fitted CALLOC localizer on the tiny campaign (short curriculum)."""
    model = CALLOC(
        embed_dim=32,
        attention_dim=16,
        num_lessons=4,
        epochs_per_lesson=3,
        seed=0,
    )
    return model.fit(tiny_campaign.train)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def _undo_the_cli_blas_rule():
    """Undo the one-thread BLAS rule an in-process ``main()`` applies.

    ``repro.reproduce.main`` caps this whole process's BLAS pool and sets
    the thread variables; restoring both keeps every test independent of
    which tests ran before it.
    """
    environment = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    threads = blas_threads()
    yield
    for name, value in environment.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    if threads is not None and blas_threads() != threads:
        set_blas_threads(threads)
