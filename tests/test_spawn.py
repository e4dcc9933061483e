"""Spawned workers start with a one-thread BLAS pool."""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.spawn import BLAS_THREAD_VARIABLES, one_thread_blas


def _record_environment(path: str) -> None:
    """Child target: write the BLAS thread variables this process started with."""
    with open(path, "w") as handle:
        json.dump({name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}, handle)


def _spawned_environment(tmp_path) -> dict:
    path = tmp_path / "environment.json"
    process = multiprocessing.get_context("spawn").Process(
        target=_record_environment, args=(str(path),)
    )
    with one_thread_blas():
        process.start()
    process.join(timeout=60)
    assert not process.is_alive() and process.exitcode == 0
    return json.loads(path.read_text())


def test_spawned_child_sees_the_cap_and_the_parent_is_unchanged(tmp_path, monkeypatch):
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert _spawned_environment(tmp_path) == {name: "1" for name in BLAS_THREAD_VARIABLES}
    assert dict(os.environ) == before


def test_a_value_the_user_set_passes_through(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert _spawned_environment(tmp_path) == {
        "OPENBLAS_NUM_THREADS": "3",
        "OMP_NUM_THREADS": "1",
    }
    assert dict(os.environ) == before
