"""Spawned workers and the CLI's own process get a one-thread BLAS pool."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.spawn import BLAS_THREAD_VARIABLES, blas_threads, set_blas_threads, spawn


def _record_environment(path: str) -> None:
    """Child target: write the BLAS thread variables this process started with."""
    with open(path, "w") as handle:
        json.dump({name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}, handle)


def _spawned_environment(tmp_path) -> dict:
    path = tmp_path / "environment.json"
    process = spawn(_record_environment, (str(path),))
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


def test_a_user_omp_value_alone_is_the_openblas_choice(tmp_path, monkeypatch):
    """OpenBLAS falls back to OMP_NUM_THREADS, so the rule must not override it."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    before = dict(os.environ)
    assert _spawned_environment(tmp_path) == {
        "OPENBLAS_NUM_THREADS": None,
        "OMP_NUM_THREADS": "4",
    }
    assert dict(os.environ) == before


# ----------------------------------------------------------------------
# The CLI's own process (fresh interpreters: the rule is process-wide)
# ----------------------------------------------------------------------
_SRC = str(Path(__file__).resolve().parents[1] / "src")

_CLI_CHILD = """
import contextlib, io, json, os, sys
from repro.reproduce import main
from repro.spawn import BLAS_THREAD_VARIABLES, blas_threads

before = blas_threads()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["list-models"])
print(json.dumps({
    "code": code,
    "before": before,
    "after": blas_threads(),
    "environment": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
}))
"""


def _fresh_interpreter(script: str, **environment: str) -> dict:
    """Run ``script`` with only ``environment`` of the thread variables set."""
    env = {key: value for key, value in os.environ.items() if key not in BLAS_THREAD_VARIABLES}
    env.update(environment, PYTHONPATH=_SRC)
    process = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.splitlines()[-1])


def test_main_gives_its_process_one_blas_thread():
    report = _fresh_interpreter(_CLI_CHILD)
    if report["before"] is None:
        pytest.skip("numpy's OpenBLAS exports no thread getter")
    assert report["code"] == 0
    assert report["after"] == 1
    # Pools loaded later (scipy's) and spawned children read these.
    assert report["environment"] == {name: "1" for name in BLAS_THREAD_VARIABLES}


@pytest.mark.parametrize(
    "user, environment",
    [
        ({"OPENBLAS_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}),
        ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
    ],
)
def test_main_keeps_the_pool_a_user_chose(user, environment):
    report = _fresh_interpreter(_CLI_CHILD, **user)
    if report["before"] is None:
        pytest.skip("numpy's OpenBLAS exports no thread getter")
    assert report["code"] == 0
    # OpenBLAS sized the pool from the user's value at import; main keeps it.
    assert report["after"] == report["before"]
    assert report["environment"] == environment


def test_a_library_without_the_pool_symbols_is_left_alone():
    fake = types.SimpleNamespace()
    assert blas_threads(fake) is None
    assert set_blas_threads(1, fake) is False
    report = _fresh_interpreter(
        """
import json, types
from repro.spawn import blas_threads, limit_blas_threads
before = blas_threads()
limit_blas_threads(types.SimpleNamespace())
print(json.dumps({"before": before, "after": blas_threads()}))
"""
    )
    assert report["after"] == report["before"]
