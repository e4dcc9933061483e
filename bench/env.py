"""Checkout paths, child processes and the environment stamp.

Everything the benchmark writes lives under ``<checkout>/.bench_tmp``: every
child gets ``REPRO_CACHE_DIR`` and ``TMPDIR`` pointing there, and the
checkout's ``src`` on ``PYTHONPATH``.  Thread-count variables
(``OPENBLAS_NUM_THREADS`` and friends) and ``PYTHONHASHSEED`` are read for
the stamp and passed through untouched: BLAS oversubscription is part of
what the benchmark measures.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ROOT",
    "SRC",
    "STAMP_ENV",
    "check_checkout",
    "RunDir",
    "child_env",
    "ChildResult",
    "stderr_path",
    "run_child",
    "spawn_child",
    "reap_child",
    "vm_hwm_mb",
    "environment_stamp",
]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"

#: Read into the report, never set.
STAMP_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONHASHSEED")


def check_checkout() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {SRC}/repro; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class RunDir:
    """A fresh scratch directory inside the checkout, removed on exit."""

    def __init__(self, prefix: str) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix=prefix, dir=TMP_ROOT))
        self._count = 0

    def fresh(self, name: str) -> Path:
        """A new, empty sub-directory (one per cache, store or log)."""
        self._count += 1
        path = self.path / f"{self._count:03d}-{name}"
        path.mkdir()
        return path

    def __enter__(self) -> "RunDir":
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def child_env(cache_dir: Path) -> Dict[str, str]:
    """Environment for one program child: checkout sources, private cache."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([existing] if existing else []))
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(TMP_ROOT)
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


def stderr_path(stdout_path: Path) -> Path:
    """Where a child spawned with ``stdout_path`` writes its standard error."""
    return stdout_path.with_name(stdout_path.name + ".err")


def spawn_child(cmd: List[str], env: Dict[str, str], stdout_path: Path) -> subprocess.Popen:
    """Start ``cmd``; standard output and error go to separate files.

    Kept apart so that a warning on stderr never enters an output that a
    correctness check compares byte for byte.
    """
    with open(stdout_path, "wb") as out, open(stderr_path(stdout_path), "wb") as err:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )


def vm_hwm_mb(pid: object = "self") -> Optional[float]:
    """Peak resident set of a live process (Linux ``VmHWM``) in MB, if readable.

    Unlike ``ru_maxrss`` it belongs to the running program image alone: a
    child's ``ru_maxrss`` also counts the resident set its parent had when
    it forked, which here is the benchmark's own.
    """
    try:
        with open(f"/proc/{pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def reap_child(proc: subprocess.Popen, timeout_s: float) -> Tuple[int, float, float]:
    """Wait for ``proc`` (killing it after ``timeout_s``); ``(code, end, peak_rss_mb)``.

    ``os.wait4`` runs on a helper thread so the exit is timestamped the
    moment it happens; meanwhile the child's ``VmHWM`` is sampled every
    10 ms (``ru_maxrss`` is the fallback where ``/proc`` is missing).
    """
    box: Dict[str, object] = {}

    def waiter() -> None:
        _, status, usage = os.wait4(proc.pid, 0)
        box.update(end=time.perf_counter(), status=status, usage=usage)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    deadline = time.perf_counter() + timeout_s
    peak: Optional[float] = None
    while thread.is_alive():
        hwm = vm_hwm_mb(proc.pid) if "end" not in box else None
        if hwm is not None:
            peak = max(peak or 0.0, hwm)
        thread.join(0.01)
        if thread.is_alive() and time.perf_counter() > deadline:
            os.kill(proc.pid, signal.SIGKILL)  # Popen.kill would reap it here
            thread.join()
    proc.returncode = os.waitstatus_to_exitcode(box["status"])  # type: ignore[arg-type]
    if peak is None:
        peak = box["usage"].ru_maxrss / 1024.0  # type: ignore[union-attr]
    return proc.returncode, box["end"], peak  # type: ignore[return-value]


def run_child(
    cmd: List[str], env: Dict[str, str], stdout_path: Path, timeout_s: float = 150.0
) -> ChildResult:
    """Run one child to completion, timing it from spawn to exit."""
    start = time.perf_counter()
    proc = spawn_child(cmd, env, stdout_path)
    code, end, rss_mb = reap_child(proc, timeout_s)
    return ChildResult(code, end - start, rss_mb, stdout_path.read_bytes(),
                       stderr_path(stdout_path).read_bytes())


def _git_sha() -> str:
    # Only a checkout that is itself a repository: never walk up out of it.
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _blas() -> str:
    try:
        import numpy

        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except Exception:  # older numpy: no dict mode; the stamp is best effort
        return "unknown"


def environment_stamp() -> Dict[str, object]:
    """Versions, machine and thread settings the numbers were measured under."""
    text = (SRC / "repro" / "__init__.py").read_text()
    match = re.search(r'^__version__ = "([^"]+)"', text, re.M)
    return {
        "repro_version": match.group(1) if match else "unknown",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "env": {name: os.environ.get(name) for name in STAMP_ENV},
    }
