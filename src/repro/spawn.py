"""How the repo starts its worker processes, and the CLI's one-thread BLAS pool.

Queue workers (``repro.queue.work`` with ``workers > 1``) and the serving
fleet (``repro serve --workers N``) start every child through :func:`spawn`:
a fresh interpreter (the multiprocessing ``spawn`` method, never ``fork``,
so no child inherits a copy of the parent's threads and locks) that gets
two things from its parent.

* **A one-thread BLAS pool.**  Each child's OpenBLAS would otherwise start
  one thread per core and spin them all, so N children on N cores
  oversubscribe the machine N times over.  A child imports numpy while it
  unpickles its target, before any of its own code runs, so the cap must
  already be in the environment it starts with (:func:`one_thread_blas`).
* **The parent's telemetry.**  Telemetry is off in the child when it is off
  in the parent (``--no-telemetry``, ``REPRO_TELEMETRY=0`` or
  ``trace.set_enabled(False)``), and the child writes its spans and events
  to the parent's event-log directory when the parent has configured one
  (``events.configure_sink``), else nowhere.  The child closes its sink when
  its target returns, so what it logged is on disk when it exits.

The CLI's own process gets the same BLAS rule from
:func:`limit_blas_threads`, which ``repro.reproduce.main`` calls first.
There numpy's OpenBLAS is already loaded, so its pool is resized through the
library's own setter.  Importing ``repro`` as a library changes no
process-wide state.

One BLAS rule decides both: OpenBLAS sizes its pool from
``OPENBLAS_NUM_THREADS`` and, when that is unset, from ``OMP_NUM_THREADS``.
A user who set either has chosen the OpenBLAS pool, and the rule leaves it
alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from multiprocessing.process import BaseProcess

__all__ = [
    "BLAS_THREAD_VARIABLES", "blas_threads", "limit_blas_threads", "one_thread_blas",
    "set_blas_threads", "spawn",
]

#: The variables that size OpenBLAS's (and any OpenMP runtime's) thread pool.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: The pool getter and setter numpy's bundled OpenBLAS (scipy-openblas64) exports.
_GET_THREADS = "scipy_openblas_get_num_threads64_"
_SET_THREADS = "scipy_openblas_set_num_threads64_"

# os.environ is process-wide: two threads starting children at once must not
# interleave their set-and-restore.
_ENVIRON_LOCK = threading.Lock()


def _one_thread_variables() -> List[str]:
    """The thread variables the rule sets to ``"1"``; call under the lock.

    ``OMP_NUM_THREADS`` whenever it is unset; ``OPENBLAS_NUM_THREADS`` only
    when neither is set, because OpenBLAS falls back to ``OMP_NUM_THREADS``.
    """
    added = [] if "OMP_NUM_THREADS" in os.environ else ["OMP_NUM_THREADS"]
    if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
        added.append("OPENBLAS_NUM_THREADS")
    return added


@contextlib.contextmanager
def one_thread_blas() -> Iterator[None]:
    """Children started inside this block get a one-thread BLAS pool.

    For the duration of the block ``OMP_NUM_THREADS`` is set to ``"1"``
    unless the user set it, and ``OPENBLAS_NUM_THREADS`` unless the user set
    either; a value the user set passes through unchanged.  On exit the
    parent's environment is as it was.
    """
    with _ENVIRON_LOCK:
        added = _one_thread_variables()
        for name in added:
            os.environ[name] = "1"
        try:
            yield
        finally:
            for name in added:
                os.environ.pop(name, None)


def _parent_telemetry() -> Tuple[bool, Optional[str]]:
    """Whether telemetry is on here, and the event-log directory if one is set."""
    from .obs import events, trace

    if not trace.telemetry_enabled():
        return False, None
    sink = events.configured_sink()
    return True, str(sink.root) if sink is not None else None


def _child_main(
    telemetry: Tuple[bool, Optional[str]], target: Callable[..., Any], args: Tuple
) -> None:
    """Entry point of a :func:`spawn` child: the parent's telemetry, then ``target``."""
    from .obs import events, trace

    enabled, log_dir = telemetry
    trace.set_enabled(enabled)
    if enabled and log_dir is not None:
        events.configure_sink(Path(log_dir))
    try:
        target(*args)
    finally:
        events.configure_sink(None)


def spawn(
    target: Callable[..., Any], args: Sequence[Any] = (), **process_kwargs: Any
) -> "BaseProcess":
    """Start ``target(*args)`` in a fresh interpreter; returns the started process.

    The child gets a one-thread BLAS pool and this process's telemetry (see
    the module docstring).  ``target`` and ``args`` must be picklable;
    ``process_kwargs`` (``name``, ``daemon``) go to the ``Process``.
    """
    # Imported here: the CLI imports this module at start, and only the
    # commands that start workers need multiprocessing.
    import multiprocessing

    process = multiprocessing.get_context("spawn").Process(
        target=_child_main,
        args=(_parent_telemetry(), target, tuple(args)),
        **process_kwargs,
    )
    with one_thread_blas():
        process.start()
    return process


def _openblas_function(library, name: str, restype, *argtypes):
    """``name`` from ``library``, typed; None where it is not found.

    ``library`` None means numpy's OpenBLAS: numpy's core extension links
    it, so symbol lookups through the extension's handle reach it.
    """
    if library is None:
        try:
            from numpy._core import _multiarray_umath

            library = ctypes.CDLL(_multiarray_umath.__file__)
        except (ImportError, OSError):
            return None
    function = getattr(library, name, None)
    if function is not None:
        function.restype, function.argtypes = restype, argtypes
    return function


def blas_threads(library=None) -> Optional[int]:
    """The size of numpy's OpenBLAS pool; None where no getter is found.

    ``library`` stands in for numpy's OpenBLAS handle (tests pass fakes).
    """
    getter = _openblas_function(library, _GET_THREADS, ctypes.c_int)
    return None if getter is None else int(getter())


def set_blas_threads(count: int, library=None) -> bool:
    """Resize numpy's OpenBLAS pool; False, changing nothing, without a setter."""
    setter = _openblas_function(library, _SET_THREADS, None, ctypes.c_int)
    if setter is None:
        return False
    setter(count)
    return True


def limit_blas_threads(library=None) -> None:
    """Give this whole process the rule's one-thread BLAS pool.

    numpy's pool is resized at once; pools loaded later (scipy's, which a
    GPC fit loads) and spawned children read the variables set here.  Where
    the user set ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``, OpenBLAS
    already follows it and the pool is left alone; so it is where numpy's
    OpenBLAS exports no setter.  Only the CLI calls this.
    """
    with _ENVIRON_LOCK:
        added = _one_thread_variables()
        for name in added:
            os.environ[name] = "1"
    if "OPENBLAS_NUM_THREADS" in added:
        set_blas_threads(1, library)
