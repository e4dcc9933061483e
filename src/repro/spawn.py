"""One BLAS thread per process: for the CLI and the workers the repo spawns.

Queue workers (``repro.queue.work`` with ``workers > 1``) and the serving
fleet (``repro serve --workers N``) start their children with the
multiprocessing ``spawn`` method.  Each child's OpenBLAS would otherwise
start one thread per core and spin them all, so N children on N cores
oversubscribe the machine N times over.  A child imports numpy while it
unpickles its target, before any of its own code runs, so the cap must
already be in the environment it starts with::

    with one_thread_blas():
        process.start()

The CLI's own process gets the same rule from :func:`limit_blas_threads`,
which ``repro.reproduce.main`` calls first.  There numpy's OpenBLAS is
already loaded, so its pool is resized through the library's own setter.
Importing ``repro`` as a library changes no process-wide state.

One rule decides both: OpenBLAS sizes its pool from ``OPENBLAS_NUM_THREADS``
and, when that is unset, from ``OMP_NUM_THREADS``.  A user who set either
has chosen the OpenBLAS pool, and the rule leaves it alone.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Iterator, List, Optional

__all__ = [
    "BLAS_THREAD_VARIABLES", "blas_threads", "limit_blas_threads", "one_thread_blas",
    "set_blas_threads",
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
