"""A one-thread BLAS pool for the worker processes the repo spawns.

Queue workers (``repro.queue.work`` with ``workers > 1``) and the serving
fleet (``repro serve --workers N``) start their children with the
multiprocessing ``spawn`` method.  Each child's OpenBLAS would otherwise
start one thread per core and spin them all, so N children on N cores
oversubscribe the machine N times over.  A child imports numpy while it
unpickles its target, before any of its own code runs, so the cap must
already be in the environment it starts with::

    with one_thread_blas():
        process.start()
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterator

__all__ = ["BLAS_THREAD_VARIABLES", "one_thread_blas"]

#: The variables that size OpenBLAS's (and any OpenMP runtime's) thread pool.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# os.environ is process-wide: two threads starting children at once must not
# interleave their set-and-restore.
_ENVIRON_LOCK = threading.Lock()


@contextlib.contextmanager
def one_thread_blas() -> Iterator[None]:
    """Children started inside this block get a one-thread BLAS pool.

    Each of :data:`BLAS_THREAD_VARIABLES` the user has not set is set to
    ``"1"`` for the duration of the block; one the user set passes through
    unchanged.  On exit the parent's environment is as it was.
    """
    with _ENVIRON_LOCK:
        added = [name for name in BLAS_THREAD_VARIABLES if name not in os.environ]
        for name in added:
            os.environ[name] = "1"
        try:
            yield
        finally:
            for name in added:
                os.environ.pop(name, None)
