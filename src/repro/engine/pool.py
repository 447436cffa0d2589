"""The process pool behind parallel batch execution.

This module deliberately imports nothing from the rest of the package
except :mod:`repro.obs` (which itself imports nothing from ``repro``),
so it sits below :mod:`repro.engine.batch` without an import cycle.

It holds the **shared executor** — one process-wide
:class:`~concurrent.futures.ProcessPoolExecutor`, created lazily and
reused across calls so repeated batches do not pay fork+import startup
each time — and the ``REPRO_MAX_WORKERS`` worker-count knob.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.obs import metrics

#: Failures while *standing up* a pool (sandboxes without semaphores,
#: restricted containers) that demote callers to in-process execution.
_POOL_SETUP_FAILURES = (BrokenExecutor, OSError, RuntimeError)

#: Infrastructure failures while *collecting* results (a worker died
#: abruptly, the pool broke mid-flight).  Deliberately narrower than the
#: setup tuple: exceptions an analysis itself raises in a worker —
#: including RuntimeError subclasses like RecursionError — propagate to
#: the caller unchanged.
_POOL_COLLECT_FAILURES = (BrokenExecutor, OSError)


def default_max_workers() -> int | None:
    """Worker count from the ``REPRO_MAX_WORKERS`` environment variable
    (None — sequential — when unset or unparsable)."""
    raw = os.environ.get("REPRO_MAX_WORKERS")
    if not raw:
        return None
    try:
        return max(1, int(raw))
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Shared process-pool executor
# ----------------------------------------------------------------------
# Batches are short relative to fork+import startup, so constructing a
# fresh ProcessPoolExecutor per call wastes most of the parallel win.
# One lazily-created executor is shared process-wide and grown (replaced)
# when a caller needs more workers than it has; it is discarded on
# collection failure (the next caller gets a fresh one) and at
# interpreter exit.
_shared_pool: ProcessPoolExecutor | None = None
_shared_pool_size = 0
_shared_pool_lock = threading.Lock()


def shared_process_pool(max_workers: int) -> ProcessPoolExecutor | None:
    """The process-wide executor, sized for at least ``max_workers``
    (None when the platform cannot stand up a process pool).

    The executor outlives individual calls; callers must never shut it
    down — report collection failures via :func:`discard_shared_pool`
    instead.
    """
    global _shared_pool, _shared_pool_size
    max_workers = max(1, max_workers)
    with _shared_pool_lock:
        if _shared_pool is not None and _shared_pool_size >= max_workers:
            return _shared_pool
        stale = _shared_pool
        _shared_pool = None
        _shared_pool_size = 0
        if stale is not None:
            stale.shutdown(wait=False, cancel_futures=True)
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except _POOL_SETUP_FAILURES:
            return None
        _shared_pool = pool
        _shared_pool_size = max_workers
        metrics().counter("pool.executors_started").inc()
        metrics().gauge("pool.executor_size").set(max_workers)
        return pool


def discard_shared_pool() -> None:
    """Drop the shared executor (broken pool, or interpreter exit); the
    next :func:`shared_process_pool` call builds a fresh one."""
    global _shared_pool, _shared_pool_size
    with _shared_pool_lock:
        stale = _shared_pool
        _shared_pool = None
        _shared_pool_size = 0
    if stale is not None:
        stale.shutdown(wait=False, cancel_futures=True)


atexit.register(discard_shared_pool)
