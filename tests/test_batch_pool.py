"""The process pool behind parallel batch execution.

Covers the ``REPRO_MAX_WORKERS`` worker-count knob, the shared executor's
lifecycle (reuse, growth, discard, setup failures), how a batch is split
into work units, the in-process fallback when the pool is unavailable or
breaks mid-flight (results must be identical to a sequential run), and
the relay of worker spans into the master's trace.
"""

from __future__ import annotations

import os
from concurrent.futures import BrokenExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.cache.config import CacheConfig
from repro.engine import batch as batch_module
from repro.engine import pool as pool_module
from repro.engine.batch import _execute_unit, _work_units
from repro.engine.engine import AnalysisEngine
from repro.engine.pool import (
    default_max_workers,
    discard_shared_pool,
    shared_process_pool,
)
from repro.engine.request import AnalysisRequest
from repro.obs import SpanBuffer, metrics, span, tracer
from repro.service.wire import result_fingerprint

CACHE = CacheConfig(num_lines=8, line_size=64)

BRANCH_SOURCE = (
    "char a[64]; char b[64]; int p;"
    "int main() { if (p > 0) { a[0]; } b[0]; a[0]; return 0; }"
)
STRAIGHT_SOURCE = "char a[64]; char b[64]; int main() { a[0]; b[0]; a[0]; return 0; }"


def batch_requests() -> list[AnalysisRequest]:
    return [
        AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE),
        AnalysisRequest.speculative(STRAIGHT_SOURCE, cache_config=CACHE),
        AnalysisRequest.baseline(BRANCH_SOURCE, cache_config=CACHE),
        AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE),
    ]


def fingerprints(results) -> list[str]:
    return [result_fingerprint(result) for result in results]


@pytest.fixture
def fresh_pool():
    """Start and end with no shared executor, so a test neither inherits
    nor leaks pool state."""
    discard_shared_pool()
    yield
    discard_shared_pool()


# ----------------------------------------------------------------------
# REPRO_MAX_WORKERS
# ----------------------------------------------------------------------
class TestDefaultMaxWorkers:
    @pytest.mark.parametrize(
        "raw, expected",
        [(None, None), ("", None), ("3", 3), ("0", 1), ("-2", 1), ("many", None)],
        ids=["unset", "empty", "three", "zero", "negative", "unparsable"],
    )
    def test_environment_knob(self, raw, expected, monkeypatch):
        if raw is None:
            monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_MAX_WORKERS", raw)
        assert default_max_workers() == expected


# ----------------------------------------------------------------------
# The shared executor
# ----------------------------------------------------------------------
class TestSharedPool:
    def test_repeated_calls_reuse_one_executor(self, fresh_pool):
        first = shared_process_pool(2)
        assert first is not None
        assert shared_process_pool(2) is first
        assert shared_process_pool(1) is first  # smaller requests fit too

    def test_larger_request_replaces_the_executor(self, fresh_pool):
        small = shared_process_pool(1)
        large = shared_process_pool(2)
        assert large is not small
        assert shared_process_pool(2) is large

    def test_discard_means_a_fresh_executor_next_time(self, fresh_pool):
        first = shared_process_pool(1)
        discard_shared_pool()
        assert shared_process_pool(1) is not first

    def test_executor_starts_are_counted(self, fresh_pool):
        started = metrics().counter("pool.executors_started")
        before = started.value
        shared_process_pool(1)
        shared_process_pool(1)
        assert started.value == before + 1

    @pytest.mark.parametrize(
        "failure", [OSError, RuntimeError, BrokenExecutor], ids=lambda e: e.__name__
    )
    def test_setup_failure_means_no_pool(self, failure, fresh_pool, monkeypatch):
        def refuse(*args, **kwargs):
            raise failure("no processes here")

        monkeypatch.setattr(pool_module, "ProcessPoolExecutor", refuse)
        assert shared_process_pool(2) is None


# ----------------------------------------------------------------------
# Splitting a batch into work units
# ----------------------------------------------------------------------
class TestWorkUnits:
    @staticmethod
    def groups(*sizes: int) -> list[list[tuple[int, str]]]:
        out, index = [], 0
        for group, size in enumerate(sizes):
            out.append([(index + i, f"g{group}") for i in range(size)])
            index += size
        return out

    def test_every_request_lands_in_exactly_one_unit(self):
        units = _work_units(self.groups(3, 1, 4), max_workers=3, total=8)
        indices = sorted(index for unit in units for index, _ in unit)
        assert indices == list(range(8))

    def test_units_never_mix_compile_keys(self):
        units = _work_units(self.groups(3, 1, 4), max_workers=3, total=8)
        assert all(len({key for _, key in unit}) == 1 for unit in units)

    def test_one_source_spreads_across_workers(self):
        units = _work_units(self.groups(6), max_workers=3, total=6)
        assert [len(unit) for unit in units] == [2, 2, 2]

    def test_units_are_sized_by_total_over_workers(self):
        units = _work_units(self.groups(5, 2), max_workers=2, total=7)
        # ceil(7 / 2) == 4: the five-request group splits 4 + 1.
        assert [len(unit) for unit in units] == [4, 1, 2]


# ----------------------------------------------------------------------
# Falling back to in-process execution
# ----------------------------------------------------------------------
class _BrokenFuture:
    def __init__(self, error: Exception):
        self._error = error

    def result(self):
        raise self._error


class _BreakingPool:
    """Accepts work, then fails every result like a pool whose workers died."""

    def __init__(self, error: Exception):
        self.error = error
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return _BrokenFuture(self.error)


class TestPoolFallback:
    def test_unavailable_pool_runs_in_process(self, monkeypatch):
        sequential = AnalysisEngine().run_batch(batch_requests(), max_workers=1)
        monkeypatch.setattr(batch_module, "shared_process_pool", lambda n: None)
        engine = AnalysisEngine()
        results = engine.run_batch(batch_requests(), max_workers=2)
        assert fingerprints(results) == fingerprints(sequential)
        assert engine.stats.batches == 1
        assert engine.stats.parallel_batches == 0
        # In-process execution compiled each distinct source once.
        assert engine.stats.compile.misses == 2

    @pytest.mark.parametrize(
        "error",
        [BrokenProcessPool("worker died"), OSError("pipe closed")],
        ids=["broken-pool", "os-error"],
    )
    def test_pool_breaking_mid_flight_is_retired(self, error, monkeypatch):
        sequential = AnalysisEngine().run_batch(batch_requests(), max_workers=1)
        broken = _BreakingPool(error)
        discarded = []
        monkeypatch.setattr(batch_module, "shared_process_pool", lambda n: broken)
        monkeypatch.setattr(
            batch_module, "discard_shared_pool", lambda: discarded.append(True)
        )
        engine = AnalysisEngine()
        results = engine.run_batch(batch_requests(), max_workers=2)
        assert broken.submitted > 0
        assert discarded == [True]
        assert fingerprints(results) == fingerprints(sequential)
        assert engine.stats.parallel_batches == 0


# ----------------------------------------------------------------------
# Worker spans
# ----------------------------------------------------------------------
class TestWorkerSpans:
    @pytest.mark.parametrize("want_spans", [True, False])
    def test_execute_unit_relays_spans_only_when_asked(self, want_spans):
        requests = batch_requests()[:2]  # one compile key
        reply = _execute_unit(requests, want_spans)
        assert len(reply["results"]) == 2
        names = {s["name"] for s in reply["spans"]}
        if want_spans:
            assert {"frontend", "analyze", "fixpoint"} <= names
        else:
            assert reply["spans"] == []

    def test_pool_spans_graft_into_the_master_trace(self, fresh_pool):
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        try:
            with span("master") as root:
                engine = AnalysisEngine()
                engine.run_batch(batch_requests(), max_workers=2)
        finally:
            tracer().remove_sink(buffer)
        if engine.stats.parallel_batches == 0:
            pytest.fail("the batch did not reach the process pool")
        spans = buffer.spans()
        fixpoints = [s for s in spans if s["name"] == "fixpoint"]
        assert fixpoints, "worker fixpoint spans must be relayed to the master"
        assert os.getpid() not in {s["pid"] for s in fixpoints}
        assert {s["trace_id"] for s in spans} == {root.trace_id}
