"""Shared helpers: environment pinning, timing, percentiles and the result
object every workload fills in.

Nothing here imports :mod:`repro`; ``run.py`` puts the checkout's ``src``
on the import path before any workload module is imported.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for daemon stores and temporary files; inside the
#: checkout and ignored by git.
WORK = ROOT / ".bench_work"

#: Every environment knob the program reads.  Each is removed from the
#: benchmark process and from every process it starts, so the ambient
#: environment cannot change what is measured.
REPRO_KNOBS = (
    "REPRO_MAX_WORKERS",
    "REPRO_SHARD_BACKEND",
    "REPRO_INCREMENTAL",
    "REPRO_PRUNE_SCENARIOS",
    "REPRO_TRACE",
    "REPRO_DEBUG_VERIFY",
    "REPRO_SLOW_JOB_SECONDS",
)


def pin_environment() -> dict:
    """Clear every ``REPRO_*`` knob and point temporary files into the
    checkout.  Returns the record printed with the results: the knobs'
    values before clearing (None when unset), Python version, ``nproc``
    and ``PYTHONHASHSEED``."""
    knobs = {name: os.environ.get(name) for name in REPRO_KNOBS}
    for name in sorted(os.environ):
        if name.startswith("REPRO_"):
            knobs[name] = os.environ.pop(name)
    WORK.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORK)
    pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + pythonpath if pythonpath else "")
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "repro_knobs_cleared": knobs,
    }


def child_environment() -> dict:
    """Environment for processes the benchmark starts: the pinned one,
    with unbuffered output so readiness lines arrive at once."""
    return dict(os.environ, PYTHONUNBUFFERED="1")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples) -> float:
    return statistics.median(samples)


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def time_setup_subprocess(code: str, repeats: int = 5, timeout: float = 120.0) -> float:
    """Median wall time, in reference-speed seconds, of ``repeats`` fresh
    interpreters running ``code`` (interpreter start, imports and input
    construction: what a user pays before the first request)."""
    samples = []
    for _ in range(repeats):
        before = probe_host()
        started = time.perf_counter()
        process = subprocess.Popen(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_environment(),
            stdout=subprocess.DEVNULL,
        )
        # A blocking wait() returns the moment the child exits (wait with
        # a timeout polls in steps of up to 50 ms); the timer bounds it.
        killer = threading.Timer(timeout, process.kill)
        killer.start()
        try:
            returncode = process.wait()
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - started
        samples.append(elapsed * reference_scale(before, probe_host()))
        if returncode != 0:
            raise RuntimeError(f"set-up interpreter exited with status {returncode}")
    return median(samples)


# ----------------------------------------------------------------------
# Reference-speed seconds
# ----------------------------------------------------------------------
#: Thread CPU seconds one round of :func:`_reference_round` takes on the
#: host the benchmark was tuned on (Intel Xeon, KVM guest, Python 3.11)
#: while its cores were quiet.
REFERENCE_ROUND_S = 0.00049
#: Rounds per :func:`probe_host` reading (per core).
PROBE_ROUNDS = 15
#: :class:`SampledClock` takes a reading every ``SAMPLE_INTERVAL_S`` and
#: scales a request by the readings during it and ``SAMPLE_WINDOW_S``
#: before it.
SAMPLE_INTERVAL_S = 0.05
SAMPLE_WINDOW_S = 0.2
#: :class:`ReferenceClock` probes after every ``PROBE_EVERY_S`` of requests.
PROBE_EVERY_S = 0.15


def _reference_round() -> int:
    """A fixed piece of interpreter-bound work (tuple keys, dict and list
    traffic, integer arithmetic) that uses nothing of the program."""
    table: dict = {}
    kept: list = []
    total = 0
    for i in range(2_000):
        key = (i & 255, (i >> 8) & 15)
        table[key] = table.get(key, 0) + i
        if i % 7 == 0:
            kept.append(key)
        total += len(kept) ^ i
    return total


def probe_host() -> float:
    """Thread CPU seconds of a reference round on this host right now:
    the median over a few rounds on each core, averaged over the cores.

    Thread CPU time leaves out time the process waits for a core, so the
    benchmark's own processes cannot move it; what moves it is how fast
    the cores run Python, which on a host shared with other tenants
    changes by up to 1.8x, within a second and independently on each
    core.  The calling thread is pinned to each core in turn, since the
    work being timed (a set-up interpreter, the daemon) may run on any.
    """
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            rounds = []
            for _ in range(PROBE_ROUNDS):
                started = time.thread_time()
                _reference_round()
                rounds.append(time.thread_time() - started)
            readings.append(median(rounds))
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(readings) / len(readings)


def reference_scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two :func:`probe_host`
    readings into reference-speed seconds: what the same work would have
    taken with the core running as fast as it did when the benchmark was
    tuned."""
    return REFERENCE_ROUND_S / ((before + after) / 2.0)


class SampledClock:
    """Times requests in reference-speed seconds, sampling the host's speed
    under the requests themselves.

    While the clock is active a timer signal runs one reference round every
    ``SAMPLE_INTERVAL_S``, inside whatever code is running (main thread
    only).  A request's time, less the samples taken during it, is scaled
    by the mean of the readings taken during it and in the
    ``SAMPLE_WINDOW_S`` before it, so a long request is scaled by the
    speed it actually saw.
    ``measured`` and ``scaled`` hold one value per request once the clock
    has exited; ``elapsed`` holds the request times with the samples in.
    """

    def __init__(self):
        self.elapsed: list[float] = []
        self.measured: list[float] = []
        self.scaled: list[float] = []
        self._spans: list[tuple[float, float]] = []
        #: (start, wall seconds spent, thread CPU seconds of the round).
        self._samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "SampledClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._settle()

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        cpu = time.thread_time()
        _reference_round()
        reading = time.thread_time() - cpu
        self._samples.append((started, time.perf_counter() - started, reading))

    @contextlib.contextmanager
    def request(self):
        """Time the body as one request (also when it raises)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self._spans.append((started, time.perf_counter()))

    def _settle(self) -> None:
        starts = [sample[0] for sample in self._samples]
        for started, ended in self._spans:
            inside = self._samples[
                bisect.bisect_left(starts, started) : bisect.bisect_right(starts, ended)
            ]
            near = self._samples[
                bisect.bisect_left(starts, started - SAMPLE_WINDOW_S) : bisect.bisect_right(
                    starts, ended
                )
            ]
            if not near:
                # No sample in reach (a long call held off the signal): the
                # next one after the request.
                near = self._samples[bisect.bisect_right(starts, ended) :][:1]
            elapsed = ended - started
            measured = elapsed - sum(sample[1] for sample in inside)
            speed = sum(sample[2] for sample in near) / len(near)
            self.elapsed.append(elapsed)
            self.measured.append(measured)
            self.scaled.append(measured * REFERENCE_ROUND_S / speed)


class ReferenceClock:
    """Turns a series of measured durations into reference-speed seconds,
    probing the host between them (for work that runs in other processes,
    where :class:`SampledClock` cannot sample).

    Durations are added as they are measured.  After every
    ``PROBE_EVERY_S`` of them the host is probed again, and each duration is scaled
    by the mean of the readings taken just before and just after its
    chunk, so a change of host speed in the middle of a pass is charged
    to the requests it slowed.  The probes run between requests, outside
    every measured duration.
    """

    def __init__(self):
        #: Every duration added, as measured and as scaled (same order).
        self.measured: list[float] = []
        self.scaled: list[float] = []
        self._pending: list[float] = []
        self._reading = probe_host()

    def add(self, seconds: float) -> None:
        self.measured.append(seconds)
        self._pending.append(seconds)
        if sum(self._pending) >= PROBE_EVERY_S:
            self._settle()

    def finish(self) -> list[float]:
        """Settle the last chunk; returns the scaled durations."""
        if self._pending:
            self._settle()
        return self.scaled

    def _settle(self) -> None:
        reading = probe_host()
        scale = reference_scale(self._reading, reading)
        self.scaled += [seconds * scale for seconds in self._pending]
        self._pending = []
        self._reading = reading


@dataclass
class Outcome:
    """What one benchmark run produced."""

    attempted: int = 0
    failed: int = 0
    #: Human-readable descriptions of every failure (wrong verdicts,
    #: errors, timeouts), printed before the result line.
    failures: list[str] = field(default_factory=list)
    #: ``name -> (value, unit)``.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)

    def check(self, condition: bool, message: str) -> None:
        """Count one attempted verification; record it when it fails."""
        self.attempted += 1
        if not condition:
            self.fail(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


class Deadline:
    """Run whole passes until the measuring time is spent.

    A pass is started only if the median pass so far is expected to fit
    in the remaining time, so a run ends close to ``seconds`` and every
    recorded pass is complete.  At least ``minimum`` passes always run.
    """

    def __init__(self, seconds: float, minimum: int = 1):
        self.seconds = seconds
        self.minimum = minimum
        self.started = time.perf_counter()
        self.durations: list[float] = []

    def more(self) -> bool:
        if len(self.durations) < self.minimum:
            return True
        remaining = self.seconds - (time.perf_counter() - self.started)
        return remaining >= median(self.durations)

    def record(self, duration: float) -> None:
        self.durations.append(duration)
