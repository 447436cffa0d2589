"""The ``daemon_mixed`` workload: mixed traffic against a live ``repro serve``.

The daemon runs as a subprocess with default settings (2 workers) on an
ephemeral port, with a private result store under the checkout's
``.bench_work``.  One client connection drives it closed-loop: it sends
its next request only after the previous reply, as every ``repro
submit/wcet/sidechannel/mitigate`` caller does.  (With two concurrent
connections the client, the daemon and its workers outnumber the two
cores the benchmark was tuned on, and latencies measured the scheduler.)

A pass is a fixed mix of requests in a seeded order:

* 70% repeat a hot set of 8 Table-5/7 requests, taken in turn and warmed
  during set-up, so they are result-cache reads;
* 27.5% are fresh generated WCET-shaped programs (cold compile and
  analysis plus a store write), alternately baseline and speculative;
* 2.5% (one per pass) are ``mitigate`` calls on the leaking Table-7
  harnesses in turn, made fresh per pass by a seed-derived trailing
  comment.

Connection errors and timeouts count as failed requests; the daemon is
shut down and its store removed even when the run fails.
"""

from __future__ import annotations

import dataclasses
import random
import re
import selectors
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

from repro.bench.programs import wcet_benchmark_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, table7_client_request
from repro.engine.request import AnalysisRequest
from repro.service.client import ServiceClient, ServiceError

from perfbench.batch import Item, PassSeries, report_layers, run_pass
from perfbench.checks import compare_leak, compare_summary
from perfbench.common import (
    ROOT,
    WORK,
    Deadline,
    Outcome,
    child_environment,
    median,
    peak_rss_mb,
    percentile,
    ReferenceClock,
    probe_host,
    reference_scale,
)
from perfbench.generators import wcet_shaped_source
from perfbench.layers import LayerProbe

READY_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0
PASS_SIZE = 40
FRESH_PER_PASS = 11
MITIGATE_PER_PASS = 1
#: The daemon's peak RSS is read, and the traced run's lifecycle events
#: are harvested, over this many first passes: a fixed amount of traffic,
#: so neither grows with how many passes a run manages.
FIRST_PASSES = 10
HOT_WCET = ("adpcm", "susan", "gtk", "stc")
HOT_CRYPTO = ("hash", "encoder", "aes", "salsa")


@dataclass
class Call(Item):
    """One request of a pass: ``kind`` is hot, fresh or mitigate."""

    kind: str = "hot"


def hot_set(expected: dict) -> list[Call]:
    tables = expected["paper_tables"]
    calls = []
    for name in HOT_WCET:
        request = AnalysisRequest.speculative(
            wcet_benchmark_source(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size),
            line_size=BENCH_CACHE.line_size,
            cache_config=BENCH_CACHE,
            speculation=BENCH_SPECULATION,
            label=name,
        )
        misses = tables["table5_misses"][name]["just_in_time"]
        calls.append(Call(request, {"misses": misses}))
    leaky = set(tables["table7_speculation_only_leaks"])
    for name in HOT_CRYPTO:
        calls.append(Call(table7_client_request(name), leaks=name in leaky))
    return calls


def pass_calls(expected: dict, hot: list[Call], seed: int, pass_index: int) -> list[Call]:
    rng = random.Random(f"daemon_mixed/{seed}/{pass_index}")
    # Every pass holds the same mix: the hot set in turn (starting one
    # further each pass) and the leaking kernels in turn for ``mitigate``,
    # so pass walls differ by the host and the program, not by the draw.
    hot_count = PASS_SIZE - FRESH_PER_PASS - MITIGATE_PER_PASS
    calls = [hot[(pass_index + index) % len(hot)] for index in range(hot_count)]
    for index in range(FRESH_PER_PASS):
        source = wcet_shaped_source(rng.randrange(10**9))
        kind = "baseline" if index % 2 == 0 else "speculative"
        common = dict(line_size=BENCH_CACHE.line_size, cache_config=BENCH_CACHE, label="fresh")
        if kind == "baseline":
            request = AnalysisRequest.baseline(source, **common)
        else:
            request = AnalysisRequest.speculative(
                source, speculation=BENCH_SPECULATION, **common
            )
        calls.append(Call(request, expected["daemon_fresh"][kind], kind="fresh"))
    leaky = expected["paper_tables"]["table7_speculation_only_leaks"]
    for index in range(MITIGATE_PER_PASS):
        kernel = leaky[(pass_index * MITIGATE_PER_PASS + index) % len(leaky)]
        request = table7_client_request(kernel)
        request = dataclasses.replace(
            request, source=request.source + f"\n// revision {rng.randrange(10**9)}\n"
        )
        calls.append(Call(request, kind="mitigate"))
    rng.shuffle(calls)
    return calls


def wire_summary(wire: dict) -> dict:
    normal = [c for c in wire["classifications"] if not c["speculative"]]
    return {
        "misses": wire["misses"],
        "must_hits": sum(1 for c in normal if c["must_hit"]),
        "accesses": len(normal),
    }


def verify(call: Call, reply: dict) -> list[str]:
    label = f"{call.kind}/{call.request.label}"
    if call.kind == "mitigate":
        chosen = reply.get("optimized") or {}
        if reply.get("chosen") != "optimized" or not chosen.get("verified") or chosen.get(
            "leak_sites_after"
        ):
            return [f"{label}: mitigation not verified leak-free ({reply.get('chosen')})"]
        return []
    errors = compare_summary(label, wire_summary(reply), call.summary)
    if call.leaks is not None:
        errors += compare_leak(label, reply["leak_detected"], call.leaks)
    return errors


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` subprocess with a private store; always closed."""

    def __init__(self):
        WORK.mkdir(exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=WORK)
        self.port: int | None = None
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--host", "127.0.0.1", "--port", "0", "--store-dir", self.store],
            cwd=ROOT,
            env=child_environment(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            self.port = self._read_port()
            with self.client() as client:
                client.ping()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=READY_TIMEOUT):
                raise RuntimeError("daemon did not report its port in time")
        line = self.process.stdout.readline()
        match = re.search(r"listening on [^:\s]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"unexpected daemon banner: {line!r}")
        return int(match.group(1))

    def client(self) -> ServiceClient:
        # The socket outlives the daemon-side result wait by a margin, so a
        # slow job surfaces as the daemon's timeout reply, not a cut socket.
        return ServiceClient(
            port=self.port, timeout=REQUEST_TIMEOUT + 10.0, connect_timeout=5.0
        )

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                if self.port is None:
                    raise OSError("daemon never reported a port")
                with self.client() as client:
                    client.call("shutdown")
            except (ServiceError, OSError):
                self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=15)
        self.process.stdout.close()
        shutil.rmtree(self.store, ignore_errors=True)


def start_daemon(hot: list[Call], outcome: Outcome) -> tuple[Daemon, float]:
    """Spawn a daemon, wait for readiness and warm the hot set (which
    also verifies it).  Returns the daemon and the reference-speed seconds
    that took."""
    before = probe_host()
    started = time.perf_counter()
    daemon = Daemon()
    try:
        with daemon.client() as client:
            for call in hot:
                reply = client.analyze(call.request)
                for error in verify(call, reply):
                    outcome.fail(error)
                outcome.attempted += 1
    except BaseException:
        daemon.close()
        raise
    elapsed = time.perf_counter() - started
    return daemon, elapsed * reference_scale(before, probe_host())


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclass
class Sample:
    call: Call
    #: Client-observed seconds, as measured and in reference-speed seconds.
    measured: float
    latency: float
    job_id: str | None
    reply: dict | None
    error: str | None


def run_traffic_pass(daemon: Daemon, calls: list[Call]) -> tuple[float, float, list[Sample]]:
    """Send ``calls`` one after another over one connection (reconnecting
    after an error).  Every core is probed between requests while the
    daemon is idle.  Returns the pass wall in reference-speed seconds and
    as measured (sums of the request times), and one sample per call."""
    clock = ReferenceClock()
    raw: list[tuple[Call, str | None, dict | None, str | None]] = []
    client = None
    try:
        for call in calls:
            if client is None:
                try:
                    client = daemon.client()
                except ServiceError as error:
                    raw.append((call, None, None, f"connect: {error}"))
                    clock.add(0.0)
                    continue
            started = time.perf_counter()
            try:
                if call.kind == "mitigate":
                    # Synthesis runs on the connection thread: no job id.
                    reply, job_id = client.mitigate(call.request), None
                else:
                    reply = client.analyze(call.request, timeout=REQUEST_TIMEOUT)
                    job_id = client.last_job_id
                raw.append((call, job_id, reply, None))
            except (ServiceError, OSError) as error:
                raw.append((call, None, None, str(error)))
                client.close()
                client = None
            clock.add(time.perf_counter() - started)
    finally:
        if client is not None:
            client.close()
    scaled = clock.finish()
    samples = [
        Sample(call, measured, latency, job_id, reply, error)
        for (call, job_id, reply, error), measured, latency in zip(raw, clock.measured, scaled)
    ]
    return sum(scaled), sum(clock.measured), samples


def _lifecycle(events: list[dict], job_id: str) -> dict[str, float]:
    """First ``t`` of each lifecycle event of a job (a coalesced job's
    execution events are its primary's, which the daemon appends)."""
    times: dict[str, float] = {}
    for event in events:
        name = event.get("event")
        if name == "queued" and event.get("job_id") != job_id:
            continue
        times.setdefault(name, float(event["t"]))
    return times


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run_daemon_workload(
    expected: dict, seed: int, seconds: float, trace: bool, outcome: Outcome
) -> None:
    hot = hot_set(expected)
    setups = []
    daemon = None
    try:
        # Set-up is timed three times (median reported); the traced run
        # needs the daemon only once.
        for _ in range(1 if trace else 3):
            if daemon is not None:
                daemon.close()
            daemon, setup = start_daemon(hot, outcome)
            setups.append(setup)
        with daemon.client() as client:
            stats_before = client.stats()
        deadline = Deadline(seconds, minimum=1)
        #: Pass walls and served latencies of each pass, in reference-speed
        #: seconds.
        walls: list[float] = []
        measured_walls: list[float] = []
        pass_latencies: list[list[float]] = []
        samples: list[Sample] = []
        rss = None
        pass_index = 0
        while deadline.more():
            started = time.perf_counter()
            wall, measured_wall, pass_samples = run_traffic_pass(
                daemon, pass_calls(expected, hot, seed, pass_index)
            )
            deadline.record(time.perf_counter() - started)
            walls.append(wall)
            measured_walls.append(measured_wall)
            samples += pass_samples
            pass_latencies.append([s.latency for s in pass_samples if s.error is None])
            pass_index += 1
            if pass_index == FIRST_PASSES:
                rss = daemon.peak_rss_mb()
        if rss is None:
            rss = daemon.peak_rss_mb()
        for sample in samples:
            outcome.attempted += 1
            errors = [sample.error] if sample.error else verify(sample.call, sample.reply)
            if errors:
                outcome.fail(f"{sample.call.kind}: " + "; ".join(errors))
        if trace:
            report_daemon_layers(daemon, samples, stats_before, outcome)
    finally:
        if daemon is not None:
            daemon.close()
    if trace:
        replay_layers(expected, hot, seed, outcome)
        return
    served = [s for s in samples if s.error is None]
    outcome.put("setup_s", median(setups), "s")
    outcome.put("wall_s", median(walls), "s")
    outcome.put(
        "request_p50_s",
        median([percentile(values, 0.50) for values in pass_latencies if values]),
        "s",
    )
    outcome.put(
        "request_p90_s",
        median([percentile(values, 0.90) for values in pass_latencies if values]),
        "s",
    )
    outcome.put("peak_rss_mb", rss, "MB")
    hot_replies = {}
    for sample in served:
        if sample.call.kind == "hot":
            hot_replies[sample.call.request.result_key()] = wire_summary(sample.reply)
    hits = sum(summary["must_hits"] for summary in hot_replies.values())
    accesses = sum(summary["accesses"] for summary in hot_replies.values())
    if len(hot_replies) != len(hot):
        outcome.fail(f"only {len(hot_replies)} of {len(hot)} hot requests were served")
    outcome.put("must_hit_share", hits / max(1, accesses), "fraction")
    by_kind = {
        kind: [s.measured for s in served if s.call.kind == kind]
        for kind in ("hot", "fresh", "mitigate")
    }
    print(
        f"passes: {len(walls)}, requests: {len(samples)}; median pass wall "
        f"{median(walls):.3f} reference-speed s, {median(measured_walls):.3f} s as "
        "measured; measured p50 by kind: "
        + ", ".join(
            f"{kind} {percentile(values, 0.5) * 1e3:.1f} ms (n={len(values)})"
            for kind, values in by_kind.items()
            if values
        )
    )


def report_daemon_layers(
    daemon: Daemon, samples: list[Sample], stats_before: dict, outcome: Outcome
) -> None:
    """The service, mitigation and engine-cache metrics, read from the
    daemon's own lifecycle events and counters."""
    rpc, queue_wait, execute = [], [], []
    with daemon.client() as client:
        for sample in samples[: FIRST_PASSES * PASS_SIZE]:
            if sample.error or sample.job_id is None:
                continue
            times = _lifecycle(client.events(sample.job_id), sample.job_id)
            if "queued" not in times or "done" not in times:
                continue
            rpc.append(sample.measured - (times["done"] - times["queued"]))
            if "dispatched" in times:
                queue_wait.append(max(0.0, times["dispatched"] - times["queued"]))
            if "running" in times:
                execute.append(times["done"] - times["running"])
        stats = client.stats()

    def delta(section: str, key: str) -> int:
        after = stats.get(section) or {}
        before = stats_before.get(section) or {}
        return int(after.get(key, 0)) - int(before.get(key, 0))

    def ratio(section: str) -> float:
        hits, misses = delta(section, "hits"), delta(section, "misses")
        return hits / (hits + misses) if hits + misses else 0.0

    mitigations = [s for s in samples if s.call.kind == "mitigate" and s.error is None]
    outcome.put("service.rpc_s", median(rpc), "s")
    outcome.put("service.queue_wait_p50_s", median(queue_wait), "s")
    outcome.put("service.execute_p50_s", median(execute), "s")
    outcome.put("service.coalesced", delta("scheduler", "coalesced"), "count")
    outcome.put("service.store_hit_ratio", ratio("result_store"), "fraction")
    outcome.put("mitigation.rpc_p50_s", median([s.latency for s in mitigations]), "s")
    outcome.put(
        "mitigation.analyses_run",
        median([s.reply["analyses_run"] for s in mitigations]),
        "count",
    )
    outcome.put("engine.compile_hit_ratio", ratio("compile_cache"), "fraction")
    outcome.put("engine.result_hit_ratio", ratio("result_cache"), "fraction")


def replay_layers(expected: dict, hot: list[Call], seed: int, outcome: Outcome) -> None:
    """The analysis-side layer metrics of the daemon's traffic: one pass's
    distinct analysis requests replayed in-process, cold, plain and then
    under the layer probe."""
    calls = [c for c in pass_calls(expected, hot, seed, 0) if c.kind != "mitigate"]
    items = list({c.request.result_key(): c for c in calls}.values())
    series = PassSeries(outcome)
    series.add(run_pass(items))
    series.add(run_pass(items, LayerProbe()))
    engine_ratios = {
        name: outcome.metrics[name]
        for name in ("engine.compile_hit_ratio", "engine.result_hit_ratio")
    }
    report_layers(series, outcome, scaling=False)
    outcome.metrics.update(engine_ratios)
