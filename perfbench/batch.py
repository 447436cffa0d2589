"""The in-process workloads: ``paper_tables``, ``branchy_scaling`` and
``unroll_heavy``.

A *pass* runs the workload's fixed request set once, each request timed
on its own through ``AnalysisEngine.run`` on a fresh engine, with the
process-wide vcfg scenario memo emptied first: no timed pass is served
by a memo an earlier pass filled.  (Within a pass the engine's compile
cache is shared, as in the table generators: the baseline and
speculative requests of one program compile once.)  The generated
workloads also draw fresh program text for every pass, so even the
content-keyed memos cannot match across passes.

Results are verified after each pass, outside the timed region.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import WCET_BENCHMARKS, wcet_benchmark_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, TABLE7_BUFFER_BYTES
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.obs import metrics
from repro.speculation import vcfg as vcfg_module
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy

from perfbench.checks import compare_leak, compare_summary, normal_summary
from perfbench.common import (
    Deadline,
    Outcome,
    SampledClock,
    median,
    peak_rss_mb,
    percentile,
)
from perfbench.generators import branchy_source, unroll_source
from perfbench.layers import LayerProbe

#: The scenario-scaling configuration of ``benchmarks/bench_scenario_scaling.py``:
#: a 4-line cache keeps transfers cheap, so scheduling cost dominates.
SCALING_CACHE = CacheConfig(num_lines=4, line_size=64)
SCALING_SPECULATION = SpeculationConfig(depth_miss=64, depth_hit=16)

FIXPOINT_COUNTERS = ("fixpoint.pops", "fixpoint.widenings", "fixpoint.slot_retransfers")


@dataclass
class Item:
    """One request of a pass and the answer it must produce."""

    request: AnalysisRequest
    #: Expected normal-access summary (see :func:`normal_summary`); only
    #: the keys given are compared.
    summary: dict = field(default_factory=dict)
    #: Expected leak verdict (None = not checked).
    leaks: bool | None = None

    def verify(self, result) -> list[str]:
        label = f"{self.request.label}/{self.request.kind.value}"
        errors = compare_summary(label, normal_summary(result), self.summary)
        if self.leaks is not None:
            errors += compare_leak(label, result.leak_detected, self.leaks)
        return errors


# ----------------------------------------------------------------------
# Request sets
# ----------------------------------------------------------------------
def paper_table_items(expected: dict, seed: int, pass_index: int) -> list[Item]:
    """Every distinct request behind Tables 5, 6 and 7, in table order:
    per WCET kernel the baseline and the speculative analysis under both
    merge strategies (just-in-time is the paper default, so Table 5's
    speculative column and Table 6's JIT column are one request), per
    crypto kernel the baseline and speculative analysis of its Figure-10
    client harness.  The programs are the paper's, so the seed changes
    nothing; the fixed order makes the same request pay each program's
    compile in every pass."""
    tables = expected["paper_tables"]
    cache = BENCH_CACHE
    items: list[Item] = []
    strategies = {
        "just_in_time": BENCH_SPECULATION.with_strategy(MergeStrategy.JUST_IN_TIME),
        "merge_at_rollback": BENCH_SPECULATION.with_strategy(
            MergeStrategy.MERGE_AT_ROLLBACK
        ),
    }
    for name in WCET_BENCHMARKS:
        misses = tables["table5_misses"][name]
        common = dict(
            source=wcet_benchmark_source(name, cache.num_lines, cache.line_size),
            line_size=cache.line_size,
            cache_config=cache,
            label=name,
        )
        items.append(
            Item(AnalysisRequest.baseline(**common), {"misses": misses["baseline"]})
        )
        for strategy, speculation in strategies.items():
            items.append(
                Item(
                    AnalysisRequest.speculative(speculation=speculation, **common),
                    {"misses": misses[strategy]},
                )
            )
    leaky = set(tables["table7_speculation_only_leaks"])
    for name in CRYPTO_BENCHMARKS:
        kernel = crypto_kernel(name, cache.num_lines, cache.line_size)
        source = build_client_source(
            kernel, TABLE7_BUFFER_BYTES.get(name, cache.size_bytes), line_size=cache.line_size
        )
        common = dict(
            source=source, line_size=cache.line_size, cache_config=cache, label=name
        )
        items.append(Item(AnalysisRequest.baseline(**common), leaks=False))
        items.append(
            Item(
                AnalysisRequest.speculative(speculation=BENCH_SPECULATION, **common),
                leaks=name in leaky,
            )
        )
    return items


def _generated_items(
    workload: str,
    generator,
    sizes: tuple[int, ...],
    cache: CacheConfig,
    speculation: SpeculationConfig,
    expected: dict,
    seed: int,
    pass_index: int,
) -> list[Item]:
    items = []
    for size in sizes:
        source = generator(size, seed * 100_003 + pass_index)
        request = AnalysisRequest.speculative(
            source,
            line_size=cache.line_size,
            cache_config=cache,
            speculation=speculation,
            label=f"{workload}-{size}",
        )
        items.append(Item(request, expected[workload][str(size)]))
    return items


BRANCHY_SIZES = (32, 64, 128)
UNROLL_SIZES = (24, 30, 36)


def branchy_items(expected: dict, seed: int, pass_index: int) -> list[Item]:
    return _generated_items(
        "branchy_scaling", branchy_source, BRANCHY_SIZES,
        SCALING_CACHE, SCALING_SPECULATION, expected, seed, pass_index,
    )


def unroll_items(expected: dict, seed: int, pass_index: int) -> list[Item]:
    return _generated_items(
        "unroll_heavy", unroll_source, UNROLL_SIZES,
        BENCH_CACHE, BENCH_SPECULATION, expected, seed, pass_index,
    )


BATCH_WORKLOADS = {
    "paper_tables": paper_table_items,
    "branchy_scaling": branchy_items,
    "unroll_heavy": unroll_items,
}


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class PassRecord:
    """What one pass leaves behind (results and engine are dropped, so
    earlier passes do not grow the heap later passes run in)."""

    #: Sum of the pass's request times, and the served requests' times,
    #: in reference-speed seconds (see ``SampledClock``).
    wall: float
    latencies: list[float]
    #: ``wall`` as measured, without and with the clock's samples.
    measured_wall: float
    elapsed_wall: float
    #: Engine cache hit rates at the end of the timed pass.
    compile_hit_ratio: float
    result_hit_ratio: float
    counters: dict[str, int]
    attempted: int
    #: One message per failed request (error or wrong answer).
    failures: list[str]
    memo_hits: int
    sites: int
    #: (normal must-hit sites, normal access sites) over the pass.
    must_hits: tuple[int, int]
    #: Deterministic counters that must repeat exactly in every pass and
    #: for every seed.
    signature: tuple
    probe: LayerProbe | None = None

    @property
    def scale(self) -> float:
        """Mean reference-speed factor of the pass, for times measured with
        the clock's samples in (the layer times)."""
        return self.wall / self.elapsed_wall if self.elapsed_wall else 1.0


def clear_vcfg_memo() -> None:
    """Empty the process-wide vcfg scenario memo (a module-private LRU;
    skipped if a later version has none)."""
    memo = getattr(vcfg_module, "_vcfg_memo", None)
    if memo is not None:
        memo.clear()


def vcfg_memo_hits() -> int:
    stats = getattr(vcfg_module, "vcfg_memo_stats", None)
    return stats().hits if stats is not None else 0


def _counter_values() -> dict[str, int]:
    registry = metrics()
    return {name: registry.counter(name).value for name in FIXPOINT_COUNTERS}


def run_pass(items: list[Item], probe: LayerProbe | None = None) -> PassRecord:
    """Time one pass over ``items`` on a fresh engine (with ``probe``
    active when given); verify the results afterwards."""
    clear_vcfg_memo()
    gc.collect()
    engine = AnalysisEngine()
    before = _counter_values()
    memo_before = vcfg_memo_hits()
    served: list[int] = []
    results: list = []
    failures: list[str] = []
    clock = SampledClock()
    if probe is not None:
        probe.__enter__()
    try:
        with clock:
            for index, item in enumerate(items):
                try:
                    with clock.request():
                        result = engine.run(item.request)
                except Exception as error:  # noqa: BLE001 - counted as a failed request
                    failures.append(
                        f"{item.request.label}: {type(error).__name__}: {error}"
                    )
                    continue
                served.append(index)
                results.append((item, result))
        stats = engine.stats
    finally:
        if probe is not None:
            probe.__exit__(None, None, None)
    scaled = clock.scaled
    after = _counter_values()
    counters = {name: after[name] - before[name] for name in FIXPOINT_COUNTERS}
    for item, result in results:
        errors = item.verify(result)
        if errors:
            failures.append("; ".join(errors))
    hits = accesses = 0
    for _, result in results:
        summary = normal_summary(result)
        hits += summary["must_hits"]
        accesses += summary["accesses"]
    sites = sum(len(result.classifications) for _, result in results)
    signature = (
        *counters.values(),
        sites,
        sum(result.num_speculative_branches for _, result in results),
        sum(len(engine.compile(item.request).cfg.blocks) for item, _ in results),
        hits,
        accesses,
    )
    if probe is not None:
        probe_off_pipeline(engine, [item for item, _ in results], probe)
    return PassRecord(
        wall=sum(scaled),
        latencies=[scaled[index] for index in served],
        measured_wall=sum(clock.measured),
        elapsed_wall=sum(clock.elapsed),
        compile_hit_ratio=stats.compile.hit_rate,
        result_hit_ratio=stats.results.hit_rate,
        counters=counters,
        attempted=len(items),
        failures=failures,
        memo_hits=vcfg_memo_hits() - memo_before,
        sites=sites,
        must_hits=(hits, accesses),
        signature=signature,
        probe=probe,
    )


def warm_up() -> None:
    """One small request through the whole pipeline, so lazy imports and
    first-call costs are paid before timing."""
    engine = AnalysisEngine()
    engine.run(
        AnalysisRequest.speculative(
            branchy_source(4, 0), cache_config=SCALING_CACHE, speculation=SCALING_SPECULATION
        )
    )
    engine.run(AnalysisRequest.baseline(branchy_source(4, 1), cache_config=SCALING_CACHE))
    clear_vcfg_memo()


class PassSeries:
    """The passes of one run and the invariants across them."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome
        self.plain: list[PassRecord] = []
        self.traced: list[PassRecord] = []
        self._signature: tuple | None = None

    def add(self, record: PassRecord) -> None:
        outcome = self.outcome
        outcome.attempted += record.attempted
        for failure in record.failures:
            outcome.fail(failure)
        outcome.check(
            record.memo_hits == 0,
            f"{record.memo_hits} vcfg memo hit(s) inside a timed pass",
        )
        if self._signature is None:
            self._signature = record.signature
        outcome.check(
            record.signature == self._signature,
            "deterministic counters (pops, widenings, re-transfers, sites, "
            "branches, blocks, must-hits, accesses) differ between seeds: "
            f"{record.signature} != {self._signature}",
        )
        (self.traced if record.probe is not None else self.plain).append(record)


def run_batch_workload(
    name: str, expected: dict, seed: int, seconds: float, trace: bool, outcome: Outcome
) -> None:
    make_items = BATCH_WORKLOADS[name]
    warm_up()
    series = PassSeries(outcome)
    deadline = Deadline(seconds, minimum=2 if trace else 1)
    pass_index = 0
    while deadline.more():
        items = make_items(expected, seed, pass_index)
        probe = LayerProbe() if trace and pass_index % 2 == 1 else None
        started = time.perf_counter()
        record = run_pass(items, probe)
        series.add(record)
        # The whole pass, verification and off-pipeline probes included,
        # counts against the run length.
        deadline.record(time.perf_counter() - started)
        pass_index += 1
    if trace:
        report_layers(series, outcome, scaling=name == "branchy_scaling")
        # Layers only the daemon workload exercises.
        for metric, unit in DAEMON_ONLY_METRICS.items():
            outcome.put(metric, 0, unit)
    else:
        report_end_to_end(series, outcome)


def report_end_to_end(series: PassSeries, outcome: Outcome) -> None:
    passes = series.plain
    hits, accesses = passes[0].must_hits
    outcome.put("wall_s", median([r.wall for r in passes]), "s")
    outcome.put(
        "request_p50_s", median([percentile(r.latencies, 0.50) for r in passes]), "s"
    )
    outcome.put(
        "request_p90_s", median([percentile(r.latencies, 0.90) for r in passes]), "s"
    )
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    outcome.put("must_hit_share", hits / accesses, "fraction")
    print(
        f"passes: {len(passes)} of {len(passes[0].latencies)} requests "
        f"(walls {', '.join(f'{r.wall:.3f}' for r in passes)} reference-speed s; "
        f"as measured {', '.join(f'{r.measured_wall:.3f}' for r in passes)} s)"
    )


# ----------------------------------------------------------------------
# Traced passes
# ----------------------------------------------------------------------
def probe_off_pipeline(engine: AnalysisEngine, items: list[Item], probe: LayerProbe) -> None:
    """Layers the default pipeline does not run, timed on the pass's own
    compiled programs after the pass: the taint pre-analysis always, the
    baseline analysis on workloads without baseline requests."""
    from repro.analysis.baseline import analyze_baseline
    from repro.analysis.taint import analyze_taint

    has_baseline = any(item.request.kind is AnalysisKind.BASELINE for item in items)
    seen: set[str] = set()
    for item in items:
        key = item.request.compile_key()
        if key in seen:
            continue
        seen.add(key)
        program = engine.compile(item.request)
        started = time.perf_counter()
        analyze_taint(program)
        probe.times["analysis.taint_s"] += time.perf_counter() - started
        if not has_baseline:
            started = time.perf_counter()
            analyze_baseline(program, cache_config=item.request.cache_config)
            probe.times["analysis.baseline_probe_s"] += time.perf_counter() - started


LAYER_TIME_METRICS = (
    "lang.parse_s",
    "lang.typecheck_s",
    "ir.unroll_s",
    "ir.lower_s",
    "ir.inline_s",
    "speculation.vcfg_s",
    "analysis.init_s",
    "analysis.fixpoint_s",
    "analysis.classify_s",
    "analysis.taint_s",
    "engine.overhead_s",
)
DAEMON_ONLY_METRICS = {
    "service.rpc_s": "s",
    "service.queue_wait_p50_s": "s",
    "service.execute_p50_s": "s",
    "service.coalesced": "count",
    "service.store_hit_ratio": "fraction",
    "mitigation.rpc_p50_s": "s",
    "mitigation.analyses_run": "count",
}
LAYER_COUNT_METRICS = (
    "ir.unrolled_iterations",
    "ir.blocks",
    "ir.instructions",
    "speculation.scenarios",
    "speculation.vcfg_memo_hits",
)


def report_layers(series: PassSeries, outcome: Outcome, scaling: bool) -> None:
    """Per-layer metrics: medians over the traced passes; the plain passes
    interleaved with them give the tracing overhead."""
    traced = series.traced
    shares: dict[str, list[float]] = {}
    for record in traced:
        totals = record.probe.layer_totals()
        for layer, seconds in totals.items():
            shares.setdefault(layer, []).append(seconds / record.elapsed_wall)
        covered = sum(totals.values())
        shares.setdefault("unattributed", []).append(
            max(0.0, 1.0 - covered / record.elapsed_wall)
        )
    for metric in LAYER_TIME_METRICS:
        outcome.put(
            metric, median([r.probe.times.get(metric, 0.0) * r.scale for r in traced]), "s"
        )
    baseline = [
        (
            r.probe.times.get("analysis.baseline_s", 0.0)
            + r.probe.times.get("analysis.baseline_probe_s", 0.0)
        )
        * r.scale
        for r in traced
    ]
    outcome.put("analysis.baseline_s", median(baseline), "s")
    for metric in LAYER_COUNT_METRICS:
        outcome.put(metric, traced[0].probe.counts.get(metric, 0), "count")
    first = traced[0]
    outcome.put("analysis.fixpoint_pops", first.counters["fixpoint.pops"], "count")
    outcome.put("analysis.widenings", first.counters["fixpoint.widenings"], "count")
    outcome.put(
        "analysis.slot_retransfers", first.counters["fixpoint.slot_retransfers"], "count"
    )
    outcome.put("analysis.sites", first.sites, "count")
    outcome.put(
        "analysis.fixpoint_doubling_ratio",
        _doubling_ratio(traced) if scaling else 0.0,
        "x",
    )
    outcome.put("engine.compile_hit_ratio", first.compile_hit_ratio, "fraction")
    outcome.put("engine.result_hit_ratio", first.result_hit_ratio, "fraction")
    for layer in ("lang", "ir", "speculation", "analysis", "engine"):
        outcome.put(f"share.{layer}", median(shares[layer]), "fraction")
    outcome.put("obs.unattributed_frac", median(shares["unattributed"]), "fraction")
    outcome.put(
        "obs.trace_overhead_frac",
        median([r.wall for r in traced]) / median([r.wall for r in series.plain]) - 1.0,
        "fraction",
    )
    print(
        f"passes: {len(series.plain)} plain + {len(traced)} traced; layer shares of "
        "traced wall: "
        + ", ".join(f"{layer} {median(values):.1%}" for layer, values in shares.items())
    )


def _doubling_ratio(traced: list[PassRecord]) -> float:
    """Speculative fixpoint time of the largest program over that of the
    program with half as many scenarios."""
    ratios = []
    for record in traced:
        by_size = record.probe.fixpoint_by_scenarios
        largest = max(by_size, default=0)
        if largest and largest // 2 in by_size and by_size[largest // 2] > 0:
            ratios.append(by_size[largest] / by_size[largest // 2])
    return median(ratios)
