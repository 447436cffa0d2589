"""The correctness gate: known answers and the concrete-simulator spot check.

Every analysis result a workload produces is compared with
``expected.json``; the comparison runs after the timed region.  The
untimed spot check runs the independent concrete
:class:`~repro.speculation.simulator.SpeculativeSimulator` on small
generated programs and requires every access the analysis proves a
must-hit to hit in every simulated execution.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """Read the known answers and check that the pinned Table-5 counts
    still agree with the paper's claims about them (speculation never
    removes misses, just-in-time merging is never worse than merging at
    rollback, and the small-working-set kernels are unaffected)."""
    expected = json.loads(Path(path).read_text(encoding="utf-8"))
    tables = expected["paper_tables"]
    for name, row in tables["table5_misses"].items():
        if not row["baseline"] <= row["just_in_time"] <= row["merge_at_rollback"]:
            raise ValueError(f"expected.json: Table-5 row {name} contradicts the paper")
    for name in tables["table5_speculation_adds_no_misses"]:
        row = tables["table5_misses"][name]
        if row["baseline"] != row["just_in_time"]:
            raise ValueError(f"expected.json: Table-5 row {name} contradicts the paper")
    return expected


def normal_summary(result) -> dict:
    """Miss count plus must-hit and access counts over the normal
    (non-speculative) classifications of one result."""
    normal = [c for c in result.classifications if not c.speculative]
    return {
        "misses": result.miss_count,
        "must_hits": sum(1 for c in normal if c.must_hit),
        "accesses": len(normal),
    }


def compare_summary(label: str, actual: dict, expected: dict) -> list[str]:
    """Mismatches between an actual and an expected summary (only the
    keys ``expected`` names are compared)."""
    return [
        f"{label}: {key} = {actual[key]}, expected {value}"
        for key, value in expected.items()
        if actual[key] != value
    ]


def compare_leak(label: str, leak_detected: bool, leaks: bool) -> list[str]:
    if bool(leak_detected) != leaks:
        return [f"{label}: leak_detected = {leak_detected}, expected {leaks}"]
    return []


# ----------------------------------------------------------------------
# Must-hit => concrete hit
# ----------------------------------------------------------------------
def simulator_spot_check(seed: int) -> tuple[int, list[str]]:
    """Analyse small generated programs of every workload shape and run
    each on the concrete speculative simulator under three branch
    predictors, with one random input set each.  Returns ``(checks,
    failures)``: one check per simulated execution, one failure per
    execution in which a proved must-hit site missed."""
    from repro.analysis import analyze_speculative
    from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION
    from repro.cache.config import CacheConfig
    from repro.frontend import compile_source
    from repro.speculation.config import SpeculationConfig
    from repro.speculation.predictor import (
        AlwaysNotTakenPredictor,
        AlwaysTakenPredictor,
        OpposingPredictor,
    )
    from repro.speculation.simulator import SpeculativeSimulator

    from perfbench.generators import branchy_source, unroll_source, wcet_shaped_source

    rng = random.Random(f"spot/{seed}")
    small_cache = CacheConfig(num_lines=4, line_size=64)
    small_speculation = SpeculationConfig(depth_miss=64, depth_hit=16)
    cases = [
        ("branchy", branchy_source(6, rng.randrange(10**6)), small_cache, small_speculation),
        ("unroll", unroll_source(5, rng.randrange(10**6)), BENCH_CACHE, BENCH_SPECULATION),
        ("wcet", wcet_shaped_source(rng.randrange(10**6)), BENCH_CACHE, BENCH_SPECULATION),
    ]
    predictors = (OpposingPredictor, AlwaysTakenPredictor, AlwaysNotTakenPredictor)
    checks = 0
    failures: list[str] = []
    for label, source, cache, speculation in cases:
        program = compile_source(source)
        must_hits = analyze_speculative(
            program, cache_config=cache, speculation=speculation
        ).must_hit_sites()
        scalars = sorted(
            symbol.name
            for symbol in program.info.globals_table.local_symbols()
            if not symbol.is_array
        )
        for predictor in predictors:
            inputs = {name: rng.randrange(-4, 1000) for name in scalars}
            simulation = SpeculativeSimulator(
                program,
                cache_config=cache,
                speculation=speculation,
                predictor=predictor(),
            ).run(inputs)
            checks += 1
            missed = [
                (record.block_name, record.instruction_index)
                for record in simulation.non_speculative_accesses()
                if (record.block_name, record.instruction_index) in must_hits
                and not record.hit
            ]
            if missed:
                failures.append(
                    f"spot check {label}/{predictor.__name__}: must-hit sites "
                    f"missed concretely: {missed[:3]}"
                )
    return checks, failures
