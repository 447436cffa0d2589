"""Scenario pruning: reduction ratio and wall-clock win.

The multi-color solver drops every speculation scenario whose windows
contain no memory-access site before the fixpoint starts: an access-free
window has an identity transfer, so its slots, virtual edges and
rollback joins are pure bookkeeping — see ``_solver_scenarios`` on
:class:`repro.analysis.multicolor.SpeculativeCacheAnalysis`.  The
unpruned run is the test suite's reference,
``tests/unpruned_reference.py``.

This benchmark sweeps :func:`repro.bench.programs.taint_sparse_kernel_source`
— ``n`` access-free register diamonds in front of a Figure-2-shaped leaky
tail, so ``2n`` of the ``2n + 2`` scenarios are prunable — and times the
unpruned reference ("cold") vs the solver ("pruned") on each size.  On
every size it asserts:

* classifications (and hence the leak verdict, which both runs must
  report: the tail's speculation-only leak survives pruning) are
  **bit-identical** between the cold and the pruned run;
* the pruner removed at least ``REQUIRED_REDUCTION`` of the scenarios.

In full mode the 128-branch kernel must additionally show the pruned
run at least ``REQUIRED_SPEEDUP_AT_128``x faster than the cold run.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_taint_pruning.py [--smoke] [--json]

or under pytest (explicit path, as for all benchmarks)::

    PYTHONPATH=src python -m pytest benchmarks/bench_taint_pruning.py -s
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.programs import taint_sparse_kernel_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION
from repro.frontend import compile_source

# The unpruned solver is a test-only reference implementation.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from unpruned_reference import UnprunedReferenceAnalysis  # noqa: E402

#: Branch counts swept in full mode (scenarios = 2n + 2).
FULL_SIZES = (32, 64, 128, 256)
SMOKE_SIZES = (32,)

#: Minimum fraction of scenarios the pruner must remove on every size
#: (the acceptance floor; these kernels actually prune ~97-99%).
REQUIRED_REDUCTION = 0.30

#: Required pruned-over-cold speedup on the 128-branch kernel (full
#: mode).  Measured 1.2-1.5x; 1.1x leaves headroom for machine noise.
REQUIRED_SPEEDUP_AT_128 = 1.1


def _timed(factory):
    started = time.perf_counter()
    analysis = factory()
    result = analysis.run()
    return time.perf_counter() - started, analysis, result


def run_sweep(sizes):
    rows = []
    for num_branches in sizes:
        program = compile_source(
            taint_sparse_kernel_source(
                num_branches, BENCH_CACHE.num_lines, BENCH_CACHE.line_size
            )
        )

        def engine(cls):
            return cls(
                program, cache_config=BENCH_CACHE, speculation=BENCH_SPECULATION
            )

        cold_time, cold, cold_result = _timed(
            lambda: engine(UnprunedReferenceAnalysis)
        )
        pruned_time, pruned, pruned_result = _timed(
            lambda: engine(SpeculativeCacheAnalysis)
        )
        assert pruned_result.classifications == cold_result.classifications, (
            f"pruned/cold classification divergence at {num_branches} branches"
        )
        assert cold_result.leak_detected and pruned_result.leak_detected, (
            f"the tail's speculation-only leak went missing at {num_branches} "
            "branches (cold "
            f"{cold_result.leak_detected}, pruned {pruned_result.leak_detected})"
        )
        total = len(pruned.vcfg.scenarios)
        retained = len(pruned.solved_scenarios)
        dropped = total - retained
        assert len(cold.solved_scenarios) == total
        reduction = dropped / total
        assert reduction >= REQUIRED_REDUCTION, (
            f"only {dropped}/{total} scenarios pruned at {num_branches} "
            f"branches (required: >= {REQUIRED_REDUCTION:.0%})"
        )
        rows.append(
            {
                "branches": num_branches,
                "scenarios": total,
                "pruned": dropped,
                "retained": retained,
                "reduction": reduction,
                "cold": cold_time,
                "pruned_time": pruned_time,
                "cold_iterations": cold_result.iterations,
                "pruned_iterations": pruned_result.iterations,
            }
        )
    return rows


def report(rows):
    print(
        f"{'branches':>8} {'scenarios':>9} {'pruned':>7} {'reduction':>9} "
        f"{'cold':>10} {'pruned-run':>10} {'cold/pruned':>12} "
        f"{'iters':>11}"
    )
    for row in rows:
        ratio = row["cold"] / row["pruned_time"]
        iters = f"{row['cold_iterations']}/{row['pruned_iterations']}"
        print(
            f"{row['branches']:>8} {row['scenarios']:>9} {row['pruned']:>7} "
            f"{row['reduction']:>8.0%} {row['cold'] * 1000:8.1f}ms "
            f"{row['pruned_time'] * 1000:8.1f}ms {ratio:>11.1f}x {iters:>11}"
        )


def _maybe_write_json(args, rows, speedups, elapsed) -> None:
    if not args.json:
        return
    import benchlib

    path = benchlib.write_bench_json(
        "taint_pruning",
        params={"smoke": args.smoke},
        rows=rows,
        speedups=speedups,
        wall_seconds=elapsed,
    )
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="32 branches, identity + reduction checks only "
                             "(CI-sized)")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_taint_pruning.json (see benchlib)")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    started = time.perf_counter()
    rows = run_sweep(sizes)
    elapsed = time.perf_counter() - started
    report(rows)
    print(f"\n{len(rows)} kernel sizes analysed in {elapsed:.2f}s")
    if args.smoke:
        row = rows[0]
        print(
            f"OK (smoke): {row['pruned']}/{row['scenarios']} scenarios pruned "
            f"({row['reduction']:.0%}), classifications and leak verdict "
            "bit-identical"
        )
        _maybe_write_json(args, rows, {}, elapsed)
        return 0
    at_128 = next(row for row in rows if row["branches"] == 128)
    speedup = at_128["cold"] / at_128["pruned_time"]
    assert speedup >= REQUIRED_SPEEDUP_AT_128, (
        f"pruned run only {speedup:.2f}x faster than the cold run at 128 "
        f"branches (required: {REQUIRED_SPEEDUP_AT_128}x)"
    )
    print(
        f"OK: pruning removed {at_128['reduction']:.0%} of scenarios and ran "
        f"{speedup:.1f}x faster on the 128-branch kernel "
        f"(>= {REQUIRED_SPEEDUP_AT_128}x), classifications bit-identical"
    )
    _maybe_write_json(args, rows, {"pruned_over_cold_at_128": speedup}, elapsed)
    return 0


def test_taint_pruning_smoke():
    """Pytest entry point: the smoke-sized sweep with identity checks."""
    assert main(["--smoke"]) == 0


if __name__ == "__main__":
    raise SystemExit(main())
