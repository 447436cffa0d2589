"""Run one workload of the repository benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  Both
are listed, with units, in ``BENCHMARK.json``.  Every analysis verdict is
checked against ``perfbench/expected.json`` and, on small generated
programs, against the concrete speculative simulator.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The benchmark needs the program's ``src/``
next to it and exits with status 2 when it is missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_tables", "branchy_scaling", "unroll_heavy", "daemon_mixed")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict[str, str]:
    """``name -> unit`` of the metrics this mode must report."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_code(workload: str, seed: int) -> str:
    """What a fresh interpreter runs for the batch workloads' set-up time:
    imports, building the inputs and the warm-up request."""
    return (
        "import sys; sys.path[:0] = ['src', '.']\n"
        "from perfbench.checks import load_expected\n"
        "from perfbench import batch\n"
        f"batch.BATCH_WORKLOADS[{workload!r}](load_expected(), {seed}, 0)\n"
        "batch.warm_up()\n"
    )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import Outcome, pin_environment, time_setup_subprocess

    # Pinned before the program is first imported.
    environment = pin_environment()
    from perfbench.checks import load_expected, simulator_spot_check

    outcome = Outcome()
    expected = load_expected()
    checks, failures = simulator_spot_check(args.seed)
    outcome.attempted += checks
    for failure in failures:
        outcome.fail(failure)
    trace = bool(args.trace)
    if args.workload == "daemon_mixed":
        from perfbench.daemon import run_daemon_workload

        run_daemon_workload(expected, args.seed, args.seconds, trace, outcome)
    else:
        from perfbench.batch import run_batch_workload

        if not trace:
            outcome.put(
                "setup_s", time_setup_subprocess(setup_code(args.workload, args.seed)), "s"
            )
        run_batch_workload(args.workload, expected, args.seed, args.seconds, trace, outcome)

    declared = declared_metrics(trace)
    reported = {name: unit for name, (_, unit) in outcome.metrics.items()}
    if reported != declared:
        raise RuntimeError(
            f"metrics reported {sorted(reported.items())} differ from those "
            f"declared in BENCHMARK.json {sorted(declared.items())}"
        )
    print("environment: " + json.dumps(environment, sort_keys=True))
    for failure in outcome.failures:
        print(f"FAILED: {failure}")
    print(f"failed_frac: {outcome.failed / max(1, outcome.attempted):.6f}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0 and outcome.attempted > 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
