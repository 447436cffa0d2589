"""The benchmark's own tests.

Run explicitly (they are not part of the repository's test suite)::

    python3 -m pytest perfbench/check_bench.py -q

* every workload, at the shortest run length, reports every metric that
  ``BENCHMARK.json`` declares, with its unit, in both modes;
* a deliberately wrong known answer makes the correctness gate fail;
* the generators change content, never structure, across seeds;
* the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.common import (  # noqa: E402
    REFERENCE_ROUND_S,
    WORK,
    Outcome,
    ReferenceClock,
    pin_environment,
    reference_scale,
)

pin_environment()

from perfbench import batch  # noqa: E402
from perfbench.checks import load_expected  # noqa: E402
from perfbench.run import WORKLOADS, declared_metrics  # noqa: E402


@pytest.fixture
def work_dir():
    """A scratch directory inside the checkout, removed afterwards."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_declared_metric(workload, trace):
    completed = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    reported = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert reported == declared_metrics(trace == "1")
    if trace == "0":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_wrong_miss_count_fails_the_gate():
    expected = copy.deepcopy(load_expected())
    expected["paper_tables"]["table5_misses"]["adpcm"]["baseline"] += 1
    outcome = Outcome()
    batch.run_batch_workload("paper_tables", expected, 1, 0.01, False, outcome)
    assert outcome.failed == 1
    assert "adpcm/baseline: misses" in outcome.failures[0]


def test_wrong_leak_verdict_fails_the_gate():
    expected = copy.deepcopy(load_expected())
    expected["paper_tables"]["table7_speculation_only_leaks"].remove("des")
    outcome = Outcome()
    batch.run_batch_workload("paper_tables", expected, 1, 0.01, False, outcome)
    assert outcome.failed == 1
    assert "des/speculative: leak_detected" in outcome.failures[0]


def test_wrong_daemon_answer_fails_the_gate():
    from perfbench.daemon import run_daemon_workload

    expected = copy.deepcopy(load_expected())
    expected["daemon_fresh"]["speculative"]["misses"] += 1
    outcome = Outcome()
    run_daemon_workload(expected, 1, 0.01, False, outcome)
    assert outcome.failed > 0
    assert all("fresh/fresh: misses" in failure for failure in outcome.failures)


def test_expected_data_contradicting_the_paper_is_refused(work_dir):
    data = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    data["paper_tables"]["table5_misses"]["vga"]["just_in_time"] += 1
    path = work_dir / "expected.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="vga"):
        load_expected(path)


def test_reference_clock_scales_every_duration():
    assert reference_scale(REFERENCE_ROUND_S, REFERENCE_ROUND_S) == 1.0
    clock = ReferenceClock()
    durations = [0.004, 0.2, 0.0, 0.3, 0.001]
    for seconds in durations:
        clock.add(seconds)
    scaled = clock.finish()
    assert clock.measured == durations
    assert len(scaled) == len(durations)
    assert scaled[2] == 0.0
    assert all(value > 0 for index, value in enumerate(scaled) if index != 2)
    # The first two durations share one stretch, so one factor.
    assert scaled[0] / durations[0] == pytest.approx(scaled[1] / durations[1])


def test_seeds_change_content_not_structure():
    expected = load_expected()
    first = batch.branchy_items(expected, 1, 0)
    second = batch.branchy_items(expected, 2, 0)
    assert [i.request.source for i in first] != [i.request.source for i in second]
    assert batch.run_pass(first).signature == batch.run_pass(second).signature


def test_refuses_to_run_without_sources(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir)
    shutil.copytree(ROOT / "perfbench", work_dir / "perfbench")
    completed = run_benchmark(
        "--workload", "paper_tables", "--seed", "1", "--seconds", "1", cwd=work_dir
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
