"""Artifacts and payloads from releases before 1.7, which had a
scenario-sharded scheduler, keep working with the single sparse solver,
and the knobs that selected the scheduler (``mode=``, the shard
parameters and request fields, the CLI flags and ``REPRO_SHARD_BACKEND``)
stay removed.  Likewise for the scenario-pruning switches of releases
before 1.8 (``prune_scenarios``, ``--prune-scenarios`` and
``REPRO_PRUNE_SCENARIOS``): the solver now always prunes.

``tests/data/legacy_result_store.json`` holds one
:class:`~repro.service.store.ResultStore` entry written by repro 1.6.0:
the pickled :class:`~repro.analysis.result.CacheAnalysisResult` carries
the since-removed ``shard_backend_used`` field, and its provenance stamp
the since-removed ``backend`` and ``scenario_shards`` fields.  The file
also records the request's source, cache geometry and result key, and
the result's semantic fingerprint at the time.  It cannot be regenerated
from this tree.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro import compile_source
from repro.analysis import analyze_speculative
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.analysis.result import CacheAnalysisResult
from repro.cache.config import CacheConfig
from repro.engine.engine import execute_request
from repro.engine.request import AnalysisRequest
from repro.obs.provenance import ProvenanceStamp, stamp_for_request
from repro.service.cli import build_parser
from repro.service.store import ResultStore
from repro.service.wire import (
    WireError,
    request_from_wire,
    request_to_wire,
    result_fingerprint,
)

LEGACY_STORE = Path(__file__).resolve().parent / "data" / "legacy_result_store.json"

SOURCE = "char a[64]; char c[64];\nint main() {\n  if (c[0]) { a[0]; }\n  return 0;\n}\n"


@pytest.fixture(scope="module")
def legacy() -> dict:
    return json.loads(LEGACY_STORE.read_text())


def legacy_request(legacy: dict) -> AnalysisRequest:
    return AnalysisRequest.speculative(
        legacy["source"],
        cache_config=CacheConfig(
            num_lines=legacy["num_lines"], line_size=legacy["line_size"]
        ),
    )


# ----------------------------------------------------------------------
# Wire payloads of older clients and stamps
# ----------------------------------------------------------------------
class TestLegacyWire:
    def test_sharded_request_is_refused(self):
        payload = request_to_wire(AnalysisRequest.speculative(SOURCE))
        payload["scenario_shards"] = 2
        with pytest.raises(WireError, match="scenario_shards=2"):
            request_from_wire(payload)

    def test_single_shard_request_is_the_canonical_request(self):
        request = AnalysisRequest.speculative(SOURCE)
        payload = request_to_wire(request)
        payload["scenario_shards"] = 1
        assert request_from_wire(payload) == request
        assert request_from_wire(payload).result_key() == request.result_key()

    @pytest.mark.parametrize("backend", ["serial", "threads", "processes", None])
    def test_shard_backend_key_is_ignored(self, backend):
        request = AnalysisRequest.speculative(SOURCE)
        payload = request_to_wire(request)
        payload["scenario_shards"] = 1
        payload["shard_backend"] = backend
        assert request_from_wire(payload) == request

    @pytest.mark.parametrize("flag", [True, False])
    def test_prune_scenarios_key_is_ignored(self, flag):
        request = AnalysisRequest.speculative(SOURCE)
        payload = request_to_wire(request)
        assert "prune_scenarios" not in payload
        payload["prune_scenarios"] = flag
        restored = request_from_wire(payload)
        assert restored == request
        assert restored.result_key() == request.result_key()

    def test_sharded_count_sent_as_a_string_is_refused(self):
        payload = request_to_wire(AnalysisRequest.speculative(SOURCE))
        payload["scenario_shards"] = "4"
        with pytest.raises(WireError, match="scenario_shards=4"):
            request_from_wire(payload)

    def test_malformed_shard_count_is_a_wire_error(self):
        payload = request_to_wire(AnalysisRequest.speculative(SOURCE))
        payload["scenario_shards"] = "many"
        with pytest.raises(WireError, match="malformed"):
            request_from_wire(payload)

    def test_old_stamp_keys_are_ignored(self):
        stamp = stamp_for_request(AnalysisRequest.speculative(SOURCE))
        wire = stamp.to_wire()
        wire["backend"] = "serial"
        wire["scenario_shards"] = 1
        revived = ProvenanceStamp.from_wire(wire)
        assert revived == stamp
        assert revived.to_wire() == stamp.to_wire()
        # Old stamps also embed the old request payload, which replays.
        wire["request"] = dict(wire["request"], scenario_shards=1, shard_backend=None)
        old_request = ProvenanceStamp.from_wire(wire).replay_request()
        assert old_request == AnalysisRequest.speculative(SOURCE)


# ----------------------------------------------------------------------
# A result stored by the previous release
# ----------------------------------------------------------------------
class TestLegacyStoredResult:
    def test_result_key_is_unchanged(self, legacy):
        assert legacy_request(legacy).result_key() == legacy["result_key"]

    def test_stored_result_loads_and_equals_a_fresh_run(self, legacy, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = legacy["result_key"]
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(bytes.fromhex(legacy["store_entry"]))

        loaded = store.get(key)
        assert isinstance(loaded, CacheAnalysisResult)
        assert "shard_backend_used" not in vars(loaded)
        assert "backend" not in vars(loaded.provenance)
        assert "scenario_shards" not in vars(loaded.provenance)
        assert loaded.provenance.engine_version == legacy["engine_version"]

        fresh = execute_request(legacy_request(legacy))
        # analysis_time is wall-clock; everything else must be equal.
        assert loaded == dataclasses.replace(fresh, analysis_time=loaded.analysis_time)
        assert loaded.iterations == legacy["iterations"]
        assert result_fingerprint(loaded) == legacy["fingerprint"]
        assert result_fingerprint(fresh) == legacy["fingerprint"]
        # The stamp still replays to the same verdict.
        replay = execute_request(loaded.provenance.replay_request())
        assert result_fingerprint(replay) == legacy["fingerprint"]


# ----------------------------------------------------------------------
# The removed knobs stay removed
# ----------------------------------------------------------------------
REMOVED_ANALYSIS_KNOBS = {
    "mode": "dense",
    "scenario_shards": 2,
    "shard_threads": True,
    "shard_backend": "processes",
    "prune_scenarios": True,
}


class TestRemovedKnobs:
    @pytest.mark.parametrize("knob", sorted(REMOVED_ANALYSIS_KNOBS))
    def test_analysis_constructor_rejects(self, knob):
        program = compile_source(SOURCE)
        with pytest.raises(TypeError, match=knob):
            SpeculativeCacheAnalysis(program, **{knob: REMOVED_ANALYSIS_KNOBS[knob]})

    @pytest.mark.parametrize("knob", sorted(REMOVED_ANALYSIS_KNOBS))
    def test_analyze_speculative_rejects(self, knob):
        program = compile_source(SOURCE)
        with pytest.raises(TypeError, match=knob):
            analyze_speculative(program, **{knob: REMOVED_ANALYSIS_KNOBS[knob]})

    @pytest.mark.parametrize(
        "field", ["scenario_shards", "shard_backend", "prune_scenarios"]
    )
    def test_request_rejects(self, field):
        with pytest.raises(TypeError, match=field):
            AnalysisRequest.speculative(SOURCE, **{field: REMOVED_ANALYSIS_KNOBS[field]})

    def test_result_has_no_backend_field(self):
        result = execute_request(AnalysisRequest.speculative(SOURCE))
        assert "shard_backend_used" not in {
            f.name for f in dataclasses.fields(CacheAnalysisResult)
        }
        assert not hasattr(result, "shard_backend_used")

    @pytest.mark.parametrize(
        "flag",
        [["--scenario-shards", "2"], ["--shard-backend", "processes"], ["--prune-scenarios"]],
    )
    def test_cli_submit_rejects(self, flag, tmp_path, capsys):
        path = tmp_path / "kernel.c"
        path.write_text(SOURCE)
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["submit", str(path), *flag])
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["processes", "threads", "bogus"])
    def test_backend_environment_variable_is_ignored(self, value, monkeypatch):
        request = AnalysisRequest.speculative(SOURCE)
        monkeypatch.delenv("REPRO_SHARD_BACKEND", raising=False)
        plain = execute_request(request)
        monkeypatch.setenv("REPRO_SHARD_BACKEND", value)
        forced = execute_request(request)
        assert result_fingerprint(forced) == result_fingerprint(plain)
        assert forced.iterations == plain.iterations

    @pytest.mark.parametrize("value", ["1", "0"])
    def test_prune_environment_variable_is_ignored(self, value, monkeypatch):
        from repro.bench.programs import taint_sparse_kernel_source

        request = AnalysisRequest.speculative(taint_sparse_kernel_source(4))
        monkeypatch.delenv("REPRO_PRUNE_SCENARIOS", raising=False)
        plain = execute_request(request)
        monkeypatch.setenv("REPRO_PRUNE_SCENARIOS", value)
        forced = execute_request(request)
        assert result_fingerprint(forced) == result_fingerprint(plain)
        assert forced.iterations == plain.iterations
