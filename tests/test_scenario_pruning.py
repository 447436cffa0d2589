"""Scenario pruning: the solver drops access-free scenarios, and must
agree with the unpruned reference (``tests/unpruned_reference.py``) on
every result field except the pop count."""

from __future__ import annotations

import random

import pytest
from unpruned_reference import UnprunedReferenceAnalysis

from repro import compile_source
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.programs import taint_sparse_kernel_source
from repro.bench.tables import table7_client_request
from repro.cache.config import CacheConfig
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.service.wire import result_to_wire

SEED = 0x7A1A7

BENCH_CACHE = CacheConfig(num_lines=64, line_size=64)

#: Three geometries: a tiny fully-associative cache (misses everywhere),
#: the benchmark cache, and a small two-way FIFO cache.
GEOMETRIES = {
    "4-line": CacheConfig(num_lines=4, line_size=64),
    "64-line": BENCH_CACHE,
    "2-way-fifo": CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
}

#: Wire fields allowed to differ: the pop count (pruning pops fewer
#: blocks) and the fields that say how, not what, was computed.
UNCOMPARED_FIELDS = ("iterations", "analysis_time", "provenance", "from_cache")


def random_secret_source(rng: random.Random, num_statements: int = 10) -> str:
    """Seeded random MiniC mixing diamonds with and without accesses,
    register-only runs, and secret-derived accesses.  Diamonds whose arms
    and continuations hold no access have access-free windows; a
    memory condition makes their depth choice depend on the cache
    state."""
    arrays = 4
    decls = [f"char a{i}[64];" for i in range(arrays)]
    decls += ["char cnd[256];", "char sbox[256];", "secret int key;", "reg int p;"]

    def access() -> str:
        return f"a{rng.randrange(arrays)}[{rng.choice([0, 32])}];"

    def condition() -> str:
        if rng.random() < 0.5:
            return f"cnd[{rng.randrange(4) * 64}]"
        return f"p > {rng.randrange(4)}"

    body = []
    for _ in range(num_statements):
        roll = rng.random()
        if roll < 0.25:
            body.append("  " + access())
        elif roll < 0.45:
            body.append(f"  if ({condition()}) {{ {access()} }} else {{ {access()} }}")
        elif roll < 0.65:
            bound = rng.randrange(4)
            body.append(f"  if ({condition()}) {{ p = p + {bound + 1}; }}")
        elif roll < 0.85:
            body.extend(f"  p = p * 3 + {k};" for k in range(rng.randrange(2, 9)))
        else:
            body.append("  sbox[key];")
    # A register-only tail of random length: the windows of the last
    # branches run into it and may be long, short or empty.
    body.extend(f"  p = p * 5 + {k};" for k in range(rng.randrange(12)))
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


def compared(result) -> dict:
    wire = result_to_wire(result)
    for name in UNCOMPARED_FIELDS:
        del wire[name]
    return wire


def assert_matches_reference(program, cache, speculation) -> SpeculativeCacheAnalysis:
    """Run the solver and the unpruned reference; returns the solver."""
    analysis = SpeculativeCacheAnalysis(
        program, cache_config=cache, speculation=speculation
    )
    result = analysis.run()
    reference = UnprunedReferenceAnalysis(
        program, cache_config=cache, speculation=speculation
    ).run()
    assert compared(result) == compared(reference)
    assert result.entry_states == reference.entry_states
    assert result.iterations <= reference.iterations
    return analysis


def speculation_for(strategy: MergeStrategy) -> SpeculationConfig:
    return SpeculationConfig.paper_default().with_strategy(strategy)


@pytest.fixture(scope="module")
def table7_programs() -> dict:
    programs = {}
    for name in CRYPTO_BENCHMARKS:
        request = table7_client_request(name)
        programs[name] = compile_source(request.source, line_size=request.line_size)
    return programs


@pytest.fixture(scope="module")
def seeded_corpus() -> list:
    rng = random.Random(SEED)
    return [compile_source(random_secret_source(rng)) for _ in range(8)]


class TestReferenceAgreement:
    """The whole wire result, minus the pop count, equals the unpruned
    reference's: classifications, leak flag, branch and virtual-edge
    counters and the depth-bounding counter ``virtual_edges_active``."""

    @pytest.mark.parametrize("name", sorted(CRYPTO_BENCHMARKS))
    def test_table7_harnesses(self, name, table7_programs):
        request = table7_client_request(name)
        assert_matches_reference(
            table7_programs[name], request.resolved_cache_config, request.speculation
        )

    @pytest.mark.parametrize("strategy", list(MergeStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_table7_harnesses_across_strategies(
        self, strategy, geometry, table7_programs
    ):
        for name in ("hash", "des", "str2key"):
            assert_matches_reference(
                table7_programs[name], GEOMETRIES[geometry], speculation_for(strategy)
            )

    @pytest.mark.parametrize("strategy", list(MergeStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_seeded_corpus(self, strategy, geometry, seeded_corpus):
        for program in seeded_corpus:
            assert_matches_reference(
                program, GEOMETRIES[geometry], speculation_for(strategy)
            )

    @pytest.mark.parametrize("strategy", list(MergeStrategy), ids=lambda s: s.value)
    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_taint_sparse_kernel(self, strategy, geometry):
        program = compile_source(taint_sparse_kernel_source(8))
        analysis = assert_matches_reference(
            program, GEOMETRIES[geometry], speculation_for(strategy)
        )
        # Every diamond's two scenarios are access-free; the tail's two
        # are not.
        assert len(analysis.vcfg.scenarios) - len(analysis.solved_scenarios) >= 16
        assert len(analysis.solved_scenarios) == 2

    def test_static_depth_bound(self):
        """Without dynamic depth bounding every window stays long."""
        program = compile_source(taint_sparse_kernel_source(4))
        speculation = SpeculationConfig(dynamic_depth_bounding=False)
        assert_matches_reference(program, BENCH_CACHE, speculation)


class TestSolvedScenarios:
    def test_vcfg_keeps_the_full_scenario_set(self):
        program = compile_source(taint_sparse_kernel_source(8))
        analysis = SpeculativeCacheAnalysis(program, cache_config=BENCH_CACHE)
        result = analysis.run()
        assert len(analysis.solved_scenarios) < len(analysis.vcfg.scenarios)
        assert result.num_speculative_branches == analysis.vcfg.num_speculative_branches
        assert result.num_virtual_edges == analysis.vcfg.num_virtual_edges

    def test_access_free_colors_hold_no_slots(self):
        program = compile_source(taint_sparse_kernel_source(8))
        analysis = SpeculativeCacheAnalysis(program, cache_config=BENCH_CACHE)
        fixpoint = analysis.solve()
        solved = {scenario.color for scenario in analysis.solved_scenarios}
        colors = {slot[1] for slots in fixpoint.speculative.values() for slot in slots}
        assert colors and colors <= solved

    def test_untracked_scenarios_record_a_depth_choice(self):
        """An untracked scenario whose branch condition is a must hit is
        reported at its short window, as the unpruned run chooses, not at
        the default long one."""
        program = compile_source(taint_sparse_kernel_source(8))
        analysis = SpeculativeCacheAnalysis(program, cache_config=BENCH_CACHE)
        analysis.run()
        solved = {scenario.color for scenario in analysis.solved_scenarios}
        untracked = [s for s in analysis.vcfg.scenarios if s.color not in solved]
        shortened = [
            scenario
            for scenario in untracked
            if analysis.chooser.active_window(scenario) is scenario.window_hit
            and scenario.window_hit.depth < scenario.window_miss.depth
        ]
        assert shortened
