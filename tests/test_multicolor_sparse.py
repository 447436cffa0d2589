"""Tests for the sparse multi-color engine rebuild: differential equality
against the dense reference (``tests/dense_reference.py``), the heap-based
window construction, the postdominator-tree convergence fix, and the
precomputed slot-placement indices."""

from __future__ import annotations

import random

import pytest
from dense_reference import DenseReferenceAnalysis

from repro import compile_source
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import wcet_benchmark_source
from repro.cache.config import CacheConfig
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.dominators import (
    VIRTUAL_EXIT,
    compute_postdominators,
    immediate_postdominator,
    postdominator_tree,
)
from repro.ir.instructions import CondBranch, Const, Jump, Return, Temp
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.speculation.vcfg import SpeculativeWindow, build_vcfg, compute_window

# ----------------------------------------------------------------------
# Seeded random MiniC programs
# ----------------------------------------------------------------------
SEED = 0x5EED

#: Geometries of the differential matrix: the paper's shape (scaled) and a
#: set-associative FIFO one, so both abstract cache domains are exercised.
GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
]


def random_source(rng: random.Random, num_statements: int = 12) -> str:
    """A random straight-line/diamond/breaking-loop MiniC program.

    Memory-dependent branch conditions produce full-depth scenarios,
    register conditions exercise the dynamic depth bounding, the breaking
    loop survives unrolling (so widening points exist), and the
    secret-indexed access exercises leak classification.
    """
    arrays = 5
    decls = [f"char a{i}[64];" for i in range(arrays)]
    decls += ["char cnd[256];", "char sbox[256];", "secret int key;",
              "reg int p;", "int q;"]

    def access() -> str:
        return f"a{rng.randrange(arrays)}[{rng.choice([0, 32])}];"

    body = []
    for _ in range(num_statements):
        roll = rng.random()
        if roll < 0.40:
            body.append("  " + access())
        elif roll < 0.80:
            cond = f"cnd[{rng.randrange(4) * 64}]" if rng.random() < 0.7 else "p"
            inner = ""
            if rng.random() < 0.3:
                inner = (
                    f" if (cnd[{rng.randrange(4) * 64}])"
                    f" {{ {access()} }} else {{ {access()} }}"
                )
            body.append(f"  if ({cond}) {{ {access()}{inner} }} else {{ {access()} }}")
        elif roll < 0.90:
            body.append(
                "  for (q = 0; q < 8; q = q + 1) {\n"
                f"    {access()}\n"
                f"    if (cnd[{rng.randrange(4) * 64}]) break;\n"
                "  }"
            )
        else:
            body.append("  sbox[key];")
    return (
        "\n".join(decls)
        + "\n\nint main() {\n"
        + "\n".join(body)
        + "\n  return 0;\n}\n"
    )


@pytest.fixture(scope="module")
def random_programs():
    rng = random.Random(SEED)
    return [compile_source(random_source(rng)) for _ in range(4)]


# ----------------------------------------------------------------------
# Sparse engine == dense reference, bit for bit
# ----------------------------------------------------------------------
class TestSparseMatchesDenseReference:
    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)))
    @pytest.mark.parametrize("config_name", ["paper_default", "no_speculation"])
    def test_differential_matrix(
        self, random_programs, strategy, geometry, config_name
    ):
        """The sparse engine's result is identical to the dense reference
        across merge strategies x cache geometries x speculation
        configs on seeded random programs.  The engines share one pop
        schedule by construction, so even the iteration and widening
        counters must agree — asserting them documents that the sparse
        rebuild is an optimisation, not a semantic change."""
        cache = GEOMETRIES[geometry]
        speculation = getattr(SpeculationConfig, config_name)().with_strategy(strategy)
        for program in random_programs:
            dense = DenseReferenceAnalysis(
                program, cache_config=cache, speculation=speculation
            ).run()
            sparse = SpeculativeCacheAnalysis(
                program, cache_config=cache, speculation=speculation
            ).run()
            assert sparse.classifications == dense.classifications
            assert sparse.entry_states == dense.entry_states
            assert sparse.iterations == dense.iterations
            assert sparse.widenings == dense.widenings

    def test_differential_on_table7_harnesses(self, bench_cache):
        for name in ("hash", "des", "str2key"):
            kernel = crypto_kernel(name, 64, 64)
            program = compile_source(build_client_source(kernel, 2880))
            dense = DenseReferenceAnalysis(program, cache_config=bench_cache).run()
            sparse = SpeculativeCacheAnalysis(
                program, cache_config=bench_cache
            ).run()
            assert sparse.classifications == dense.classifications
            assert sparse.iterations == dense.iterations

    def test_differential_on_widening_active_kernel(self, bench_cache):
        """adpcm is the corpus kernel whose fixpoint actually widens; the
        schedules (and therefore the widening timing) must still agree."""
        program = compile_source(wcet_benchmark_source("adpcm"))
        dense = DenseReferenceAnalysis(program, cache_config=bench_cache).run()
        sparse = SpeculativeCacheAnalysis(program, cache_config=bench_cache).run()
        assert dense.widenings > 0, "adpcm stopped widening; pick another kernel"
        assert sparse.classifications == dense.classifications
        assert sparse.widenings == dense.widenings


# ----------------------------------------------------------------------
# Heap-based compute_window
# ----------------------------------------------------------------------
def reference_compute_window(cfg, start: str, depth: int) -> SpeculativeWindow:
    """The pre-heap implementation (sort-the-worklist-per-pop), kept
    verbatim as the equality oracle."""
    from repro.speculation.vcfg import first_fence_index

    if depth <= 0:
        return SpeculativeWindow(depth=depth)
    distance = {start: 0}
    worklist = [start]
    while worklist:
        worklist.sort(key=lambda name: distance[name])
        block_name = worklist.pop(0)
        if first_fence_index(cfg, block_name) is not None:
            continue
        block_distance = distance[block_name]
        exit_distance = block_distance + cfg.block(block_name).instruction_count
        if exit_distance >= depth:
            continue
        for successor in cfg.successors(block_name):
            if exit_distance < distance.get(successor, depth):
                distance[successor] = exit_distance
                if successor not in worklist:
                    worklist.append(successor)
    allowed = {}
    for name, dist in distance.items():
        if depth - dist <= 0:
            continue
        limit = cfg.block(name).instruction_count
        fence = first_fence_index(cfg, name)
        if fence is not None:
            limit = min(limit, fence)
        allowance = min(limit, depth - dist)
        if allowance > 0:
            allowed[name] = allowance
    return SpeculativeWindow(depth=depth, allowed=allowed)


class TestComputeWindowHeap:
    @pytest.mark.parametrize("name", sorted(CRYPTO_BENCHMARKS))
    def test_window_equality_on_table7_kernels(self, name):
        """The Dijkstra rewrite computes exactly the windows the old
        sort-based implementation did, for every branch target of every
        Table-7 client harness at both depth bounds."""
        kernel = crypto_kernel(name, 64, 64)
        program = compile_source(build_client_source(kernel, 2880))
        cfg = program.cfg
        starts = set()
        for branch_block in cfg.conditional_blocks():
            terminator = cfg.block(branch_block).terminator
            starts.update(terminator.targets())
        if not starts:
            # Some kernels (e.g. str2key, aes) are branchless once their
            # fixed loops unroll; sweep the windows from every block then.
            starts = set(cfg.reachable_blocks())
        for start in sorted(starts):
            for depth in (16, 20, 200):
                assert compute_window(cfg, start, depth) == reference_compute_window(
                    cfg, start, depth
                )

    def test_window_equality_on_random_programs(self, random_programs):
        for program in random_programs:
            cfg = program.cfg
            for start in cfg.reachable_blocks():
                for depth in (0, 7, 64):
                    assert compute_window(cfg, start, depth) == (
                        reference_compute_window(cfg, start, depth)
                    )


# ----------------------------------------------------------------------
# Postdominator-tree convergence fix
# ----------------------------------------------------------------------
def legacy_immediate_postdominator(cfg, block: str) -> str | None:
    """The pre-fix selection: an inverted chain test (which favours the
    postdominator *nearest the exit*) plus an arbitrary sorted fallback."""
    pdom = compute_postdominators(cfg)
    candidates = pdom.get(block, set()) - {block, VIRTUAL_EXIT}
    if not candidates:
        return None
    for candidate in candidates:
        if all(candidate in pdom[other] for other in candidates if other != candidate):
            return candidate
    return sorted(candidates)[0]


def build_double_diamond() -> CFG:
    """entry branches; both sides join at mid; mid branches; both sides
    join at last; last returns.  ipdom(entry) is mid, NOT last."""
    cfg = CFG(name="double_diamond")
    layout = {
        "entry": ("t1", "f1"),
        "t1": "mid",
        "f1": "mid",
        "mid": ("t2", "f2"),
        "t2": "last",
        "f2": "last",
    }
    for name in ("entry", "t1", "f1", "mid", "t2", "f2", "last"):
        cfg.add_block(BasicBlock(name))
    for name, target in layout.items():
        if isinstance(target, tuple):
            cfg.block(name).terminator = CondBranch(
                cond=Temp("c"), true_target=target[0], false_target=target[1]
            )
        else:
            cfg.block(name).terminator = Jump(target=target)
    cfg.block("last").terminator = Return(value=Const(0))
    return cfg


def build_doomed_branch() -> CFG:
    """entry -> exit | loop; the loop never terminates and contains a
    branch of its own.  That branch has NO postdominators — but the
    iterative sets computed over the full graph never converge past their
    all-nodes initialisation for the doomed region, so the legacy
    fallback picks an arbitrary (alphabetically first) block."""
    cfg = CFG(name="doomed")
    for name in ("entry", "aexit", "loop", "linner", "lback"):
        cfg.add_block(BasicBlock(name))
    cfg.block("entry").terminator = CondBranch(
        cond=Temp("c"), true_target="aexit", false_target="loop"
    )
    cfg.block("aexit").terminator = Return(value=Const(0))
    cfg.block("loop").terminator = CondBranch(
        cond=Temp("d"), true_target="linner", false_target="lback"
    )
    cfg.block("linner").terminator = Jump(target="lback")
    cfg.block("lback").terminator = Jump(target="loop")
    return cfg


class TestPostdominatorTree:
    def test_immediate_not_farthest(self):
        cfg = build_double_diamond()
        tree = postdominator_tree(cfg)
        assert tree["entry"] == "mid"
        assert tree["mid"] == "last"
        assert tree["t1"] == "mid"
        assert tree["last"] is None
        # Regression: the legacy selection returned the farthest
        # postdominator, silently moving the convergence point downstream.
        assert legacy_immediate_postdominator(cfg, "entry") == "last"
        assert immediate_postdominator(cfg, "entry") == "mid"

    def test_doomed_branch_has_no_convergence(self):
        cfg = build_doomed_branch()
        tree = postdominator_tree(cfg)
        assert tree["loop"] is None
        assert tree["linner"] is None
        # Regression: the legacy fallback invented a convergence point for
        # the in-loop branch — a block that does not postdominate it.
        legacy = legacy_immediate_postdominator(cfg, "loop")
        assert legacy is not None
        pdom_restricted = postdominator_tree(cfg)
        assert pdom_restricted["loop"] is None  # nothing postdominates it

    def test_vcfg_convergence_uses_the_tree(self):
        cfg = build_double_diamond()
        vcfg = build_vcfg(cfg, SpeculationConfig(depth_miss=8, depth_hit=4))
        by_branch = {s.branch_block: s for s in vcfg.scenarios}
        assert by_branch["entry"].convergence_block == "mid"
        assert by_branch["mid"].convergence_block == "last"

    def test_doomed_vcfg_never_converges(self):
        cfg = build_doomed_branch()
        vcfg = build_vcfg(cfg, SpeculationConfig(depth_miss=8, depth_hit=4))
        by_branch = {s.branch_block: s for s in vcfg.scenarios}
        assert by_branch["loop"].convergence_block is None


# ----------------------------------------------------------------------
# O(1) scenario lookup and slot-placement indices
# ----------------------------------------------------------------------
class TestScenarioIndices:
    def test_scenario_lookup_is_fixed_at_construction(self, quantl_program):
        import dataclasses

        vcfg = build_vcfg(quantl_program.cfg, SpeculationConfig.paper_default())
        assert isinstance(vcfg.scenarios, tuple)
        first = vcfg.scenario(0)
        assert first.color == 0
        with pytest.raises(KeyError):
            vcfg.scenario(123456)
        assert first in vcfg.scenarios_at(first.branch_block)
        with pytest.raises(dataclasses.FrozenInstanceError):
            vcfg.scenarios = ()
        # A different scenario set is a different VirtualCFG.
        appended = dataclasses.replace(first, color=9999)
        grown = dataclasses.replace(vcfg, scenarios=vcfg.scenarios + (appended,))
        assert grown.scenario(9999) is appended
        assert appended in grown.scenarios_at(first.branch_block)
        with pytest.raises(KeyError):
            vcfg.scenario(9999)

    def test_fixpoint_slots_stay_within_placement_indices(self, bench_cache):
        """Every slot the fixpoint actually materialises lives at a block
        the precomputed window/resume indices predicted."""
        program = compile_source(
            build_client_source(crypto_kernel("des", 64, 64), 2880)
        )
        engine = SpeculativeCacheAnalysis(program, cache_config=bench_cache)
        fixpoint = engine.solve()
        observed = 0
        for block, slots in fixpoint.speculative.items():
            window_colors, resume_colors = engine.possible_slot_colors(block)
            for slot, state in slots.items():
                if getattr(state, "is_bottom", False):
                    continue
                observed += 1
                if slot[0] == "window":
                    assert slot[1] in window_colors, (block, slot)
                else:
                    assert slot[1] in resume_colors, (block, slot)
        assert observed, "expected live speculative slots in the des harness"
