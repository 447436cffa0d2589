"""The Cooper-Harvey-Kennedy (post)dominators against the set-based
reference solver (``tests/dominators_reference.py``) on seeded random
CFGs: irreducible regions, several returns, infinite loops, unreachable
blocks and branches whose two arms coincide.  Every public output must be
identical, including ``None`` for blocks that cannot reach an exit."""

from __future__ import annotations

import random

import dominators_reference as reference
import pytest

from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.dominators import (
    VIRTUAL_EXIT,
    common_postdominator,
    compute_dominators,
    compute_postdominators,
    immediate_dominators,
    immediate_postdominator,
    postdominator_tree,
    predecessor_map,
)
from repro.ir.instructions import CondBranch, Const, Jump, Return, Temp
from repro.ir.loops import find_natural_loops

SEED = 0xD0D0


def random_cfg(rng: random.Random, size: int) -> CFG:
    """A CFG of ``size`` blocks with random jumps, branches and returns.

    Random targets give irreducible cycles (multi-entry loops) and
    blocks that can never reach a return; a low return rate makes
    infinite loops common, and any block may end up unreachable.
    """
    names = ["entry"] + [f"b{index}" for index in range(1, size)]
    cfg = CFG(name=f"random{size}")
    for name in names:
        cfg.add_block(BasicBlock(name))
    return_rate = rng.choice([0.05, 0.15, 0.3])
    for index, name in enumerate(names):
        roll = rng.random()
        # Bias forward so that most blocks are reachable from the entry.
        forward = names[index + 1 :] or names
        if roll < return_rate:
            terminator = Return(value=Const(0))
        elif roll < 0.5:
            target = rng.choice(forward if rng.random() < 0.7 else names)
            terminator = Jump(target=target)
        else:
            first = rng.choice(forward if rng.random() < 0.7 else names)
            second = rng.choice(names) if rng.random() < 0.9 else first
            terminator = CondBranch(
                cond=Temp("c"), true_target=first, false_target=second
            )
        cfg.block(name).terminator = terminator
    return cfg


def _loops(loops):
    return [(loop.header, loop.blocks, loop.back_edges) for loop in loops]


CASES = [(seed, size) for seed in range(40) for size in (2, 5, 9, 17, 33)]


@pytest.mark.parametrize("seed,size", CASES)
def test_matches_set_based_reference(seed, size):
    rng = random.Random(SEED + seed * 101 + size)
    cfg = random_cfg(rng, size)
    assert immediate_dominators(cfg) == reference.immediate_dominators(cfg)
    assert list(immediate_dominators(cfg)) == list(reference.immediate_dominators(cfg))
    assert compute_dominators(cfg) == reference.compute_dominators(cfg)
    assert postdominator_tree(cfg) == reference.postdominator_tree(cfg)
    assert compute_postdominators(cfg) == reference.compute_postdominators(cfg)
    assert _loops(find_natural_loops(cfg)) == _loops(reference.find_natural_loops(cfg))
    blocks = cfg.reachable_blocks()
    for block in blocks:
        assert immediate_postdominator(cfg, block) == (
            reference.immediate_postdominator(cfg, block)
        )
    pairs = [(rng.choice(blocks), rng.choice(blocks)) for _ in range(12)]
    for left, right in pairs:
        assert common_postdominator(cfg, left, right) == (
            reference.common_postdominator(cfg, left, right)
        ), (left, right)


def test_random_corpus_covers_the_hard_shapes():
    """The generator really produces what the differential test claims to
    cover: irreducible cycles, several returns and doomed blocks."""
    irreducible = multi_return = doomed = 0
    for seed, size in CASES:
        cfg = random_cfg(random.Random(SEED + seed * 101 + size), size)
        blocks = cfg.reachable_blocks()
        exits = [name for name in cfg.exit_blocks() if name in blocks]
        multi_return += len(exits) >= 2
        tree = postdominator_tree(cfg)
        pdom = compute_postdominators(cfg)
        doomed += any(
            tree[name] is None and VIRTUAL_EXIT in pdom[name] and len(pdom[name]) > 2
            for name in blocks
        )
        # A retreating edge (target earlier in DFS order) that is not a
        # back edge (target does not dominate source) is an irreducible
        # loop entry.
        dom = compute_dominators(cfg)
        order = {name: index for index, name in enumerate(cfg.reverse_postorder())}
        irreducible += any(
            order[target] <= order[source] and target not in dom[source]
            for source in blocks
            for target in cfg.successors(source)
        )
    assert irreducible >= 10
    assert multi_return >= 10
    assert doomed >= 10


def test_predecessor_map_matches_cfg_scan():
    for seed in range(10):
        cfg = random_cfg(random.Random(SEED + seed), 12)
        preds = predecessor_map(cfg)
        assert preds == {name: cfg.predecessors(name) for name in cfg.blocks}
