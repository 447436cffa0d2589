"""The bit-plane cache domains against the dictionary oracle.

``tests/dict_domains.py`` keeps the domains as they were when every state
was a ``dict[MemoryBlock, int]``.  Seeded random operation sequences run
on both implementations side by side — concrete, index-unknown, secret
and placeholder-array accesses, ``join``, ``widen`` and ``leq`` — for
plain and shadow states, LRU and FIFO, 1/2/4/64 lines, fully and
set-associative geometries, and both over a program-wide universe and
over states that build their universes as blocks appear (so joins across
universes, which must re-pack, are exercised too).  Decoded maps and
``leq`` answers must be equal at every step.
"""

from __future__ import annotations

import random

import pytest
from dict_domains import DictCacheState, DictSetAssocCacheState, DictShadowCacheState

from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.instructions import MemoryRef
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    BlockUniverse,
    MemoryBlock,
    placeholder_blocks,
)

SEED = 0x9A5E
STEPS = 80
POPULATION = 8

#: Scalars plus two arrays; "arr" is read with unknown indices, "sbox"
#: with secret ones.
SCALARS = [MemoryBlock(name) for name in ("a", "b", "c", "d", "e", "f")]
ARR = [MemoryBlock("arr", index) for index in range(3)]
SBOX = [MemoryBlock("sbox", index) for index in range(4)]
REAL = SCALARS + ARR + SBOX
PROGRAM_UNIVERSE = BlockUniverse(
    REAL + placeholder_blocks("arr", len(ARR)) + placeholder_blocks("sbox", len(SBOX))
)


def unknown_access(symbol: str, blocks: list[MemoryBlock], secret: bool) -> BlockAccess:
    return BlockAccess(
        kind=AccessKind.SECRET if secret else AccessKind.UNKNOWN,
        symbol=symbol,
        blocks=tuple(blocks),
        is_write=False,
        ref=MemoryRef(symbol, index_const=None, index_secret=secret),
    )


def concrete_access(block: MemoryBlock) -> BlockAccess:
    return BlockAccess(
        kind=AccessKind.CONCRETE,
        symbol=block.symbol,
        blocks=(block,),
        is_write=False,
        ref=MemoryRef(block.symbol, index_const=block.index),
    )


def decoded(state):
    """A state's content as plain mappings — the comparison key."""
    if isinstance(state, (SetAssocCacheState, DictSetAssocCacheState)):
        return ("sets", state.is_bottom, tuple(decoded(s) for s in state.sets))
    if isinstance(state, (ShadowCacheState, DictShadowCacheState)):
        return ("shadow", state.is_bottom, dict(state.must), dict(state.may))
    return ("flat", state.is_bottom, dict(state.ages))


def fresh_pair(config: CacheConfig, shadow: bool, universe, bottom: bool):
    if config.is_fully_associative:
        planes = ShadowCacheState if shadow else CacheState
        oracle = DictShadowCacheState if shadow else DictCacheState
        make = "bottom" if bottom else "empty"
        return (
            getattr(planes, make)(config.num_lines, policy=config.policy, universe=universe),
            getattr(oracle, make)(config.num_lines, policy=config.policy),
        )
    planes = SetAssocCacheState.bottom if bottom else SetAssocCacheState.empty
    oracle = DictSetAssocCacheState.bottom if bottom else DictSetAssocCacheState.empty
    return planes(config, shadow, universe), oracle(config, shadow)


def random_access(rng: random.Random, config: CacheConfig) -> BlockAccess:
    roll = rng.random()
    if roll < 0.6:
        return concrete_access(rng.choice(REAL))
    if roll < 0.8:
        return unknown_access("arr", ARR, secret=False)
    if roll < 0.9:
        return unknown_access("sbox", SBOX, secret=True)
    if config.is_fully_associative:
        # A placeholder line touched directly, as the Table-1 rule does.
        return concrete_access(rng.choice(placeholder_blocks("arr", len(ARR))))
    return unknown_access("sbox", SBOX, secret=False)


def run_sequence(config: CacheConfig, shadow: bool, program_universe: bool, seed: int):
    rng = random.Random(seed)
    universe = PROGRAM_UNIVERSE if program_universe else None
    population = [
        fresh_pair(config, shadow, universe, bottom=False),
        fresh_pair(config, shadow, universe, bottom=True),
    ]
    for step in range(STEPS):
        roll = rng.random()
        left_index = rng.randrange(len(population))
        left, left_oracle = population[left_index]
        right, right_oracle = population[rng.randrange(len(population))]
        if roll < 0.55:
            access = random_access(rng, config)
            result = (left.access(access), left_oracle.access(access))
        elif roll < 0.75:
            joined, changed = left.join_changed(right)
            oracle_joined = left_oracle.join(right_oracle)
            assert changed == (not oracle_joined.leq(left_oracle)), step
            assert decoded(left.join(right)) == decoded(joined), step
            result = (joined, oracle_joined)
        elif roll < 0.85:
            # Widen a join against its own predecessor, as the solvers do,
            # or two unrelated states.
            joined = left.join(right)
            oracle_joined = left_oracle.join(right_oracle)
            previous, previous_oracle = (
                (left, left_oracle) if rng.random() < 0.7 else (right, right_oracle)
            )
            result = (joined.widen(previous), oracle_joined.widen(previous_oracle))
        else:
            assert left.leq(right) == left_oracle.leq(right_oracle), step
            assert right.leq(left) == right_oracle.leq(left_oracle), step
            assert (left == right) == (decoded(left) == decoded(right)), step
            continue
        assert decoded(result[0]) == decoded(result[1]), (step, roll)
        assert result[0].leq(left) == result[1].leq(left_oracle), step
        if config.is_fully_associative:
            for block in REAL:
                assert result[0].age(block) == result[1].age(block), (step, block)
                assert result[0].must_hit(block) == result[1].must_hit(block)
        if len(population) < POPULATION:
            population.append(result)
        else:
            population[rng.randrange(len(population))] = result


GEOMETRIES = [
    (lines, policy, associative)
    for lines in (1, 2, 4, 64)
    for policy in ("lru", "fifo")
    for associative in (False, True)
]


@pytest.mark.parametrize("lines,policy,associative", GEOMETRIES)
@pytest.mark.parametrize("shadow", [False, True])
@pytest.mark.parametrize("program_universe", [True, False])
def test_random_sequences_match_dict_oracle(
    lines, policy, associative, shadow, program_universe
):
    if associative:
        config = CacheConfig(num_lines=2 * lines, line_size=64, associativity=lines, policy=policy)
    else:
        config = CacheConfig(num_lines=lines, line_size=64, policy=policy)
    for repeat in range(3):
        seed = SEED + 7919 * repeat + 131 * lines + 17 * associative + 3 * shadow
        run_sequence(config, shadow, program_universe, seed + (policy == "fifo"))


def test_mapping_constructors_match_oracle():
    """The ``ages=``/``must=``/``may=`` keywords build the same maps."""
    rng = random.Random(SEED)
    for _ in range(200):
        ages = {block: rng.randrange(1, 5) for block in rng.sample(REAL, rng.randrange(6))}
        may = {block: rng.randrange(1, 5) for block in rng.sample(REAL, rng.randrange(6))}
        assert CacheState(num_lines=4, ages=ages).ages == ages
        state = ShadowCacheState(num_lines=4, must=ages, may=may)
        assert state.must == ages and state.may == may
        oracle = DictShadowCacheState(num_lines=4, must=ages, may=may)
        for block in REAL:
            assert state.age(block) == oracle.age(block)
            assert state.shadow_age(block) == oracle.shadow_age(block)


def test_states_over_different_universes_repack():
    """Equal maps over differently ordered universes are equal, and join
    across them re-packs (never compares raw bit positions)."""
    forward = BlockUniverse(REAL)
    backward = BlockUniverse(list(reversed(REAL)))
    ages = {SCALARS[0]: 1, SCALARS[1]: 2, ARR[2]: 3}
    other = {SCALARS[1]: 1, ARR[2]: 4, SBOX[0]: 2}
    left = CacheState(num_lines=4, ages=ages, universe=forward)
    right = CacheState(num_lines=4, ages=other, universe=backward)
    assert left == CacheState(num_lines=4, ages=ages, universe=backward)
    expected = DictCacheState(num_lines=4, ages=ages).join(DictCacheState(num_lines=4, ages=other))
    assert left.join(right).ages == expected.ages
    assert right.join(left).ages == expected.ages
    rehomed = right.in_universe(forward)
    assert rehomed.universe is forward and rehomed.ages == right.ages
