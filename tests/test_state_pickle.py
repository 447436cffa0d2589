"""Pickled cache states: the one persistent form abstract states take.

Stored results (:class:`~repro.service.store.ResultStore`) embed their
entry states as pickles, and a pickle carries the age maps, never bit
positions, so an unpickled state lives in an ad-hoc block universe.
Pinned here, across every state flavour × geometry × policy: a pickle
round trip yields an equal state of the same type; equal states hash
alike whatever their construction order; and the lattice operations of
an unpickled state agree with those of the state it was pickled from.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import compile_source
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.bench.programs import branchy_kernel_source
from repro.cache.abstract import AGE_INFINITY, CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import MemoryBlock
from repro.service.store import ResultStore
from repro.speculation.config import SpeculationConfig

SEED = 0x51C4E

#: Fully and set-associative, lru and fifo.
GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, policy="fifo"),
    CacheConfig(num_lines=8, line_size=64, associativity=2),
    CacheConfig(num_lines=16, line_size=64, associativity=4, policy="fifo"),
]

SYMBOLS = ["a", "key", "sbox", "cnd"]


def random_blocks(rng: random.Random, count: int) -> list[MemoryBlock]:
    # Negative indices are placeholder lines.
    return [
        MemoryBlock(rng.choice(SYMBOLS), rng.choice([0, 1, 32, 1023, -1, -17]))
        for _ in range(count)
    ]


def random_flat(rng: random.Random, num_lines: int, policy: str) -> CacheState:
    ages = {
        block: rng.choice([0, 1, num_lines - 1, AGE_INFINITY])
        for block in random_blocks(rng, rng.randrange(0, 6))
    }
    return CacheState(num_lines=num_lines, ages=ages, policy=policy)


def random_shadow(rng: random.Random, num_lines: int, policy: str) -> ShadowCacheState:
    must = {
        block: rng.randrange(num_lines)
        for block in random_blocks(rng, rng.randrange(0, 4))
    }
    may = dict(must)
    for block in random_blocks(rng, rng.randrange(0, 4)):
        may.setdefault(block, rng.randrange(num_lines))
    return ShadowCacheState(num_lines=num_lines, must=must, may=may, policy=policy)


def random_state(rng: random.Random, config: CacheConfig, shadow: bool):
    maker = random_shadow if shadow else random_flat
    if config.associativity is None:
        return maker(rng, config.num_lines, config.policy)
    num_sets = config.num_lines // config.associativity
    return SetAssocCacheState(
        num_sets=num_sets,
        ways=config.associativity,
        sets=tuple(
            maker(rng, config.associativity, config.policy) for _ in range(num_sets)
        ),
    )


def reversed_copy(state):
    """An equal state built with every age map in reverse insertion order."""
    if isinstance(state, SetAssocCacheState):
        return SetAssocCacheState(
            num_sets=state.num_sets,
            ways=state.ways,
            sets=tuple(reversed_copy(cache_set) for cache_set in state.sets),
            is_bottom=state.is_bottom,
        )
    if isinstance(state, ShadowCacheState):
        return ShadowCacheState(
            num_lines=state.num_lines,
            must=dict(reversed(list(state.must.items()))),
            may=dict(reversed(list(state.may.items()))),
            is_bottom=state.is_bottom,
            policy=state.policy,
        )
    return CacheState(
        num_lines=state.num_lines,
        ages=dict(reversed(list(state.ages.items()))),
        is_bottom=state.is_bottom,
        policy=state.policy,
    )


def round_trip(state):
    return pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))


GEOMETRY_IDS = ["lru", "fifo", "2way-lru", "4way-fifo"]


class TestPickleRoundTrip:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)), ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("shadow", [False, True], ids=["flat", "shadow"])
    def test_random_states_round_trip(self, geometry, shadow):
        rng = random.Random(SEED + geometry)
        config = GEOMETRIES[geometry]
        for _ in range(50):
            state = random_state(rng, config, shadow)
            loaded = round_trip(state)
            assert type(loaded) is type(state)
            assert loaded == state
            assert hash(loaded) == hash(state)

    @pytest.mark.parametrize("shadow", [False, True], ids=["flat", "shadow"])
    def test_bottom_states_round_trip(self, shadow):
        flat_cls = ShadowCacheState if shadow else CacheState
        kwargs = {"must": {}, "may": {}} if shadow else {"ages": {}}
        bottom = flat_cls(num_lines=4, is_bottom=True, policy="fifo", **kwargs)
        loaded = round_trip(bottom)
        assert loaded == bottom and loaded.is_bottom and loaded.policy == "fifo"
        wrapper = SetAssocCacheState(
            num_sets=2,
            ways=2,
            sets=(
                flat_cls(num_lines=2, is_bottom=True, **kwargs),
                flat_cls(num_lines=2, is_bottom=True, **kwargs),
            ),
            is_bottom=True,
        )
        loaded = round_trip(wrapper)
        assert loaded == wrapper and loaded.is_bottom

    def test_fixpoint_states_survive_the_result_store(self, tmp_path):
        """Real engine output — every reachable block's entry state, in the
        program's block universe — comes back equal from a store entry."""
        program = compile_source(branchy_kernel_source(4))
        store = ResultStore(tmp_path / "store")
        for index, config in enumerate((GEOMETRIES[0], GEOMETRIES[3])):
            result = SpeculativeCacheAnalysis(
                program,
                cache_config=config,
                speculation=SpeculationConfig(depth_miss=64, depth_hit=16),
            ).run()
            states = dict(result.entry_states)
            assert states
            key = f"{index:02x}" * 32
            store.put(key, result)
            assert dict(store.get(key).entry_states) == states


class TestCanonicalValues:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)), ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("shadow", [False, True], ids=["flat", "shadow"])
    def test_construction_order_never_matters(self, geometry, shadow):
        """Equal age maps make equal, equally hashed states whatever order
        their entries were inserted in, pickled or not."""
        rng = random.Random(SEED ^ geometry)
        for _ in range(50):
            state = random_state(rng, GEOMETRIES[geometry], shadow)
            backward = reversed_copy(state)
            assert backward == state
            assert hash(backward) == hash(state)
            assert round_trip(backward) == state


class TestUnpickledOperations:
    @pytest.mark.parametrize("geometry", range(len(GEOMETRIES)), ids=GEOMETRY_IDS)
    @pytest.mark.parametrize("shadow", [False, True], ids=["flat", "shadow"])
    def test_operations_agree_with_the_original(self, geometry, shadow):
        """join, leq and access on an unpickled state (ad-hoc universe)
        give the results of the same operations on the original."""
        rng = random.Random(SEED + 7 * geometry + shadow)
        config = GEOMETRIES[geometry]
        for _ in range(30):
            left = random_state(rng, config, shadow)
            right = random_state(rng, config, shadow)
            loaded = round_trip(left)
            assert loaded.join(right) == left.join(right)
            assert right.join(loaded) == right.join(left)
            assert loaded.leq(right) == left.leq(right)
            assert right.leq(loaded) == right.leq(left)
            assert loaded.leq(left) and left.leq(loaded)
            for block in random_blocks(rng, 3):
                assert loaded.access_block(block) == left.access_block(block)
