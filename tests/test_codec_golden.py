"""Compatibility pin for the pickled cache-state format.

``tests/data/codec_golden.json`` holds pickles of a few states written
by the domain implementation that predates the bit-plane states.
Results persisted in a :class:`~repro.service.store.ResultStore` embed
their entry states as pickles, so these must keep loading as states
equal to the ones the current constructors build.

The pickles cannot be regenerated: they pin a format that no current
code writes.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.memory import MemoryBlock

GOLDEN_PATH = Path(__file__).parent / "data" / "codec_golden.json"


def _block(symbol: str, index: int = 0) -> MemoryBlock:
    return MemoryBlock(symbol, index)


def hand_built_states() -> dict[str, object]:
    """States built through the public constructors (no transfers)."""
    return {
        "flat_bottom": CacheState.bottom(4),
        "flat_empty": CacheState.empty(8, policy="fifo"),
        "shadow_bottom": ShadowCacheState.bottom(4, policy="fifo"),
        "setassoc_bottom": SetAssocCacheState.bottom(
            CacheConfig(num_lines=8, line_size=64, associativity=2), use_shadow=True
        ),
        "flat_keywords": CacheState(
            num_lines=4, ages={_block("a"): 1, _block("b", 3): 3, _block("b", -2): 2}
        ),
        "shadow_keywords": ShadowCacheState(
            num_lines=4,
            must={_block("x"): 3, _block("z"): 3, _block("k"): 4},
            may={
                _block("x"): 1,
                _block("t"): 1,
                _block("y"): 2,
                _block("z"): 2,
                _block("k"): 4,
            },
        ),
        "flat_transfers": CacheState.empty(4)
        .access_block(_block("a"))
        .access_block(_block("b"))
        .access_unknown_array("arr", 3)
        .access_block(_block("a")),
        "shadow_transfers": ShadowCacheState.empty(4)
        .access_block(_block("a"))
        .access_unknown((_block("t", 0), _block("t", 1)))
        .access_block(_block("b"))
        .access_block(_block("a")),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def assert_same_state(loaded, state, name: str) -> None:
    """Field-by-field equality: geometry, policy, bottom flag and the
    age maps, per set for set-associative states."""
    assert type(loaded) is type(state), name
    assert loaded.is_bottom == state.is_bottom, name
    assert loaded.policy == state.policy, name
    if isinstance(state, SetAssocCacheState):
        assert (loaded.num_sets, loaded.ways) == (state.num_sets, state.ways), name
        assert len(loaded.sets) == len(state.sets), name
        for index, (loaded_set, state_set) in enumerate(zip(loaded.sets, state.sets)):
            assert_same_state(loaded_set, state_set, f"{name}[set {index}]")
        return
    assert loaded.num_lines == state.num_lines, name
    if isinstance(state, ShadowCacheState):
        assert loaded.must == state.must, name
        assert loaded.may == state.may, name
    else:
        assert loaded.ages == state.ages, name


class TestGoldenBytes:
    def test_pre_rewrite_pickles_load_as_equal_states(self, golden):
        for name, state in hand_built_states().items():
            loaded = pickle.loads(bytes.fromhex(golden["pickles"][name]))
            assert type(loaded) is type(state), name
            assert loaded == state, name
            assert_same_state(loaded, state, name)
