"""Golden-bytes pins for the cache-state codec and the pickled state format.

``tests/data/codec_golden.json`` holds the encodings of a fixed state
corpus, written by the domain implementation that predates the bit-plane
states.  The codec version was not bumped by that rewrite, so every byte
must still match: result stores and warm-start snapshots written before
it stay readable, and equal states keep encoding to equal bytes.

The corpus covers flat, shadow and set-associative states under LRU and
FIFO (taken from real fixpoints, so the ages are the ones the transfer
functions produce), bottom states, states built through the mapping
constructor keywords, and the blobs of one warm-start snapshot.

The same file holds pickles of a few states in the pre-rewrite format;
results persisted in a :class:`~repro.service.store.ResultStore` embed
states as pickles, so those must keep loading as equal states.

Regenerate the file (``python tests/test_codec_golden.py``) only together
with a :data:`~repro.cache.codec.CODEC_VERSION` bump.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro import compile_source
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.cache.abstract import CacheState
from repro.cache.codec import decode_state, decode_state_map, encode_state, encode_state_map
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.engine.incremental import (
    _flatten_slots,
    execute_retaining,
    snapshot_from_analysis,
    warm_start_from_snapshot,
)
from repro.engine.request import AnalysisRequest
from repro.ir.memory import MemoryBlock
from repro.speculation.config import SpeculationConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "codec_golden.json"

SOURCE = """
char table[512];
char cnd[256];
char sbox[256];
secret int key;
int k;
int main() {
    int x;
    int i;
    x = 0;
    i = k;
    if (cnd[0] > 0) {
        x = x + table[64];
        x = x + sbox[i];
    } else {
        x = x + table[128];
    }
    if (cnd[64] > 0) {
        x = x + table[key];
    }
    x = x + sbox[0] + table[0];
    return x;
}
"""

#: (label, cache config, shadow state) — every state flavour the codec
#: writes: flat and shadow, fully and set-associative, LRU and FIFO.
FIXPOINT_CONFIGS = [
    ("flat_lru", CacheConfig(num_lines=4, line_size=64), False),
    ("shadow_lru", CacheConfig(num_lines=4, line_size=64), True),
    ("flat_fifo", CacheConfig(num_lines=4, line_size=64, policy="fifo"), False),
    ("shadow_fifo", CacheConfig(num_lines=4, line_size=64, policy="fifo"), True),
    ("setassoc_lru", CacheConfig(num_lines=8, line_size=64, associativity=2), True),
    (
        "setassoc_fifo",
        CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
        False,
    ),
]

SPECULATION = SpeculationConfig(depth_miss=8, depth_hit=2)


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


def fixpoint_blobs() -> dict[str, str]:
    """Normal and slot maps of one speculative fixpoint per config."""
    program = compile_source(SOURCE)
    blobs: dict[str, str] = {}
    for label, config, shadow in FIXPOINT_CONFIGS:
        speculation = SpeculationConfig(
            depth_miss=SPECULATION.depth_miss,
            depth_hit=SPECULATION.depth_hit,
            use_shadow_state=shadow,
        )
        analysis = SpeculativeCacheAnalysis(
            program, cache_config=config, speculation=speculation
        )
        analysis.run()
        fixpoint = analysis.last_fixpoint
        blobs[f"{label}.normal"] = encode_state_map(fixpoint.normal).hex()
        blobs[f"{label}.slots"] = encode_state_map(
            _flatten_slots(fixpoint.speculative)
        ).hex()
    return blobs


def snapshot_request() -> AnalysisRequest:
    return AnalysisRequest.speculative(
        SOURCE,
        cache_config=CacheConfig(num_lines=4, line_size=64),
        speculation=SPECULATION,
    )


def snapshot_blobs() -> dict[str, str]:
    request = snapshot_request()
    program = compile_source(SOURCE)
    result, analysis = execute_retaining(request, program)
    snapshot = snapshot_from_analysis(request, program, analysis, result)
    return {
        "snapshot.normal": snapshot.normal_blob.hex(),
        "snapshot.slots": snapshot.slots_blob.hex(),
    }


def build_golden() -> dict:
    return {
        "states": {
            name: encode_state(state).hex()
            for name, state in hand_built_states().items()
        },
        "fixpoints": fixpoint_blobs(),
        "snapshot": snapshot_blobs(),
        "pickles": {
            name: pickle.dumps(state, protocol=2).hex()
            for name, state in hand_built_states().items()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenBytes:
    def test_hand_built_states(self, golden):
        for name, state in hand_built_states().items():
            assert encode_state(state).hex() == golden["states"][name], name

    def test_hand_built_states_decode_equal(self, golden):
        for name, state in hand_built_states().items():
            decoded = decode_state(bytes.fromhex(golden["states"][name]))
            assert decoded == state, name
            assert encode_state(decoded).hex() == golden["states"][name], name

    def test_fixpoint_state_maps(self, golden):
        assert fixpoint_blobs() == golden["fixpoints"]

    def test_snapshot_blobs(self, golden):
        assert snapshot_blobs() == golden["snapshot"]

    def test_decoded_snapshot_reencodes_identically(self, golden):
        """A warm start decoded from the pinned blobs re-encodes to the
        same bytes (decode → live states → encode is the identity)."""
        request = snapshot_request()
        program = compile_source(SOURCE)
        result, analysis = execute_retaining(request, program)
        snapshot = snapshot_from_analysis(request, program, analysis, result)
        object.__setattr__(
            snapshot, "normal_blob", bytes.fromhex(golden["snapshot"]["snapshot.normal"])
        )
        object.__setattr__(
            snapshot, "slots_blob", bytes.fromhex(golden["snapshot"]["snapshot.slots"])
        )
        warm = warm_start_from_snapshot(snapshot)
        assert encode_state_map(warm.normal).hex() == golden["snapshot"]["snapshot.normal"]
        assert (
            encode_state_map(_flatten_slots(warm.slots)).hex()
            == golden["snapshot"]["snapshot.slots"]
        )
        assert decode_state_map(snapshot.normal_blob) == warm.normal

    def test_pre_rewrite_pickles_load_as_equal_states(self, golden):
        for name, state in hand_built_states().items():
            loaded = pickle.loads(bytes.fromhex(golden["pickles"][name]))
            assert type(loaded) is type(state), name
            assert loaded == state, name
            assert encode_state(loaded) == encode_state(state), name


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
