"""Compact, versioned binary serialization of abstract cache states.

Abstract states outlive the analysis that computed them in retained
incremental-analysis snapshots (:mod:`repro.engine.incremental`), which
hold every block's normal state and speculative slots.  Pickling the
object graph pays for class dispatch, per-entry
:class:`~repro.ir.memory.MemoryBlock` instances and repeated symbol
strings on every entry; this codec instead writes a *symbol-interned
varint format*:

* one header (magic + format version + payload tag) per blob;
* one symbol table per blob — each distinct symbol name is written once
  and referenced by index, which is what makes encoding a whole
  block → state *map* (the snapshot shape) dramatically smaller than
  per-state pickles: programs reuse the same few dozen symbols in every
  state;
* ages, block indices, geometry and counts as LEB128 varints (block
  indices zigzag-encoded: placeholder lines are negative).

All three state flavours are supported — the flat
:class:`~repro.cache.abstract.CacheState`, the shadow-refined
:class:`~repro.cache.shadow.ShadowCacheState`, and the per-set product
:class:`~repro.cache.setassoc.SetAssocCacheState` wrapping either — for
every geometry and replacement policy.  ``decode_state(encode_state(s))``
is guaranteed equal to ``s`` (entries are written in sorted block order,
so equal states encode to equal bytes).  The format names blocks by
symbol and index, never by bit position, so it is independent of the
in-memory bit-plane layout: the decoders take the
:class:`~repro.ir.memory.BlockUniverse` to decode into (a program's, so
decoded states meet its live states without re-packing), or build one
shared by every state of the blob.

The format is versioned: a blob written under a different
:data:`CODEC_VERSION`, a foreign magic, an unknown tag, or trailing bytes
all raise :class:`CodecError` — readers never guess.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache.abstract import CacheState
from repro.cache.shadow import ShadowCacheState
from repro.cache.setassoc import SetAssocCacheState
from repro.ir.memory import BlockUniverse, MemoryBlock

#: Leading bytes of every codec blob.
MAGIC = b"RSC"

#: Bump whenever the byte layout changes incompatibly.  Decoders reject
#: every other version outright (snapshot consumers prefer recomputation
#: over misinterpretation).
CODEC_VERSION = 1

#: Payload tags (one state vs a block-name → state map).
_TAG_STATE = 0x01
_TAG_STATE_MAP = 0x02

#: State-kind tags.
_KIND_FLAT = 0x01      # CacheState
_KIND_SHADOW = 0x02    # ShadowCacheState
_KIND_SETASSOC = 0x03  # SetAssocCacheState

_POLICY_TO_TAG = {"lru": 0, "fifo": 1}
_TAG_TO_POLICY = {tag: policy for policy, tag in _POLICY_TO_TAG.items()}

_FLAG_BOTTOM = 0x01


class CodecError(ValueError):
    """Raised for blobs this codec version cannot (or must not) decode."""


# ----------------------------------------------------------------------
# Varint primitives
# ----------------------------------------------------------------------
def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise CodecError(f"cannot encode negative varint {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


# ----------------------------------------------------------------------
# Symbol interning
# ----------------------------------------------------------------------
class _SymbolTable:
    """Order-of-first-use string interning shared across one blob."""

    def __init__(self) -> None:
        self.symbols: list[str] = []
        self._index: dict[str, int] = {}

    def intern(self, symbol: str) -> int:
        index = self._index.get(symbol)
        if index is None:
            index = len(self.symbols)
            self._index[symbol] = index
            self.symbols.append(symbol)
        return index

    def emit(self, out: bytearray) -> None:
        _write_uvarint(out, len(self.symbols))
        for symbol in self.symbols:
            encoded = symbol.encode("utf-8")
            _write_uvarint(out, len(encoded))
            out.extend(encoded)

    @staticmethod
    def parse(data: bytes, pos: int) -> tuple[list[str], int]:
        count, pos = _read_uvarint(data, pos)
        symbols: list[str] = []
        for _ in range(count):
            length, pos = _read_uvarint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated symbol table")
            symbols.append(data[pos : pos + length].decode("utf-8"))
            pos += length
        return symbols, pos


# ----------------------------------------------------------------------
# Age maps (the {MemoryBlock: age} payload shared by all flavours)
# ----------------------------------------------------------------------
def _emit_age_map(out: bytearray, ages: Mapping[MemoryBlock, int], table: _SymbolTable) -> None:
    _write_uvarint(out, len(ages))
    # Sorted block order makes the encoding canonical: equal states encode
    # to equal bytes, and decoded dict order is deterministic.
    for block in sorted(ages):
        _write_uvarint(out, table.intern(block.symbol))
        _write_uvarint(out, _zigzag(block.index))
        _write_uvarint(out, ages[block])


def _parse_age_map(data: bytes, pos: int, symbols: list[str]) -> tuple[dict[MemoryBlock, int], int]:
    count, pos = _read_uvarint(data, pos)
    ages: dict[MemoryBlock, int] = {}
    for _ in range(count):
        sym_index, pos = _read_uvarint(data, pos)
        try:
            symbol = symbols[sym_index]
        except IndexError:
            raise CodecError(f"symbol index {sym_index} out of range") from None
        raw_index, pos = _read_uvarint(data, pos)
        age, pos = _read_uvarint(data, pos)
        ages[MemoryBlock(symbol, _unzigzag(raw_index))] = age
    return ages, pos


# ----------------------------------------------------------------------
# State bodies (header-less; symbol table supplied by the caller)
# ----------------------------------------------------------------------
def _emit_flat_maps(out: bytearray, state, table: _SymbolTable) -> None:
    """The per-flavour age map(s) of one flat (single-set) state."""
    if isinstance(state, ShadowCacheState):
        _emit_age_map(out, state.must, table)
        _emit_age_map(out, state.may, table)
    else:
        _emit_age_map(out, state.ages, table)


def _emit_state_body(out: bytearray, state, table: _SymbolTable) -> None:
    if isinstance(state, SetAssocCacheState):
        inner = state.sets[0]
        out.append(_KIND_SETASSOC)
        out.append(_KIND_SHADOW if isinstance(inner, ShadowCacheState) else _KIND_FLAT)
        out.append(_POLICY_TO_TAG[inner.policy])
        out.append(_FLAG_BOTTOM if state.is_bottom else 0)
        _write_uvarint(out, state.num_sets)
        _write_uvarint(out, state.ways)
        for per_set in state.sets:
            out.append(_FLAG_BOTTOM if per_set.is_bottom else 0)
            _emit_flat_maps(out, per_set, table)
        return
    if isinstance(state, ShadowCacheState):
        out.append(_KIND_SHADOW)
    elif isinstance(state, CacheState):
        out.append(_KIND_FLAT)
    else:
        raise CodecError(f"cannot encode {type(state).__name__}")
    out.append(_POLICY_TO_TAG[state.policy])
    out.append(_FLAG_BOTTOM if state.is_bottom else 0)
    _write_uvarint(out, state.num_lines)
    _emit_flat_maps(out, state, table)


# Parsing yields plain specs first — ``("flat", lines, policy, bottom,
# ages)``, ``("shadow", lines, policy, bottom, must, may)`` or
# ``("setassoc", sets, ways, bottom, [specs])`` — so that every state of
# a blob can be built over one universe once all its blocks are known.
def _parse_flat_state(
    data: bytes, pos: int, symbols: list[str], kind: int, policy: str,
    bottom: bool, num_lines: int,
):
    if kind == _KIND_SHADOW:
        must, pos = _parse_age_map(data, pos, symbols)
        may, pos = _parse_age_map(data, pos, symbols)
        return ("shadow", num_lines, policy, bottom, must, may), pos
    ages, pos = _parse_age_map(data, pos, symbols)
    return ("flat", num_lines, policy, bottom, ages), pos


def _parse_state_body(data: bytes, pos: int, symbols: list[str]):
    if pos >= len(data):
        raise CodecError("truncated state body")
    kind = data[pos]
    pos += 1
    if kind == _KIND_SETASSOC:
        if pos + 3 > len(data):
            raise CodecError("truncated set-associative header")
        inner_kind = data[pos]
        policy_tag = data[pos + 1]
        flags = data[pos + 2]
        pos += 3
        if inner_kind not in (_KIND_FLAT, _KIND_SHADOW):
            raise CodecError(f"unknown per-set state kind 0x{inner_kind:02x}")
        policy = _TAG_TO_POLICY.get(policy_tag)
        if policy is None:
            raise CodecError(f"unknown policy tag 0x{policy_tag:02x}")
        num_sets, pos = _read_uvarint(data, pos)
        ways, pos = _read_uvarint(data, pos)
        if num_sets <= 0:
            raise CodecError("set-associative state needs at least one set")
        sets = []
        for _ in range(num_sets):
            if pos >= len(data):
                raise CodecError("truncated per-set state")
            set_bottom = bool(data[pos] & _FLAG_BOTTOM)
            pos += 1
            per_set, pos = _parse_flat_state(
                data, pos, symbols, inner_kind, policy, set_bottom, ways
            )
            sets.append(per_set)
        return ("setassoc", num_sets, ways, bool(flags & _FLAG_BOTTOM), sets), pos
    if kind not in (_KIND_FLAT, _KIND_SHADOW):
        raise CodecError(f"unknown state kind 0x{kind:02x}")
    if pos + 2 > len(data):
        raise CodecError("truncated state header")
    policy = _TAG_TO_POLICY.get(data[pos])
    if policy is None:
        raise CodecError(f"unknown policy tag 0x{data[pos]:02x}")
    bottom = bool(data[pos + 1] & _FLAG_BOTTOM)
    pos += 2
    num_lines, pos = _read_uvarint(data, pos)
    return _parse_flat_state(data, pos, symbols, kind, policy, bottom, num_lines)


def _spec_blocks(spec, out: set) -> None:
    if spec[0] == "setassoc":
        for per_set in spec[4]:
            _spec_blocks(per_set, out)
        return
    for ages in spec[4:]:
        out.update(ages)


def _build_state(spec, universe: BlockUniverse):
    if spec[0] == "setassoc":
        _, num_sets, ways, bottom, sets = spec
        return SetAssocCacheState(
            num_sets=num_sets,
            ways=ways,
            sets=tuple(_build_state(per_set, universe) for per_set in sets),
            is_bottom=bottom,
        )
    if spec[0] == "shadow":
        _, num_lines, policy, bottom, must, may = spec
        return ShadowCacheState(
            num_lines=num_lines, must=must, may=may,
            is_bottom=bottom, policy=policy, universe=universe,
        )
    _, num_lines, policy, bottom, ages = spec
    return CacheState(
        num_lines=num_lines, ages=ages, is_bottom=bottom, policy=policy,
        universe=universe,
    )


def _build_states(specs, universe: BlockUniverse | None) -> list:
    """Build every parsed state over one universe: ``universe`` extended
    by any block it lacks, or a sorted universe of the blob's blocks."""
    blocks: set = set()
    for spec in specs:
        _spec_blocks(spec, blocks)
    if universe is None:
        universe = BlockUniverse(sorted(blocks))
    else:
        universe = universe.extended(sorted(b for b in blocks if b not in universe.index))
    return [_build_state(spec, universe) for spec in specs]


# ----------------------------------------------------------------------
# Blob framing
# ----------------------------------------------------------------------
def _emit_header(out: bytearray, tag: int) -> None:
    out.extend(MAGIC)
    out.append(CODEC_VERSION)
    out.append(tag)


def _check_header(data: bytes, expected_tag: int) -> int:
    if len(data) < len(MAGIC) + 2:
        raise CodecError("blob too short for a codec header")
    if data[: len(MAGIC)] != MAGIC:
        raise CodecError("bad magic: not a cache-state codec blob")
    version = data[len(MAGIC)]
    if version != CODEC_VERSION:
        raise CodecError(
            f"unsupported codec version {version} (this reader is version {CODEC_VERSION})"
        )
    tag = data[len(MAGIC) + 1]
    if tag != expected_tag:
        raise CodecError(f"unexpected payload tag 0x{tag:02x}")
    return len(MAGIC) + 2


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_state(state) -> bytes:
    """Encode one abstract cache state (any flavour) to a compact blob."""
    table = _SymbolTable()
    body = bytearray()
    _emit_state_body(body, state, table)
    out = bytearray()
    _emit_header(out, _TAG_STATE)
    table.emit(out)
    out.extend(body)
    return bytes(out)


def decode_state(data: bytes, universe: BlockUniverse | None = None):
    """Inverse of :func:`encode_state`, decoding into ``universe`` (see the
    module docstring); raises :class:`CodecError` on any malformed,
    foreign-version or trailing-garbage input."""
    pos = _check_header(data, _TAG_STATE)
    symbols, pos = _SymbolTable.parse(data, pos)
    spec, pos = _parse_state_body(data, pos, symbols)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing byte(s) after state")
    return _build_states([spec], universe)[0]


def encode_state_map(states: Mapping[str, object]) -> bytes:
    """Encode a block-name → state map in one blob with a shared symbol
    table — the snapshot shape.  Keys are written in sorted order
    (canonical bytes for equal maps)."""
    table = _SymbolTable()
    body = bytearray()
    _write_uvarint(body, len(states))
    for name in sorted(states):
        encoded = name.encode("utf-8")
        _write_uvarint(body, len(encoded))
        body.extend(encoded)
        _emit_state_body(body, states[name], table)
    out = bytearray()
    _emit_header(out, _TAG_STATE_MAP)
    table.emit(out)
    out.extend(body)
    return bytes(out)


def decode_state_map(
    data: bytes, universe: BlockUniverse | None = None
) -> dict[str, object]:
    """Inverse of :func:`encode_state_map`; every state is decoded into
    one universe (``universe``, or one built for the blob)."""
    pos = _check_header(data, _TAG_STATE_MAP)
    symbols, pos = _SymbolTable.parse(data, pos)
    count, pos = _read_uvarint(data, pos)
    names: list[str] = []
    specs: list = []
    for _ in range(count):
        length, pos = _read_uvarint(data, pos)
        if pos + length > len(data):
            raise CodecError("truncated map key")
        names.append(data[pos : pos + length].decode("utf-8"))
        pos += length
        spec, pos = _parse_state_body(data, pos, symbols)
        specs.append(spec)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing byte(s) after state map")
    return dict(zip(names, _build_states(specs, universe)))
