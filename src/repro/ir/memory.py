"""Memory layout: mapping program symbols to cache-line-sized blocks.

The cache analysis does not track bytes; it tracks *memory blocks*, i.e.
cache-line-sized chunks of program objects.  A scalar occupies one block;
an array of ``s`` bytes occupies ``ceil(s / line_size)`` blocks.  Objects
never share a block (each object starts at a line boundary), matching the
paper's assumption that the example variables "are mapped to different
cache lines".

Array accesses whose index is statically unknown are resolved using the
paper's convention from Table 1: successive unknown accesses to the same
array conservatively pick successive fresh lines (``decis_lev[1*]``,
``decis_lev[2*]``, ...).  That bookkeeping lives in the analysis; this
module only says *which* blocks an access may touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import cached_property

from repro.errors import ConfigError
from repro.ir.instructions import MemoryRef
from repro.lang.typecheck import ProgramInfo, Symbol


@dataclass(frozen=True, order=True)
class MemoryBlock:
    """One cache-line-sized block of a program object.

    ``index`` is the block's position within its object (0 for scalars).
    Negative indices denote the *symbolic placeholder lines* used for
    accesses whose element index is statically unknown — the paper's
    ``decis_lev[1*]``, ``decis_lev[2*]`` convention from Table 1 (index
    ``-k`` is the k-th placeholder).
    """

    symbol: str
    index: int = 0

    # Blocks are looked up once per access (to find their bit in the
    # program's :class:`BlockUniverse`) and compared whenever universes
    # are matched.  The handwritten dunders below are semantically
    # identical to the dataclass-generated ones but skip the per-call
    # field-tuple allocation; the hash is precomputed once at
    # construction.  Str hashes are per-process (PYTHONHASHSEED), so
    # ``__reduce__`` rebuilds from the fields and never ships the cached
    # value across a process boundary.
    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash(self.symbol) ^ (self.index * -0x61C88647)
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is MemoryBlock:
            return self.index == other.index and self.symbol == other.symbol
        return NotImplemented

    def __reduce__(self):
        return (MemoryBlock, (self.symbol, self.index))

    @property
    def is_placeholder(self) -> bool:
        return self.index < 0

    def __str__(self) -> str:
        if self.index < 0:
            return f"{self.symbol}[{-self.index}*]"
        if self.index == 0:
            return self.symbol
        return f"{self.symbol}#{self.index}"


def placeholder_blocks(symbol: str, num_blocks: int) -> list[MemoryBlock]:
    """The symbolic placeholder lines of an object (one per real block)."""
    return [MemoryBlock(symbol, -(k + 1)) for k in range(num_blocks)]


class BlockUniverse:
    """Dense bit positions for the memory blocks of one analysed program.

    The abstract cache states hold sets of blocks as ``int`` bitsets
    ("bit-planes"); bit ``i`` stands for ``blocks[i]``.  A universe is
    immutable: :meth:`extended` returns a new one with blocks appended,
    which keeps every existing bit position valid.

    Universes are built per program from the blocks its accesses can
    touch (:func:`repro.analysis.transfer.block_universe`), never
    process-wide: the width of every plane is the program's accessed
    block count, and a daemon serving many programs never accumulates
    them.  Two universes with the same block sequence are
    interchangeable (:meth:`same_as`); states over universes that differ
    are re-packed before their planes meet.
    """

    __slots__ = ("blocks", "index", "_key", "_last_extension")

    def __init__(self, blocks=()):
        self.blocks: tuple[MemoryBlock, ...] = tuple(blocks)
        self.index: dict[MemoryBlock, int] = {
            block: position for position, block in enumerate(self.blocks)
        }
        if len(self.index) != len(self.blocks):
            raise ValueError("a block universe lists every block once")
        self._key: tuple[tuple[str, int], ...] | None = None
        self._last_extension: tuple | None = None

    @property
    def key(self) -> tuple[tuple[str, int], ...]:
        """Field tuple of the block sequence: compares without calling
        MemoryBlock dunders, and equally across processes."""
        if self._key is None:
            self._key = tuple((block.symbol, block.index) for block in self.blocks)
        return self._key

    def same_as(self, other: "BlockUniverse") -> bool:
        """True when bit positions mean the same blocks in both."""
        return self is other or (
            len(self.blocks) == len(other.blocks) and self.key == other.key
        )

    def extended(self, blocks) -> "BlockUniverse":
        """This universe with the blocks it lacks appended, in order.

        The last extension is remembered, so states that each need the
        same missing blocks end up over one universe object.
        """
        missing = tuple(
            block for block in dict.fromkeys(blocks) if block not in self.index
        )
        if not missing:
            return self
        last = self._last_extension
        if last is not None and last[0] == missing:
            return last[1]
        universe = BlockUniverse(self.blocks + missing)
        self._last_extension = (missing, universe)
        return universe

    def __repr__(self) -> str:
        return f"BlockUniverse({len(self.blocks)} blocks)"


class AccessKind(Enum):
    """How precisely an access's target block is known."""

    CONCRETE = auto()   # exactly one known block
    UNKNOWN = auto()    # some block of the object, index not statically known
    SECRET = auto()     # some block of the object, index derived from a secret


@dataclass(frozen=True)
class BlockAccess:
    """A resolved memory access.

    ``blocks`` always lists every block the access *may* touch; for
    :data:`AccessKind.CONCRETE` accesses it has exactly one element.
    """

    kind: AccessKind
    symbol: str
    blocks: tuple[MemoryBlock, ...]
    is_write: bool
    ref: MemoryRef

    @property
    def concrete_block(self) -> MemoryBlock:
        if self.kind is not AccessKind.CONCRETE:
            raise ValueError(f"access to {self.symbol!r} is not concrete")
        return self.blocks[0]


@dataclass
class ObjectLayout:
    """Placement of one program object (scalar or array)."""

    symbol: Symbol
    num_blocks: int

    @property
    def name(self) -> str:
        return self.symbol.name

    @cached_property
    def block_tuple(self) -> tuple[MemoryBlock, ...]:
        """The object's blocks, built once: every resolved access to a
        block shares its instance, so block lookups in the analysis'
        universe (:class:`BlockUniverse`) match by identity."""
        return tuple(MemoryBlock(self.symbol.name, index) for index in range(self.num_blocks))

    def blocks(self) -> list[MemoryBlock]:
        return list(self.block_tuple)


@dataclass
class MemoryLayout:
    """Mapping from program symbols to their memory blocks."""

    line_size: int
    objects: dict[str, ObjectLayout] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, info: ProgramInfo, line_size: int = 64) -> "MemoryLayout":
        """Build the layout for every in-memory symbol of ``info``."""
        if line_size <= 0:
            raise ConfigError(f"line size must be positive, got {line_size}")
        layout = cls(line_size=line_size)
        for symbol in info.globals_table.local_symbols():
            layout._add_symbol(symbol)
        for function_info in info.functions.values():
            for symbol in function_info.table.local_symbols():
                layout._add_symbol(symbol)
        return layout

    def _add_symbol(self, symbol: Symbol) -> None:
        self._resolve_cache = None
        if not symbol.in_memory:
            return
        if symbol.name in self.objects:
            # Same-named locals in different functions share a layout entry;
            # the largest footprint wins so the analysis stays conservative.
            existing = self.objects[symbol.name]
            num_blocks = max(existing.num_blocks, self._blocks_for(symbol))
            self.objects[symbol.name] = ObjectLayout(symbol=symbol, num_blocks=num_blocks)
            return
        self.objects[symbol.name] = ObjectLayout(
            symbol=symbol, num_blocks=self._blocks_for(symbol)
        )

    def _blocks_for(self, symbol: Symbol) -> int:
        size = max(symbol.size_bytes, 1)
        return (size + self.line_size - 1) // self.line_size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def has_symbol(self, name: str) -> bool:
        return name in self.objects

    def object(self, name: str) -> ObjectLayout:
        try:
            return self.objects[name]
        except KeyError as exc:
            raise ConfigError(f"no memory layout for symbol {name!r}") from exc

    def blocks_of(self, name: str) -> list[MemoryBlock]:
        return self.object(name).blocks()

    def all_blocks(self) -> list[MemoryBlock]:
        blocks: list[MemoryBlock] = []
        for obj in self.objects.values():
            blocks.extend(obj.blocks())
        return blocks

    @property
    def total_blocks(self) -> int:
        return sum(obj.num_blocks for obj in self.objects.values())

    # ------------------------------------------------------------------
    # Access resolution
    # ------------------------------------------------------------------
    def resolve(self, ref: MemoryRef) -> BlockAccess:
        """Resolve a :class:`MemoryRef` to the blocks it may touch.

        Memoised per ref: resolution is pure given the layout, and every
        :class:`~repro.analysis.transfer.AccessTable` built against this
        layout re-resolves the same refs (the incremental mitigation loop
        builds one table per scored candidate).  The shared
        :class:`BlockAccess` values are immutable.
        """
        cache = getattr(self, "_resolve_cache", None)
        if cache is None:
            cache = {}
            self._resolve_cache = cache
        cached = cache.get(ref)
        if cached is not None:
            return cached
        access = self._resolve_uncached(ref)
        cache[ref] = access
        return access

    def _resolve_uncached(self, ref: MemoryRef) -> BlockAccess:
        obj = self.object(ref.symbol)
        all_blocks = obj.block_tuple
        if ref.index_secret:
            return BlockAccess(
                kind=AccessKind.SECRET,
                symbol=ref.symbol,
                blocks=all_blocks,
                is_write=ref.is_write,
                ref=ref,
            )
        if ref.index_const is None:
            return BlockAccess(
                kind=AccessKind.UNKNOWN,
                symbol=ref.symbol,
                blocks=all_blocks,
                is_write=ref.is_write,
                ref=ref,
            )
        byte_offset = ref.index_const * max(ref.element_size, 1)
        block_index = byte_offset // self.line_size
        block_index = min(max(block_index, 0), obj.num_blocks - 1)
        return BlockAccess(
            kind=AccessKind.CONCRETE,
            symbol=ref.symbol,
            blocks=(all_blocks[block_index],),
            is_write=ref.is_write,
            ref=ref,
        )

    def describe(self) -> str:
        """Human-readable summary of the layout."""
        lines = [f"memory layout (line size {self.line_size} bytes)"]
        for name, obj in sorted(self.objects.items()):
            lines.append(f"  {name}: {obj.num_blocks} block(s)")
        return "\n".join(lines)
