"""Abstract cache state for the must-hit analysis (Section 4, Appendix A).

The state maps each memory block to an *upper bound on its LRU age*:
``age <= N`` (the number of cache lines) means the block is guaranteed to
be in the cache on every path reaching the program point — a *must hit*.
Blocks without a bound have age "infinity" (definitely possibly
uncached).

The map is held as bit-planes over the program's
:class:`~repro.ir.memory.BlockUniverse` (:mod:`repro.cache.planes`):
plane ``k`` is the set of blocks whose bound is at most ``k``.  The join
(pointwise maximum) is a planewise AND, ``leq`` a subset test per plane
and ageing every block a shift of the plane list.  ``ages`` decodes the
planes back into a ``{block: age}`` mapping for callers that want one.

States of different universes never mix raw bit positions: an
operation on two of them first re-packs both into one universe.  Blocks
outside a state's universe (only possible for hand-built states; the
analyses use a universe holding every block of the program) extend it.

States are immutable: every operation returns a new state, which is what
the worklist solvers expect.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache import planes as bitplanes
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    BlockUniverse,
    MemoryBlock,
    placeholder_blocks,
)

#: Symbolic "outside the cache" age returned by :meth:`CacheState.age`.
#: Any value strictly greater than every legal ``num_lines`` works; using a
#: single sentinel keeps ages comparable across configurations.
AGE_INFINITY = 1 << 30


def covering_universe(universe: BlockUniverse | None, blocks) -> BlockUniverse:
    """``universe`` extended by the ``blocks`` it lacks, or a fresh
    universe of ``blocks`` in sorted order (deterministic whatever the
    hash seed)."""
    if universe is None:
        return BlockUniverse(sorted(set(blocks)))
    missing = [block for block in blocks if block not in universe.index]
    return universe.extended(sorted(set(missing))) if missing else universe


def locate(universe: BlockUniverse, block: MemoryBlock) -> tuple[BlockUniverse, int]:
    """The universe holding ``block`` (``universe``, extended if needed)
    and the block's bit in it."""
    position = universe.index.get(block)
    if position is not None:
        return universe, 1 << position
    universe = universe.extended((block,))
    return universe, 1 << universe.index[block]


def common_universe(a, b) -> tuple[object, object]:
    """``a`` and ``b`` re-packed over one universe object: ``a``'s,
    extended by any block only ``b`` uses (appending keeps ``a``'s bit
    positions, so only ``b`` is re-packed)."""
    b = b.in_universe(a.universe)
    return a.in_universe(b.universe), b


class CacheState:
    """Must-analysis abstract cache state.

    ``planes`` only holds blocks whose age bound is at most ``num_lines``
    (i.e. blocks that are guaranteed cached); everything else is
    implicitly at :data:`AGE_INFINITY`.  ``is_bottom`` marks the
    unreachable state (the join identity, written ⊥ in the paper).

    ``policy`` selects the replacement semantics the transfer functions
    model: ``lru`` (the paper's domain, Figure 4) or ``fifo`` (no age
    refresh on a hit; see :meth:`access_block`).  The lattice operations
    are policy-independent.

    The constructor takes the age map as ``ages=`` (bounds above
    ``num_lines`` are dropped, bounds below 1 raised to 1) and an
    optional ``universe``; the analyses build states through
    :meth:`empty`/:meth:`bottom` over the program's universe.
    """

    __slots__ = ("num_lines", "policy", "is_bottom", "universe", "planes")

    def __init__(
        self,
        num_lines: int,
        ages: Mapping[MemoryBlock, int] | None = None,
        is_bottom: bool = False,
        policy: str = "lru",
        *,
        universe: BlockUniverse | None = None,
    ):
        ages = ages or {}
        universe = covering_universe(universe, ages)
        self.num_lines = num_lines
        self.policy = policy
        self.is_bottom = is_bottom
        self.universe = universe
        self.planes = bitplanes.from_ages(ages, universe, num_lines)

    @classmethod
    def _make(cls, num_lines, policy, universe, planes, is_bottom=False):
        state = object.__new__(cls)
        state.num_lines = num_lines
        state.policy = policy
        state.is_bottom = is_bottom
        state.universe = universe
        state.planes = planes
        return state

    def _with(self, planes, universe: BlockUniverse | None = None) -> "CacheState":
        return self._make(
            self.num_lines, self.policy, universe or self.universe, planes
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, num_lines: int, policy: str = "lru", universe: BlockUniverse | None = None
    ) -> "CacheState":
        """The entry state: an empty cache (nothing is guaranteed cached).

        This is the ⊤ element of Algorithm 1/2: no information is assumed
        about the initial cache contents.
        """
        return cls._make(num_lines, policy, universe or BlockUniverse(), ())

    @classmethod
    def bottom(
        cls, num_lines: int, policy: str = "lru", universe: BlockUniverse | None = None
    ) -> "CacheState":
        """The unreachable state (⊥): identity of the join."""
        return cls._make(num_lines, policy, universe or BlockUniverse(), (), True)

    @classmethod
    def from_ages(
        cls,
        num_lines: int,
        ages: Mapping[MemoryBlock, int],
        policy: str = "lru",
        universe: BlockUniverse | None = None,
    ) -> "CacheState":
        return cls(num_lines=num_lines, ages=ages, policy=policy, universe=universe)

    def in_universe(self, universe: BlockUniverse) -> "CacheState":
        """This state over ``universe`` (extended by any block the state
        uses that it lacks)."""
        if universe is self.universe:
            return self
        universe, (planes,) = bitplanes.rehome([self.planes], self.universe, universe)
        return self._make(self.num_lines, self.policy, universe, planes, self.is_bottom)

    def share_planes(self, memo: dict) -> None:
        """Swap the planes for equal ones shared through ``memo`` (see
        :func:`repro.analysis.transfer.share_planes`); the value is
        unchanged."""
        self.planes = bitplanes.shared(self.planes, memo)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def ages(self) -> dict[MemoryBlock, int]:
        """The age bounds as a ``{block: age}`` mapping, youngest first."""
        return bitplanes.to_ages(self.planes, self.universe)

    def age(self, block: MemoryBlock) -> int:
        """Upper bound on the age of ``block`` (AGE_INFINITY if uncached)."""
        if self.is_bottom:
            return AGE_INFINITY
        position = self.universe.index.get(block)
        if position is None:
            return AGE_INFINITY
        return bitplanes.age_of(self.planes, 1 << position) or AGE_INFINITY

    def must_hit(self, block: MemoryBlock) -> bool:
        """True when ``block`` is guaranteed to be cached."""
        if self.is_bottom or not self.planes:
            return False
        position = self.universe.index.get(block)
        return position is not None and (self.planes[-1] >> position) & 1 == 1

    def must_hit_access(self, access: BlockAccess) -> bool:
        """True when the access is guaranteed to hit, whichever block it
        resolves to at run time."""
        if self.is_bottom or not self.planes:
            return False
        cached = self.planes[-1]
        index = self.universe.index
        for block in access.blocks:
            position = index.get(block)
            if position is None or not (cached >> position) & 1:
                return False
        return True

    def cached_blocks(self) -> set[MemoryBlock]:
        blocks = self.universe.blocks
        return {blocks[i] for i in bitplanes.iter_bits(bitplanes.bits_of(self.planes))}

    def __len__(self) -> int:
        return bitplanes.bits_of(self.planes).bit_count()

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "CacheState":
        """Apply the transfer function for one memory access."""
        if self.is_bottom:
            # Transfers never resurrect unreachable states.
            return self
        if access.kind is AccessKind.CONCRETE:
            return self.access_block(access.blocks[0])
        if access.kind is AccessKind.SECRET:
            # Secret-indexed accesses are handled fully conservatively: the
            # side-channel queries about them must never be optimistic.
            return self.access_unknown()
        return self.access_unknown_array(access.symbol, len(access.blocks))

    def access_block(self, block: MemoryBlock) -> "CacheState":
        """Access a single, statically known block.

        LRU (Figure 4 semantics): the accessed block becomes the
        youngest; every block that may have been younger than it ages by
        one.  On planes: the levels below the block's old age shift up by
        one, the levels from its old age on keep their sets, and the
        block joins every level.

        FIFO: a hit leaves the queue untouched, so if the block is
        guaranteed cached the state is unchanged.  Otherwise the access
        may miss, in which case a new line is inserted at the front:
        every bound grows by one, and the accessed block — now definitely
        resident, but at an unknown position (front on a miss, anywhere
        on a hit) — gets the weakest in-cache bound ``num_lines``.
        """
        if self.is_bottom:
            return self
        universe, bit = locate(self.universe, block)
        planes = self.planes
        num_lines = self.num_lines
        if self.policy == "fifo":
            if planes and planes[-1] & bit:
                return self
            aged = bitplanes.shift(planes, num_lines)
            return self._with(bitplanes.at_age(aged, bit, num_lines), universe)
        age = bitplanes.age_of(planes, bit)
        if age == 1:
            return self
        if age == 0:
            younger, older = planes[: num_lines - 1], ()
        else:
            younger, older = planes[: age - 2], planes[age - 1 :]
        new = (bit,) + tuple([plane | bit for plane in younger]) + older
        return self._with(bitplanes.trim(new), universe)

    def access_unknown(self) -> "CacheState":
        """Access whose target block is not statically known.

        The sound must-analysis over-approximation: some (unknown) line may
        have been inserted in front of every cached block, so every age
        bound grows by one, and nothing new can be promised to be cached.
        """
        if self.is_bottom:
            return self
        return self._with(bitplanes.shift(self.planes, self.num_lines))

    def access_unknown_array(self, symbol: str, num_blocks: int) -> "CacheState":
        """Unknown-index access to an array, using the paper's Table-1
        convention: the access is modelled as touching the next *symbolic
        placeholder line* of the array (``decis_lev[1*]``, ``[2*]``, ...).

        An array of ``m`` blocks has ``m`` placeholders, which bounds the
        total cache pressure the analysis attributes to index-unknown
        accesses by the array's real footprint rather than by the number of
        accesses.  Once every placeholder is present the plain must state
        has no way to tell which existing line was re-used, so it falls
        back to the conservative age-everyone rule (the shadow-variable
        state refines exactly this case).
        """
        if self.is_bottom:
            return self
        for placeholder in placeholder_blocks(symbol, num_blocks):
            if not self.must_hit(placeholder):
                return self.access_block(placeholder)
        return self.access_unknown()

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "CacheState") -> "CacheState":
        """Pointwise maximum of ages (Figure 5): a block is guaranteed
        cached after the join only if it is guaranteed cached in both
        incoming states."""
        return self.join_changed(other)[0]

    def join_changed(self, other: "CacheState") -> tuple["CacheState", bool]:
        """``(self ⊔ other, whether that differs from self)`` in one pass.

        The join is above ``self``, so it changed iff its planes differ —
        the fused replacement for ``join`` followed by ``leq``.
        """
        self._check_compatible(other)
        if other.is_bottom:
            return self, False
        if self.is_bottom:
            return other, True
        if other.universe is not self.universe:
            self, other = common_universe(self, other)
        joined = bitplanes.meet(self.planes, other.planes)
        if joined == self.planes:
            return self, False
        return self._with(joined), True

    def widen(self, previous: "CacheState") -> "CacheState":
        """Widening: any age that grew since ``previous`` jumps to infinity.

        ``self`` is the new (already joined) state, ``previous`` the state
        stored at the widening point on the previous iteration.  Blocks
        new since ``previous`` keep their bound (only a transfer can have
        introduced them).
        """
        self._check_compatible(previous)
        if previous.is_bottom or self.is_bottom:
            return self
        if previous.universe is not self.universe:
            self, previous = common_universe(self, previous)
        grown = bitplanes.grown(self.planes, previous.planes)
        return self._with(bitplanes.without_bits(self.planes, grown)) if grown else self

    def leq(self, other: "CacheState") -> bool:
        """Partial order: ``self ⊑ other`` iff self is at least as precise."""
        self._check_compatible(other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        if other.universe is not self.universe:
            self, other = common_universe(self, other)
        return bitplanes.bounds(self.planes, other.planes)

    def _check_compatible(self, other: "CacheState") -> None:
        if self.num_lines != other.num_lines or self.policy != other.policy:
            raise ValueError(
                "incompatible cache states: "
                f"{self.num_lines} lines/{self.policy} vs "
                f"{other.num_lines} lines/{other.policy}"
            )

    # ------------------------------------------------------------------
    # Dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheState):
            return NotImplemented
        if (
            self.num_lines != other.num_lines
            or self.is_bottom != other.is_bottom
            or self.policy != other.policy
        ):
            return False
        if self.universe.same_as(other.universe):
            return self.planes == other.planes
        return self.ages == other.ages

    def __hash__(self) -> int:  # pragma: no cover - states are not hashed in hot paths
        return hash(
            (self.num_lines, self.is_bottom, self.policy, frozenset(self.ages.items()))
        )

    # Pickles keep the dataclass shape states had before the bit-plane
    # rewrite — the age map, never bit positions — so result-store
    # entries written before and after it load alike, into an ad-hoc
    # universe (operations re-pack as needed).
    def __getstate__(self) -> dict:
        return {
            "num_lines": self.num_lines,
            "ages": self.ages,
            "is_bottom": self.is_bottom,
            "policy": self.policy,
        }

    def __setstate__(self, state: dict) -> None:
        fresh = type(self)(
            state["num_lines"], state["ages"], state["is_bottom"], state["policy"]
        )
        for name in self.__slots__:
            setattr(self, name, getattr(fresh, name))

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"CacheState(⊥, {self.num_lines} lines)"
        items = ", ".join(
            f"{block}:{age}" for block, age in sorted(self.ages.items(), key=lambda i: (i[1], str(i[0])))
        )
        return f"CacheState({{{items}}})"

    def describe(self) -> str:
        """A Table-1-style listing: blocks ordered youngest to oldest."""
        if self.is_bottom:
            return "⊥"
        ordered = sorted(self.ages.items(), key=lambda item: (item[1], str(item[0])))
        return "{" + ", ".join(f"{block}@{age}" for block, age in ordered) + "}"
