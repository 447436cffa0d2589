"""Refined abstract cache state with shadow variables (Section 6.3,
Appendix B).

In addition to the must-ages of :class:`~repro.cache.abstract.CacheState`
(upper bound on the age along *all* paths), this state tracks for every
block a *shadow* (may) age: a lower bound on the youngest position the
block may occupy along *some* path.  The shadow ages are used to refine
the aging rule: a block ``u`` only ages when enough distinct blocks could
actually be sitting in front of it (``NYoung(u) >= Age(u)``), which
prevents the spurious evictions illustrated in Figure 11 and fixed in
Figure 13.

Both maps are bit-planes over the program's block universe
(:mod:`repro.cache.planes`): must plane ``k`` holds the blocks whose
must age is at most ``k``, shadow plane ``k`` those whose shadow age is
at most ``k``.  The join is a planewise AND of the must planes and a
planewise OR of the shadow planes; the LRU shadow ageing is a shift of
the plane list; and ``NYoung`` at must age ``a`` is the population count
of the new shadow plane ``a``, so the must update walks age levels, not
blocks.  ``must`` and ``may`` decode the planes into ``{block: age}``
mappings.
"""

from __future__ import annotations

from typing import Mapping

from repro.cache import planes as bitplanes
from repro.cache.abstract import (
    AGE_INFINITY,
    common_universe,
    covering_universe,
    locate,
)
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    BlockUniverse,
    MemoryBlock,
    placeholder_blocks,
)


class ShadowCacheState:
    """Must-ages plus shadow (may) ages.

    The must planes only hold blocks guaranteed cached (age <=
    num_lines); the shadow planes only blocks that may be cached (shadow
    age <= num_lines).  The constructor takes both as mappings
    (``must=``, ``may=``), with the conventions of
    :class:`~repro.cache.abstract.CacheState`.
    """

    __slots__ = (
        "num_lines",
        "policy",
        "is_bottom",
        "universe",
        "must_planes",
        "may_planes",
    )

    def __init__(
        self,
        num_lines: int,
        must: Mapping[MemoryBlock, int] | None = None,
        may: Mapping[MemoryBlock, int] | None = None,
        is_bottom: bool = False,
        policy: str = "lru",
        *,
        universe: BlockUniverse | None = None,
    ):
        must = must or {}
        may = may or {}
        universe = covering_universe(universe, [*must, *may])
        self.num_lines = num_lines
        self.policy = policy
        self.is_bottom = is_bottom
        self.universe = universe
        self.must_planes = bitplanes.from_ages(must, universe, num_lines)
        self.may_planes = bitplanes.from_ages(may, universe, num_lines)

    @classmethod
    def _make(cls, num_lines, policy, universe, must, may, is_bottom=False):
        state = object.__new__(cls)
        state.num_lines = num_lines
        state.policy = policy
        state.is_bottom = is_bottom
        state.universe = universe
        state.must_planes = must
        state.may_planes = may
        return state

    def _with(self, must, may, universe: BlockUniverse | None = None) -> "ShadowCacheState":
        return self._make(
            self.num_lines, self.policy, universe or self.universe, must, may
        )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(
        cls, num_lines: int, policy: str = "lru", universe: BlockUniverse | None = None
    ) -> "ShadowCacheState":
        return cls._make(num_lines, policy, universe or BlockUniverse(), (), ())

    @classmethod
    def bottom(
        cls, num_lines: int, policy: str = "lru", universe: BlockUniverse | None = None
    ) -> "ShadowCacheState":
        return cls._make(num_lines, policy, universe or BlockUniverse(), (), (), True)

    def in_universe(self, universe: BlockUniverse) -> "ShadowCacheState":
        """This state over ``universe`` (extended by any block the state
        uses that it lacks)."""
        if universe is self.universe:
            return self
        universe, (must, may) = bitplanes.rehome(
            [self.must_planes, self.may_planes], self.universe, universe
        )
        return self._make(
            self.num_lines, self.policy, universe, must, may, self.is_bottom
        )

    def share_planes(self, memo: dict) -> None:
        """Swap the planes for equal ones shared through ``memo`` (see
        :func:`repro.analysis.transfer.share_planes`); the value is
        unchanged."""
        self.must_planes = bitplanes.shared(self.must_planes, memo)
        self.may_planes = bitplanes.shared(self.may_planes, memo)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def must(self) -> dict[MemoryBlock, int]:
        """Must ages as a ``{block: age}`` mapping, youngest first."""
        return bitplanes.to_ages(self.must_planes, self.universe)

    @property
    def may(self) -> dict[MemoryBlock, int]:
        """Shadow ages as a ``{block: age}`` mapping, youngest first."""
        return bitplanes.to_ages(self.may_planes, self.universe)

    def _age(self, planes, block: MemoryBlock) -> int:
        if self.is_bottom:
            return AGE_INFINITY
        position = self.universe.index.get(block)
        if position is None:
            return AGE_INFINITY
        return bitplanes.age_of(planes, 1 << position) or AGE_INFINITY

    def age(self, block: MemoryBlock) -> int:
        return self._age(self.must_planes, block)

    def shadow_age(self, block: MemoryBlock) -> int:
        return self._age(self.may_planes, block)

    def must_hit(self, block: MemoryBlock) -> bool:
        if self.is_bottom or not self.must_planes:
            return False
        position = self.universe.index.get(block)
        return position is not None and (self.must_planes[-1] >> position) & 1 == 1

    def must_hit_access(self, access: BlockAccess) -> bool:
        if self.is_bottom or not self.must_planes:
            return False
        cached = self.must_planes[-1]
        index = self.universe.index
        for block in access.blocks:
            position = index.get(block)
            if position is None or not (cached >> position) & 1:
                return False
        return True

    def _blocks(self, bits: int) -> set[MemoryBlock]:
        blocks = self.universe.blocks
        return {blocks[i] for i in bitplanes.iter_bits(bits)}

    def cached_blocks(self) -> set[MemoryBlock]:
        return self._blocks(bitplanes.bits_of(self.must_planes))

    def may_cached_blocks(self) -> set[MemoryBlock]:
        return self._blocks(bitplanes.bits_of(self.may_planes))

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def access(self, access: BlockAccess) -> "ShadowCacheState":
        if self.is_bottom:
            return self
        if access.kind is AccessKind.CONCRETE:
            return self.access_block(access.blocks[0])
        if access.kind is AccessKind.SECRET:
            # Fully conservative: the side-channel verdict about this access
            # must never benefit from optimistic assumptions.
            return self.access_unknown(access.blocks)
        return self.access_unknown_array(access.symbol, access.blocks)

    def _mask(self, blocks) -> tuple[BlockUniverse, int]:
        """The universe holding ``blocks`` (extended if needed) and their
        bits."""
        universe = covering_universe(self.universe, blocks)
        index = universe.index
        bits = 0
        for block in blocks:
            bits |= 1 << index[block]
        return universe, bits

    def access_block(self, block: MemoryBlock) -> "ShadowCacheState":
        """Appendix B transfer for a statically known block (LRU), or the
        FIFO transfer: a guaranteed hit leaves a FIFO queue untouched; a
        possible miss may insert one new line at the front, so every must
        bound grows by one, the accessed block becomes resident with the
        weakest in-cache bound, and its shadow age drops to 1 (it may be
        the front insertion).  The NYoung refinement is LRU reasoning and
        is not applied to FIFO."""
        if self.is_bottom:
            return self
        universe, bit = locate(self.universe, block)
        must = self.must_planes
        may = self.may_planes
        num_lines = self.num_lines
        if self.policy == "fifo":
            if must and must[-1] & bit:
                return self
            new_must = bitplanes.at_age(bitplanes.shift(must, num_lines), bit, num_lines)
            return self._with(new_must, bitplanes.with_bits(may, bit), universe)

        if may and may[0] == bit and must and must[0] & bit:
            # Re-touching the line that is youngest on every path (the hot
            # case in loops): nothing else can age.
            return self

        # Step 1: the shadow (may) component.  Every block whose shadow
        # age is at most the accessed block's old shadow age ``s`` ages by
        # one: the levels up to ``s`` shift up, dropping plane ``s``; the
        # levels above keep their sets (a block at ``s`` lands on level
        # ``s + 1``, which may have to be created).  The accessed block
        # then joins every level: its shadow age is 1.
        shadow = bitplanes.age_of(may, bit)
        if shadow == 0:
            younger, older = may[: num_lines - 1], ()
        else:
            younger = may[: shadow - 1]
            if shadow < len(may):
                older = may[shadow:]
            else:
                older = (may[-1],) if shadow < num_lines else ()
        new_may = bitplanes.trim(
            (bit,) + tuple([plane | bit for plane in younger]) + older
        )

        # Step 2: the must component, using NYoung computed on the *new*
        # shadow ages.  Only blocks strictly younger than the accessed
        # block's old must age can change.  The blocks at must age ``k``
        # are ``P[k] - P[k-1]``; each sits in new shadow plane ``k`` or
        # not, NYoung(u) is that plane's population ``c`` less one when
        # ``u`` is in it (a block is never younger than itself), and
        # ``u`` ages when NYoung(u) >= k.  So with ``c > k`` the whole
        # level ages and plane ``k`` becomes ``P[k-1]``; with ``c == k``
        # only the level's blocks outside the shadow plane age, leaving
        # ``P[k-1] | (P[k] & shadow plane)``; with ``c < k`` nothing
        # ages.  Aged blocks reach plane ``k + 1`` unchanged (they were
        # already in it), and the accessed block joins every level.
        old_age = bitplanes.age_of(must, bit)
        if old_age == 0:
            levels = len(must)
            # The oldest level may age into a plane that does not exist yet.
            tail = (must[-1] | bit,) if 0 < levels < num_lines else ()
        else:
            levels = old_age - 1
            tail = must[levels:]
        young = new_may[:levels]
        if len(young) < levels:
            young += (new_may[-1],) * (levels - len(young))
        head = [
            (plane if count < age else previous if count > age else previous | (plane & shadow))
            | bit
            for age, plane, previous, shadow, count in zip(
                range(1, levels + 1),
                must,
                (0,) + must[: levels - 1],
                young,
                map(int.bit_count, young),
            )
        ]
        new_must = bitplanes.trim(head + list(tail)) if head or tail else (bit,)
        return self._with(new_must, new_may, universe)

    def access_unknown(self, candidate_blocks: tuple[MemoryBlock, ...]) -> "ShadowCacheState":
        """Access whose target is one of ``candidate_blocks`` but unknown.

        Must component: every bound grows by one (sound, as in the plain
        state).  May component: every candidate block may now be the
        youngest line, so its shadow age drops to 1 (this only ever makes
        ``NYoung`` larger, i.e. the refinement more conservative).
        """
        if self.is_bottom:
            return self
        universe, candidates = self._mask(candidate_blocks)
        return self._with(
            bitplanes.shift(self.must_planes, self.num_lines),
            bitplanes.with_bits(self.may_planes, candidates),
            universe,
        )

    def access_unknown_array(
        self, symbol: str, candidate_blocks: tuple[MemoryBlock, ...]
    ) -> "ShadowCacheState":
        """Unknown-index access using the Table-1 placeholder convention,
        refined with shadow-variable information.

        While unused placeholders remain, the access is modelled as loading
        the next placeholder line (a plain concrete-block transfer).  Once
        all placeholders are resident the access necessarily re-uses one of
        the array's existing lines, whose age is bounded by the oldest
        placeholder; a block ``u`` therefore only needs to age when it may
        actually be older than that line, i.e. when its shadow (may) age
        does not already exceed the bound.
        """
        if self.is_bottom:
            return self
        placeholders = placeholder_blocks(symbol, len(candidate_blocks))
        for placeholder in placeholders:
            if not self.must_hit(placeholder):
                state = self.access_block(placeholder)
                universe, candidates = state._mask(candidate_blocks)
                return self._with(
                    state.must_planes,
                    bitplanes.with_bits(state.may_planes, candidates),
                    universe,
                )
        if self.policy == "fifo":
            # The age-bound refinement below reasons about LRU aging (a
            # block only ages when a younger line is inserted in front of
            # it); under FIFO fall back to the plain conservative rule.
            return self.access_unknown(candidate_blocks)
        must = self.must_planes
        bound = max(self.age(placeholder) for placeholder in placeholders)
        _, footprint = self._mask(placeholders)
        # The array's own footprint does not grow by re-accessing it;
        # keeping the placeholder bounds is what lets Table 1's loop
        # converge with decis_lev[1*]/[2*] still resident.  Every other
        # block ages unless its shadow age already exceeds the bound.
        aging = must[-1] & ~footprint & bitplanes.plane_at(self.may_planes, bound)
        universe, candidates = self._mask(candidate_blocks)
        return self._with(
            bitplanes.age_bits(must, aging, self.num_lines),
            bitplanes.with_bits(self.may_planes, candidates),
            universe,
        )

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def join(self, other: "ShadowCacheState") -> "ShadowCacheState":
        """Must: pointwise max (intersection).  May: pointwise min (union)."""
        return self.join_changed(other)[0]

    def join_changed(
        self, other: "ShadowCacheState"
    ) -> tuple["ShadowCacheState", bool]:
        """``(self ⊔ other, whether that differs from self)`` in one pass
        (the join is above ``self``, so "changed" is plane inequality)."""
        self._check_compatible(other)
        if other.is_bottom:
            return self, False
        if self.is_bottom:
            return other, True
        if other.universe is not self.universe:
            self, other = common_universe(self, other)
        must = bitplanes.meet(self.must_planes, other.must_planes)
        may = bitplanes.union(self.may_planes, other.may_planes)
        if must == self.must_planes and may == self.may_planes:
            return self, False
        return self._with(must, may), True

    def widen(self, previous: "ShadowCacheState") -> "ShadowCacheState":
        """Widen the must component (growing ages jump to infinity); the may
        component is kept as-is — its lattice is finite, so convergence
        does not depend on widening it."""
        self._check_compatible(previous)
        if previous.is_bottom or self.is_bottom:
            return self
        if previous.universe is not self.universe:
            self, previous = common_universe(self, previous)
        grown = bitplanes.grown(self.must_planes, previous.must_planes)
        if not grown:
            return self
        return self._with(
            bitplanes.without_bits(self.must_planes, grown), self.may_planes
        )

    def leq(self, other: "ShadowCacheState") -> bool:
        self._check_compatible(other)
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        if other.universe is not self.universe:
            self, other = common_universe(self, other)
        return bitplanes.bounds(self.must_planes, other.must_planes) and bitplanes.bounds(
            other.may_planes, self.may_planes
        )

    def _check_compatible(self, other: "ShadowCacheState") -> None:
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
        if not isinstance(other, ShadowCacheState):
            return NotImplemented
        if (
            self.num_lines != other.num_lines
            or self.is_bottom != other.is_bottom
            or self.policy != other.policy
        ):
            return False
        if self.universe.same_as(other.universe):
            return (
                self.must_planes == other.must_planes
                and self.may_planes == other.may_planes
            )
        return self.must == other.must and self.may == other.may

    def __hash__(self) -> int:  # pragma: no cover
        return hash(
            (
                self.num_lines,
                self.is_bottom,
                self.policy,
                frozenset(self.must.items()),
                frozenset(self.may.items()),
            )
        )

    # Pickles keep the pre-rewrite dataclass shape (see CacheState).
    def __getstate__(self) -> dict:
        return {
            "num_lines": self.num_lines,
            "must": self.must,
            "may": self.may,
            "is_bottom": self.is_bottom,
            "policy": self.policy,
        }

    def __setstate__(self, state: dict) -> None:
        fresh = type(self)(
            state["num_lines"],
            state["must"],
            state["may"],
            state["is_bottom"],
            state["policy"],
        )
        for name in self.__slots__:
            setattr(self, name, getattr(fresh, name))

    def __repr__(self) -> str:
        if self.is_bottom:
            return f"ShadowCacheState(⊥, {self.num_lines} lines)"
        must = ", ".join(f"{b}:{a}" for b, a in sorted(self.must.items(), key=lambda i: (i[1], str(i[0]))))
        may = ", ".join(f"∃{b}:{a}" for b, a in sorted(self.may.items(), key=lambda i: (i[1], str(i[0]))))
        return f"ShadowCacheState(must={{{must}}}, may={{{may}}})"

    def describe(self) -> str:
        """A Table-1-style listing of the must component, youngest first."""
        if self.is_bottom:
            return "⊥"
        ordered = sorted(self.must.items(), key=lambda item: (item[1], str(item[0])))
        return "{" + ", ".join(f"{block}@{age}" for block, age in ordered) + "}"
