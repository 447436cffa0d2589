"""Shared transfer-function plumbing for the cache analyses.

Both the baseline and the speculative analysis iterate the same basic
operation: push an abstract cache state through the memory accesses of a
basic block.  This module pre-resolves every instruction's
:class:`MemoryRef` to a :class:`BlockAccess` once per program and
provides the block-level transfer and classification helpers.

The abstract states are bit-planes over a block universe
(:class:`~repro.ir.memory.BlockUniverse`) holding exactly the blocks the
program's accesses can touch; the table builds it once with the
resolved accesses, and the state constructors below take it, so every
state of one analysis shares a single universe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache.abstract import CacheState
from repro.cache.config import CacheConfig
from repro.cache.setassoc import SetAssocCacheState
from repro.cache.shadow import ShadowCacheState
from repro.ir.cfg import CFG
from repro.ir.memory import (
    AccessKind,
    BlockAccess,
    BlockUniverse,
    MemoryLayout,
    placeholder_blocks,
)
from repro.analysis.result import AccessClassification


@dataclass(frozen=True)
class SiteAccess:
    """A static access site: instruction position plus resolved access."""

    instruction_index: int
    access: BlockAccess


class AccessTable:
    """Pre-resolved memory accesses for every block of a CFG."""

    def __init__(self, cfg: CFG, layout: MemoryLayout):
        self.cfg = cfg
        self.layout = layout
        self._by_block: dict[str, list[SiteAccess]] = {}
        for name in cfg.reachable_blocks():
            sites: list[SiteAccess] = []
            for index, instruction in enumerate(cfg.block(name).instructions):
                for ref in instruction.memory_refs():
                    sites.append(
                        SiteAccess(instruction_index=index, access=layout.resolve(ref))
                    )
            self._by_block[name] = sites
        self.universe = block_universe(
            layout, (site.access for sites in self._by_block.values() for site in sites)
        )

    def sites(self, block: str) -> list[SiteAccess]:
        return self._by_block.get(block, [])

    def sites_up_to(self, block: str, instruction_limit: int | None) -> list[SiteAccess]:
        """Sites of the first ``instruction_limit`` instructions (all when None)."""
        sites = self._by_block.get(block, [])
        if instruction_limit is None:
            return sites
        return [site for site in sites if site.instruction_index < instruction_limit]

    @property
    def total_sites(self) -> int:
        return sum(len(sites) for sites in self._by_block.values())


def block_universe(layout: MemoryLayout, accesses) -> BlockUniverse:
    """The universe of the blocks ``accesses`` can touch.

    Every block an access may resolve to, plus the placeholder lines of
    each object read with an unknown index (the Table-1 convention).
    Ids follow layout order — objects in declaration order, blocks by
    index, placeholders after every real block — never set or dict-hash
    order, so equal programs get equal universes in every process.  The
    block instances are the resolved accesses' own, shared, not copies.
    """
    real: dict = {}
    placeholder_counts: dict[str, int] = {}
    for access in accesses:
        for block in access.blocks:
            real.setdefault(block, block)
        if access.kind is AccessKind.UNKNOWN:
            placeholder_counts[access.symbol] = len(access.blocks)
    position = {name: rank for rank, name in enumerate(layout.objects)}
    blocks = sorted(real, key=lambda block: (position[block.symbol], block.index))
    for symbol in sorted(placeholder_counts, key=position.__getitem__):
        blocks.extend(placeholder_blocks(symbol, placeholder_counts[symbol]))
    return BlockUniverse(blocks)


def new_entry_state(config: CacheConfig, use_shadow: bool, universe: BlockUniverse):
    """Fresh empty-cache state of the flavour ``config`` calls for, over
    the program's block ``universe``.

    Fully-associative geometries use the flat single-set domain (the
    paper's default, bit-identical to the pre-geometry behaviour);
    set-associative ones use the per-set product domain.  Both honour
    ``config.policy``.
    """
    if config.is_fully_associative:
        flavour = ShadowCacheState if use_shadow else CacheState
        return flavour.empty(config.num_lines, policy=config.policy, universe=universe)
    return SetAssocCacheState.empty(config, use_shadow, universe)


def new_bottom_state(config: CacheConfig, use_shadow: bool, universe: BlockUniverse):
    if config.is_fully_associative:
        flavour = ShadowCacheState if use_shadow else CacheState
        return flavour.bottom(config.num_lines, policy=config.policy, universe=universe)
    return SetAssocCacheState.bottom(config, use_shadow, universe)


def share_planes(states) -> None:
    """Hash-cons the bit-planes of fixpoint states that outlive the solve.

    A result keeps one state per block, and neighbouring blocks' states
    repeat most plane values in distinct int objects (about 2.5 objects
    per distinct value on the paper's kernels); sharing them keeps the
    retained results no larger than the dictionary states were.  Values
    are unchanged, so this is invisible to every reader.
    """
    memo: dict = {}
    for state in states:
        state.share_planes(memo)


def transfer_block(state, table: AccessTable, block: str, instruction_limit: int | None = None):
    """Push ``state`` through the accesses of ``block``.

    Returns the state after the last (allowed) instruction.
    """
    current = state
    for site in table.sites_up_to(block, instruction_limit):
        current = current.access(site.access)
    return current


def transfer_block_with_prefix_join(
    state, table: AccessTable, block: str, instruction_limit: int | None = None
):
    """Like :func:`transfer_block`, but also return the join of the states
    after *every* prefix of the block.

    The prefix join is exactly the state contributed by a rollback that may
    happen at any point inside the block (Section 5.2): the merge of all
    possible rollback points.
    """
    current = state
    prefix_join = state
    for site in table.sites_up_to(block, instruction_limit):
        current = current.access(site.access)
        prefix_join = prefix_join.join(current)
    return current, prefix_join


def classify_block(
    state,
    table: AccessTable,
    block: str,
    secret_symbols: set[str],
    instruction_limit: int | None = None,
    speculative: bool = False,
    scenario_color: int | None = None,
) -> list[AccessClassification]:
    """Walk ``block`` from ``state`` and classify each access site."""
    classifications: list[AccessClassification] = []
    current = state
    for site in table.sites_up_to(block, instruction_limit):
        access = site.access
        must_hit = current.must_hit_access(access)
        secret_indexed = access.kind is AccessKind.SECRET
        secret_dependent = False
        if secret_indexed and not getattr(current, "is_bottom", False):
            hit_blocks = sum(1 for b in access.blocks if current.must_hit(b))
            secret_dependent = 0 < hit_blocks < len(access.blocks)
        classifications.append(
            AccessClassification(
                block=block,
                instruction_index=site.instruction_index,
                ref=access.ref,
                kind=access.kind,
                must_hit=must_hit,
                speculative=speculative,
                scenario_color=scenario_color,
                secret_indexed=secret_indexed,
                secret_dependent=secret_dependent,
            )
        )
        current = current.access(access)
    return classifications
