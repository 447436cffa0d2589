"""Control-flow graph built from basic blocks."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field

from repro.errors import CFGError
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import CondBranch, Jump, MemoryRef, Return, Terminator


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
def _canonical(value: object) -> object:
    """A structural, line-insensitive rendering of an IR value.

    Source line numbers shift wholesale when an edit inserts or removes a
    statement (the exact situation incremental re-analysis exists for), so
    ``line`` fields are excluded everywhere.  ``__str__`` forms are *not*
    used: they drop analysis-relevant detail (``CondBranch.__str__`` omits
    ``cond_refs``, ``MemoryRef.__str__`` omits ``element_size``).
    """
    if isinstance(value, MemoryRef):
        return (
            "ref",
            value.symbol,
            value.is_write,
            value.index_const,
            value.index_secret,
            value.element_size,
        )
    names = _canonical_fields(type(value))
    if names is not None:
        return (
            type(value).__name__,
            *[_canonical(getattr(value, name)) for name in names],
        )
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(item) for item in value)
    if value is None or isinstance(value, (str, int, bool)):
        return value
    return repr(value)


@functools.cache
def _canonical_fields(cls: type) -> tuple[str, ...] | None:
    """The non-``line`` field names of dataclass ``cls``, or None when
    ``cls`` is not a dataclass."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(fld.name for fld in dataclasses.fields(cls) if fld.name != "line")


def block_fingerprint(block: BasicBlock) -> str:
    """A stable content hash of a block's instructions and terminator.

    Two blocks with the same fingerprint have identical analysis semantics
    (same accesses, same transfer, same branch structure) regardless of the
    source lines they were lowered from.
    """
    payload = (
        tuple(_canonical(instruction) for instruction in block.instructions),
        _canonical(block.terminator),
    )
    digest = hashlib.sha256(repr(payload).encode("utf-8"))
    return digest.hexdigest()


def block_line_signature(block: BasicBlock) -> str:
    """A hash of the *source lines* a block's instructions carry.

    :func:`block_fingerprint` is deliberately line-insensitive, which is
    what incremental invalidation wants — but classifications embed the
    lines of the :class:`~repro.ir.instructions.MemoryRef` they report, so
    a retained classification is only reusable verbatim when the block's
    lines match too (an edit that shifts lines without changing content
    keeps the fingerprint but not this signature).
    """
    payload = (
        tuple(instruction.line for instruction in block.instructions),
        block.terminator.line if block.terminator is not None else None,
    )
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CFGDiff:
    """Block-level difference between two CFGs, matched by block name.

    ``changed`` blocks exist in both CFGs with different content;
    ``added``/``removed`` exist only in the new/old CFG; ``unchanged``
    blocks are bit-identical.  ``touched`` is the union of everything that
    differs — the invalidation frontier for incremental re-analysis.
    """

    changed: frozenset[str]
    added: frozenset[str]
    removed: frozenset[str]
    unchanged: frozenset[str]

    @property
    def touched(self) -> frozenset[str]:
        return self.changed | self.added | self.removed

    @property
    def is_identical(self) -> bool:
        return not self.touched


def diff_cfgs(old: "CFG | dict[str, str]", new: "CFG") -> CFGDiff:
    """Map an edited CFG onto its predecessor.

    ``old`` may be a live :class:`CFG` or a retained ``{name: fingerprint}``
    summary (the form snapshots store, so the predecessor program need not
    stay resident).  Correspondence is by block name: the lowering pipeline
    derives names deterministically from source structure, so an edit that
    perturbs one statement leaves every other block's name and content
    intact.
    """
    old_fps = old if isinstance(old, dict) else old.block_fingerprints()
    new_fps = new.block_fingerprints()
    changed = frozenset(
        name
        for name, fp in new_fps.items()
        if name in old_fps and old_fps[name] != fp
    )
    added = frozenset(name for name in new_fps if name not in old_fps)
    removed = frozenset(name for name in old_fps if name not in new_fps)
    unchanged = frozenset(
        name
        for name, fp in new_fps.items()
        if old_fps.get(name) == fp
    )
    return CFGDiff(changed=changed, added=added, removed=removed, unchanged=unchanged)


@dataclass(frozen=True)
class Edge:
    """A CFG edge, optionally labelled with the branch outcome that takes it."""

    source: str
    target: str
    taken: bool | None = None  # True/False for conditional edges, None otherwise

    def __str__(self) -> str:
        label = "" if self.taken is None else (" [T]" if self.taken else " [F]")
        return f"{self.source} -> {self.target}{label}"


@dataclass
class CFG:
    """A function's control-flow graph.

    Blocks are kept in an ordered dict; the entry block is always present.
    Blocks terminated by :class:`Return` are the exit blocks.
    """

    name: str
    entry: str = "entry"
    blocks: dict[str, BasicBlock] = field(default_factory=dict)
    params: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def add_block(self, block: BasicBlock) -> BasicBlock:
        if block.name in self.blocks:
            raise CFGError(f"duplicate block {block.name!r} in {self.name!r}")
        self.blocks[block.name] = block
        self._fingerprint_cache = None
        self._line_signature_cache = None
        return block

    def block(self, name: str) -> BasicBlock:
        try:
            return self.blocks[name]
        except KeyError as exc:
            raise CFGError(f"unknown block {name!r} in {self.name!r}") from exc

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------
    def successors(self, name: str) -> list[str]:
        terminator = self.block(name).terminator
        if terminator is None:
            return []
        return [target for target in terminator.targets()]

    def predecessors(self, name: str) -> list[str]:
        preds = []
        for block_name in self.blocks:
            if name in self.successors(block_name):
                preds.append(block_name)
        return preds

    def edges(self) -> list[Edge]:
        result: list[Edge] = []
        for name, block in self.blocks.items():
            terminator = block.terminator
            if isinstance(terminator, CondBranch):
                result.append(Edge(name, terminator.true_target, taken=True))
                result.append(Edge(name, terminator.false_target, taken=False))
            elif isinstance(terminator, Jump):
                result.append(Edge(name, terminator.target))
        return result

    def exit_blocks(self) -> list[str]:
        return [
            name
            for name, block in self.blocks.items()
            if isinstance(block.terminator, Return)
        ]

    def conditional_blocks(self) -> list[str]:
        """Blocks terminated by a conditional branch (speculation sources)."""
        return [
            name
            for name, block in self.blocks.items()
            if isinstance(block.terminator, CondBranch)
        ]

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------
    def reachable_blocks(self) -> list[str]:
        """Blocks reachable from the entry, in depth-first discovery order."""
        seen: list[str] = []
        seen_set: set[str] = set()
        stack = [self.entry]
        while stack:
            name = stack.pop()
            if name in seen_set:
                continue
            seen_set.add(name)
            seen.append(name)
            for successor in reversed(self.successors(name)):
                if successor not in seen_set:
                    stack.append(successor)
        return seen

    def reverse_postorder(self) -> list[str]:
        """Blocks in reverse postorder (a good worklist iteration order)."""
        visited: set[str] = set()
        postorder: list[str] = []

        def visit(name: str) -> None:
            stack: list[tuple[str, int]] = [(name, 0)]
            while stack:
                current, index = stack.pop()
                if index == 0:
                    if current in visited:
                        continue
                    visited.add(current)
                successors = self.successors(current)
                if index < len(successors):
                    stack.append((current, index + 1))
                    successor = successors[index]
                    if successor not in visited:
                        stack.append((successor, 0))
                else:
                    postorder.append(current)

        visit(self.entry)
        return list(reversed(postorder))

    # ------------------------------------------------------------------
    # Whole-function queries
    # ------------------------------------------------------------------
    def all_memory_refs(self) -> list[MemoryRef]:
        refs: list[MemoryRef] = []
        for name in self.reachable_blocks():
            refs.extend(self.block(name).memory_refs())
        return refs

    def referenced_symbols(self) -> set[str]:
        return {ref.symbol for ref in self.all_memory_refs()}

    @property
    def instruction_count(self) -> int:
        return sum(block.instruction_count for block in self.blocks.values())

    # ------------------------------------------------------------------
    # Content fingerprints
    # ------------------------------------------------------------------
    def attach_content_caches(
        self, fingerprints: dict[str, str], line_signatures: dict[str, str]
    ) -> None:
        """Install precomputed per-block fingerprint/line-signature maps.

        Trusted producers that *know* the maps match the current blocks —
        the snapshot builder after a full computation, and the IR-level
        fence patcher, which derives the edited graph's maps from its
        predecessor's by re-fingerprinting only the blocks it touched —
        attach them so the hot incremental paths (``diff_cfgs``,
        classification reuse) stop paying a full per-instruction
        canonicalisation pass per candidate.  The caches are semantically
        transparent; mutating a block *in place* after attaching is
        unsupported (``add_block`` clears them, in-place instruction edits
        cannot be seen — build a new CFG instead, as the lowering pipeline
        and the patcher already do).
        """
        self._fingerprint_cache = dict(fingerprints)
        self._line_signature_cache = dict(line_signatures)

    def block_fingerprints(self) -> dict[str, str]:
        """Per-block content fingerprints, in block-dict order."""
        cached = getattr(self, "_fingerprint_cache", None)
        if cached is not None:
            return dict(cached)
        return {name: block_fingerprint(block) for name, block in self.blocks.items()}

    def block_line_signatures(self) -> dict[str, str]:
        """Per-block source-line signatures (see :func:`block_line_signature`)."""
        cached = getattr(self, "_line_signature_cache", None)
        if cached is not None:
            return dict(cached)
        return {
            name: block_line_signature(block) for name, block in self.blocks.items()
        }

    def content_fingerprint(self) -> str:
        """A stable content hash of the whole function.

        Includes block *order* (scenario colors are assigned in
        ``conditional_blocks()`` order, which follows the block dict) so two
        CFGs with equal fingerprints produce identical vcfgs and identical
        analysis results.  Computed fresh on every call unless a trusted
        producer attached content caches (see
        :meth:`attach_content_caches`).
        """
        payload = (
            self.name,
            self.entry,
            tuple(self.params),
            tuple(self.block_fingerprints().items()),
        )
        digest = hashlib.sha256(repr(payload).encode("utf-8"))
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants, raising :class:`CFGError` if violated."""
        if self.entry not in self.blocks:
            raise CFGError(f"entry block {self.entry!r} missing from {self.name!r}")
        for name, block in self.blocks.items():
            if block.name != name:
                raise CFGError(f"block key {name!r} does not match block name {block.name!r}")
            if block.terminator is None:
                raise CFGError(f"block {name!r} has no terminator")
            for target in block.terminator.targets():
                if target not in self.blocks:
                    raise CFGError(
                        f"block {name!r} branches to unknown block {target!r}"
                    )
        if not self.exit_blocks():
            raise CFGError(f"function {self.name!r} has no return block")

    def copy_of_terminator(self, name: str) -> Terminator:
        """Return the terminator of ``name`` (useful for rewriting passes)."""
        terminator = self.block(name).terminator
        if terminator is None:
            raise CFGError(f"block {name!r} has no terminator")
        return terminator

    def __str__(self) -> str:
        parts = [f"function {self.name}({', '.join(self.params)})"]
        for name in self.reachable_blocks():
            parts.append(str(self.block(name)))
        return "\n".join(parts)
