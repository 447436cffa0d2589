"""Shared priority-worklist fixpoint kernel (Algorithm 1's scheduler).

Both fixpoint computations in the code base — the generic forward solver
(:mod:`repro.ai.solver`) and the lifted multi-color engine
(:mod:`repro.analysis.multicolor`) — iterate the same way: pop the
pending block earliest in reverse postorder, apply a transfer, join the
outputs into the targets, widen at loop headers after a visit threshold,
and re-enqueue whatever changed.  This module is the single
implementation of that schedule.

* :class:`PriorityWorklist` — a heap-ordered, duplicate-free queue keyed
  by a block-priority map (typically reverse-postorder positions).  It
  replaces the ``min(worklist, ...)`` + ``remove`` scan the ad-hoc loops
  used, which costs O(n) per pop and O(n²) over a run with a wide
  frontier; the heap costs O(log n) per operation.
* :class:`WideningPolicy` — where and when to widen, plus the
  lattice-based accounting of whether a widening actually changed the
  joined state (object identity is *not* a reliable signal: a ``widen``
  that returns an equal-but-distinct element must not be counted).
* :func:`run_fixpoint` — the pop/step/re-enqueue driver with the
  divergence guard.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.errors import AnalysisError

#: Priority assigned to blocks absent from the order map; anything larger
#: than every legal reverse-postorder position works.
UNKNOWN_PRIORITY = 1 << 30

#: Default number of visits to a widening point before widening kicks in.
DEFAULT_WIDENING_DELAY = 3


class PriorityWorklist:
    """A duplicate-free min-heap of block names ordered by a priority map.

    ``order`` maps block names to their scheduling priority — lower pops
    first.  Passing the reverse-postorder positions of a CFG yields the
    classical fast-converging iteration order.  Ties (only possible for
    blocks missing from ``order``) break deterministically by name.
    """

    __slots__ = ("_order", "_heap", "_queued")

    def __init__(self, order: Mapping[str, int], initial: Iterable[str] = ()):
        self._order = order
        self._heap: list[tuple[int, str]] = []
        self._queued: set[str] = set()
        for name in initial:
            self.push(name)

    def push(self, name: str) -> bool:
        """Enqueue ``name``; return False if it was already pending."""
        if name in self._queued:
            return False
        self._queued.add(name)
        heapq.heappush(self._heap, (self._order.get(name, UNKNOWN_PRIORITY), name))
        return True

    def extend(self, names: Iterable[str]) -> None:
        for name in names:
            self.push(name)

    def pop(self) -> str:
        """Remove and return the pending block with the lowest priority."""
        if not self._heap:
            raise IndexError("pop from an empty worklist")
        _, name = heapq.heappop(self._heap)
        self._queued.discard(name)
        return name

    def __contains__(self, name: str) -> bool:
        return name in self._queued

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


@dataclass
class WideningPolicy:
    """Where (``points``) and when (``delay`` visits) widening applies.

    ``widenings`` counts applications that actually coarsened the joined
    state.  The check is lattice-based: a proper ``widen`` result is
    always above the join, so it changed the state iff it is *not* below
    the join — comparing object identity would miscount whenever a domain
    returns an equal-but-distinct element.
    """

    points: frozenset[str] | set[str] = field(default_factory=set)
    delay: int = DEFAULT_WIDENING_DELAY
    widenings: int = 0

    def join(self, target: str, visits: int, current, value):
        """``(current ⊔ value, changed)``, widened at ``target`` if due.

        Both solvers store the result when ``changed``.  Off the widening
        points this is the domain's fused ``join_changed``; at a due
        point the join is widened against ``current`` — still above it,
        so it changed iff it is not below it.
        """
        if target not in self.points or visits < self.delay:
            return current.join_changed(value)
        joined = self.apply(target, visits, current, current.join(value))
        return joined, not joined.leq(current)

    def apply(self, target: str, visits: int, previous, joined):
        """Widen ``joined`` against ``previous`` at ``target`` if due.

        Returns the (possibly widened) state to store.
        """
        if target not in self.points or visits < self.delay:
            return joined
        widened = joined.widen(previous)
        if not widened.leq(joined):
            self.widenings += 1
        return widened


def run_fixpoint(
    worklist: PriorityWorklist,
    step: Callable[[str], Iterable[str]],
    *,
    max_visits: int,
    description: str = "fixpoint",
) -> int:
    """Drain ``worklist`` to a fixpoint and return the number of pops.

    ``step(name)`` processes one block and returns the blocks whose
    abstract state changed (they are re-enqueued).  ``step`` may also
    enqueue blocks directly through the worklist it closes over — the
    multi-color engine does this when a speculative window grows.
    Exceeding ``max_visits`` raises :class:`AnalysisError`: the lattice
    and schedule guarantee termination, so divergence means a broken
    transfer function or partial order.
    """
    visits = 0
    while worklist:
        name = worklist.pop()
        visits += 1
        if visits > max_visits:
            raise AnalysisError(
                f"{description} did not converge within {max_visits} block visits"
            )
        worklist.extend(step(name))
    return visits
