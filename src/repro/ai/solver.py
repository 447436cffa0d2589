"""Generic forward worklist fixpoint solver (Algorithm 1 of the paper).

The solver is parameterised by the domain element at the entry, a bottom
element, and a transfer function over basic blocks.  Widening is applied
at loop headers (or at user-supplied widening points) after a
configurable number of visits.

Scheduling is delegated to the shared priority-worklist kernel
(:mod:`repro.engine.worklist`): blocks pop in reverse-postorder priority
from a heap, replacing the former O(n) ``min`` + ``remove`` scan over a
deque (O(n²) over a run with a wide frontier).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from repro.engine.worklist import (
    DEFAULT_WIDENING_DELAY,
    PriorityWorklist,
    WideningPolicy,
    run_fixpoint,
)
from repro.ir.cfg import CFG
from repro.ir.loops import find_natural_loops

T = TypeVar("T")

#: Hard bound on node visits; hitting it indicates a non-monotone transfer
#: function or a broken partial order, so the solver raises rather than
#: silently returning garbage.
DEFAULT_MAX_VISITS = 2_000_000


@dataclass
class FixpointResult(Generic[T]):
    """Result of a forward fixpoint computation."""

    entry_states: dict[str, T] = field(default_factory=dict)
    exit_states: dict[str, T] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0

    def entry_state(self, block: str) -> T:
        return self.entry_states[block]

    def exit_state(self, block: str) -> T:
        return self.exit_states[block]


def solve_forward(
    cfg: CFG,
    entry_state: T,
    bottom: T,
    transfer: Callable[[str, T], T],
    widening_points: set[str] | None = None,
    widening_delay: int = DEFAULT_WIDENING_DELAY,
    max_visits: int = DEFAULT_MAX_VISITS,
) -> FixpointResult[T]:
    """Run the worklist algorithm on ``cfg``.

    Parameters
    ----------
    entry_state:
        Domain element holding at the entry of the entry block (⊤ in the
        paper's formulation of the cache analysis: the empty cache).
    bottom:
        The unreachable element (⊥), used to initialise all other blocks.
    transfer:
        ``transfer(block_name, state_in) -> state_out``.
    widening_points:
        Blocks at which widening is applied.  Defaults to the headers of
        the natural loops of ``cfg``.
    """
    if widening_points is None:
        widening_points = {loop.header for loop in find_natural_loops(cfg)}

    reachable = cfg.reachable_blocks()
    order = {name: position for position, name in enumerate(cfg.reverse_postorder())}
    entry_states: dict[str, T] = {name: bottom for name in reachable}
    exit_states: dict[str, T] = {name: bottom for name in reachable}
    entry_states[cfg.entry] = entry_state
    visit_counts: dict[str, int] = {name: 0 for name in reachable}

    result = FixpointResult[T](entry_states=entry_states, exit_states=exit_states)
    policy = WideningPolicy(points=widening_points, delay=widening_delay)

    def step(name: str) -> list[str]:
        visit_counts[name] += 1
        result.iterations += 1
        state_out = transfer(name, entry_states[name])
        exit_states[name] = state_out
        changed: list[str] = []
        for successor in cfg.successors(name):
            joined, grew = policy.join(
                successor, visit_counts.get(successor, 0), entry_states[successor], state_out
            )
            if grew:
                entry_states[successor] = joined
                changed.append(successor)
        return changed

    worklist = PriorityWorklist(order, initial=[cfg.entry])
    run_fixpoint(worklist, step, max_visits=max_visits)
    result.widenings = policy.widenings
    return result
