"""The dense multi-color engine, kept as the sparse solver's oracle.

Every visit re-transfers the normal state and *all* speculative slots at
the block, paying O(#slots-at-block) per pop regardless of what changed.
The runtime solver (:meth:`SpeculativeCacheAnalysis._run_sparse_pass`)
re-transfers only the slots whose inputs changed.  Both follow the same
pop schedule — a skipped delivery would re-join a value already below
its target — so states, classifications, iteration and widening counts
must agree bit for bit (``tests/test_multicolor_sparse.py``).
"""

from __future__ import annotations

from repro.analysis.multicolor import (
    MAX_VISITS,
    SlotKey,
    SpeculativeCacheAnalysis,
    SpeculativeFixpoint,
    _Delivery,
)
from repro.analysis.transfer import transfer_block
from repro.engine.worklist import PriorityWorklist, run_fixpoint


class DenseReferenceAnalysis(SpeculativeCacheAnalysis):
    """:class:`SpeculativeCacheAnalysis` with the dense fixpoint; always cold."""

    def solve(self) -> SpeculativeFixpoint:
        cfg = self.cfg
        reachable = cfg.reachable_blocks()
        order = self._schedule_order()
        policy = self._widening_policy()

        normal: dict[str, object] = {name: self._bottom for name in reachable}
        normal[cfg.entry] = self._entry_state()
        speculative: dict[str, dict[SlotKey, object]] = {name: {} for name in reachable}
        visits: dict[str, int] = {name: 0 for name in reachable}
        # Every visit re-transfers everything, so the dirty sets the shared
        # delivery code maintains are never read.
        dirty: dict[str, set] = {name: set() for name in reachable}

        fixpoint = SpeculativeFixpoint(normal=normal, speculative=speculative)
        worklist = PriorityWorklist(order, initial=[cfg.entry])

        def step(name: str) -> set[str]:
            visits[name] += 1
            fixpoint.iterations += 1
            deliveries = self._process_block(name, normal, speculative, worklist.push)
            return self._apply_deliveries(
                deliveries, normal, speculative, policy, visits, dirty
            )

        run_fixpoint(
            worklist, step, max_visits=MAX_VISITS, description="speculative fixpoint"
        )
        fixpoint.widenings = policy.widenings
        self._choose_untracked(normal)
        return fixpoint

    def _process_block(
        self,
        name: str,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        requeue,
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        successors = self.cfg.successors(name)
        state_in = normal[name]
        slots_in = speculative[name]

        # --- normal transfer and propagation -------------------------------
        state_out = transfer_block(state_in, self.table, name)
        for successor in successors:
            deliveries.append(_Delivery(successor, None, state_out))

        # --- speculative slots ----------------------------------------------
        for slot, slot_state in slots_in.items():
            if getattr(slot_state, "is_bottom", False):
                continue
            if slot[0] == "window":
                deliveries.extend(
                    self._process_window_slot(name, slot, slot_state, successors)
                )
            else:
                deliveries.extend(
                    self._process_resume_slot(name, slot, slot_state, successors)
                )

        # --- scenario injection at branch blocks ----------------------------
        for scenario in self._scenarios_by_branch.get(name, []):
            previous_window = self.chooser.active_window(scenario)
            window = self.chooser.choose(scenario, state_in)
            if window.depth > previous_window.depth:
                # The window grew (the condition is no longer a proven hit):
                # re-propagate from every block of the old window.
                for block in previous_window.allowed:
                    if block in normal:
                        requeue(block)
            if window.depth <= 0 or not window.contains(scenario.wrong_target):
                continue
            deliveries.append(
                _Delivery(scenario.wrong_target, ("window", scenario.color), state_out)
            )
        return deliveries
