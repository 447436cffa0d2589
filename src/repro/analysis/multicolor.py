"""The lifted worklist engine with per-color speculative states
(Algorithms 2 and 3 of the paper).

Every basic block ``n`` carries a *normal* abstract state ``S[n]`` plus a
dictionary of *speculative* states ``SS[n][slot]``.  Slots are the
engine's realisation of the paper's colors:

* ``("window", c)`` — the cache state while scenario ``c``'s mispredicted
  branch is being speculatively executed (between ``vn_start`` and the
  rollback);
* ``("resume", c)`` or ``("resume", c, origin)`` — the cache state after
  the rollback, while the correct branch executes, carried until the
  conversion point (``vn_stop``).  Collapsing strategies (Figures 6c/6d)
  use a single resume slot per color; non-collapsing ones (6a/6b) keep one
  per rollback block.

The propagation rules correspond one-to-one to the virtual control-flow
edges of Section 5.1:

1. *Injection* (``n — vn_start`` and ``vn_start — n``): when a branch
   block is processed, its post-transfer normal state is copied into the
   window slot of each of its scenarios at the mispredicted target.
2. *Window propagation* (``n — n``): window slots flow along ordinary CFG
   edges between blocks of the active speculative window, with the block
   transfer truncated to the window's instruction allowance.
3. *Rollback* (``n — vn_stop``): each window block contributes the join of
   all its prefix states to the correct branch — either directly into the
   normal state (merge-at-rollback) or into a resume slot.
4. *Conversion* (``vn_stop — n``): resume slots flowing into the
   scenario's convergence block are joined into the normal state there and
   stop propagating.

The solver
----------

There is one fixpoint solver,
:meth:`SpeculativeCacheAnalysis._run_sparse_pass`, a delta-driven
scheduler: every block carries a *dirty set* of slots whose inputs
changed since the block was last processed, and a visit re-transfers
only those slots.  A delivery whose inputs did not change would re-join
a value already below its target, so skipping it changes neither the
states nor the set of blocks re-enqueued.  The pass starts from one of
two seeds:

* the *cold* seed — bottom everywhere, the entry state at the entry
  block;
* a *warm* seed (incremental re-analysis, :class:`WarmStartData`) — a
  prior run's states outside the region an edit affected, with the
  region itself reset to bottom (see
  :meth:`SpeculativeCacheAnalysis._plan_warm`).

The original dense engine, which re-transfers the normal state and every
slot on each visit, is kept as a test-only differential reference
(``tests/dense_reference.py``): both engines follow the same pop
schedule, so their states, classifications, iteration and widening
counts agree bit for bit.

Either way the solver tracks only the scenarios whose windows contain an
access site (:meth:`SpeculativeCacheAnalysis._solver_scenarios`); the
rest cannot change a state.  ``self.vcfg`` keeps the full scenario set,
which the reported counters describe.  The solve over every scenario is
a second test-only reference (``tests/unpruned_reference.py``) that
agrees on everything but the pop count.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.depth import DepthChooser
from repro.analysis.result import AccessClassification, CacheAnalysisResult
from repro.analysis.transfer import (
    AccessTable,
    classify_block,
    new_bottom_state,
    new_entry_state,
    share_planes,
    transfer_block,
    transfer_block_with_prefix_join,
)
from repro.cache.config import CacheConfig
from repro.engine.worklist import PriorityWorklist, WideningPolicy, run_fixpoint
from repro.frontend import CompiledProgram
from repro.ir.cfg import diff_cfgs
from repro.ir.loops import find_natural_loops
from repro.obs import current_reporter, metrics, publish_progress, span
from repro.obs.progress import POP_PUBLISH_INTERVAL
from repro.speculation.config import SpeculationConfig
from repro.speculation.vcfg import (
    SpeculationScenario,
    VCFGBaseline,
    VirtualCFG,
    build_vcfg,
    build_vcfg_incremental,
)

#: A speculative-state slot key; see the module docstring.
SlotKey = tuple

#: Number of visits to a loop header before widening is applied to S.
WIDENING_DELAY = 3

#: Hard bound on worklist pops (defensive; the lattice is finite so the
#: computation always terminates, but a bug in a transfer function should
#: surface as an error rather than an endless loop).
MAX_VISITS = 5_000_000


def _access_free(scenario: SpeculationScenario, table: AccessTable) -> bool:
    """True when neither of ``scenario``'s windows (``bm``, ``bh``)
    contains an access site: the solver does not track such a scenario."""
    return not any(
        table.sites_up_to(block, limit)
        for window in (scenario.window_miss, scenario.window_hit)
        for block, limit in window.allowed.items()
    )


@dataclass
class _Delivery:
    """One pending join: ``value`` flows into ``slot`` (or S) at ``target``."""

    target: str
    slot: SlotKey | None  # None means the normal state S
    value: object


@dataclass
class SpeculativeFixpoint:
    """Raw fixpoint output of the engine."""

    normal: dict[str, object] = field(default_factory=dict)
    speculative: dict[str, dict[SlotKey, object]] = field(default_factory=dict)
    iterations: int = 0
    widenings: int = 0


@dataclass
class WarmStartData:
    """A retained prior fixpoint, ready to seed a warm solve.

    Held by an :class:`~repro.engine.incremental.AnalysisSnapshot`, which
    :mod:`repro.engine.incremental` builds from a finished run; everything here is
    expressed in the *old* program's terms (old scenario colors, old block
    set) — :meth:`SpeculativeCacheAnalysis._plan_warm` maps it onto the
    edited program.
    """

    #: ``{block name: content fingerprint}`` of the predecessor CFG.
    block_fingerprints: dict[str, str]
    #: Successor lists of the predecessor CFG (the edited CFG cannot
    #: reconstruct where removed/rewritten blocks used to deliver).
    old_successors: dict[str, tuple[str, ...]]
    #: The predecessor's speculation scenarios (old colors), all of them:
    #: window reuse covers the access-free ones too.
    scenarios: tuple[SpeculationScenario, ...]
    #: Old colors the predecessor's solver tracked (the rest were
    #: access-free and have no slots).
    solved_colors: frozenset[int]
    #: The predecessor fixpoint's normal states per block.
    normal: dict[str, object]
    #: The predecessor fixpoint's speculative slots per block (old colors).
    slots: dict[str, dict[SlotKey, object]]
    #: Depth of each old color's active window at the end of the prior run.
    chooser_active_depths: dict[int, int]
    #: Old colors whose window choice was locked to the long window.
    chooser_locked: frozenset[int]
    #: The predecessor run's classifications, for per-block reuse during
    #: :meth:`SpeculativeCacheAnalysis._classify_warm` (None disables it).
    classifications: tuple[AccessClassification, ...] | None = None
    #: Per-block source-line signatures of the predecessor CFG.
    #: Classifications embed the source lines of the accesses they report,
    #: so reuse additionally requires the block's lines to match (content
    #: fingerprints are deliberately line-insensitive).
    block_line_signatures: dict[str, str] | None = None


@dataclass
class _WarmPlan:
    """The affected-region computation for one warm solve."""

    warm: WarmStartData
    #: Blocks whose states must be recomputed from bottom.
    affected: set[str]
    #: ``{old color: new scenario}`` for scenarios whose structure is
    #: unchanged *and* whose branch block is outside the affected region —
    #: only these have their slots and chooser decisions seeded.
    stable: dict[int, SpeculationScenario]


class SpeculativeCacheAnalysis:
    """The lifted analysis engine."""

    def __init__(
        self,
        program: CompiledProgram,
        cache_config: CacheConfig | None = None,
        speculation: SpeculationConfig | None = None,
        warm_start: WarmStartData | None = None,
    ):
        self.program = program
        self.cfg = program.cfg
        self.layout = program.layout
        self.cache_config = cache_config or CacheConfig.paper_default()
        self.speculation = speculation or SpeculationConfig.paper_default()
        self.warm_start = warm_start
        #: Reuse counters of the last warm solve (or the fallback reason);
        #: None until solve() runs with a warm_start.
        self.warm_info: dict | None = None
        #: The raw fixpoint of the last run() — what a snapshot retains.
        self.last_fixpoint: SpeculativeFixpoint | None = None
        #: The warm plan of the last solve, when one was used (drives
        #: classification reuse in run()).
        self._warm_plan: _WarmPlan | None = None
        if warm_start is not None:
            self.vcfg, self._vcfg_reuse = build_vcfg_incremental(
                self.cfg,
                self.speculation,
                VCFGBaseline(
                    block_fingerprints=warm_start.block_fingerprints,
                    scenarios=warm_start.scenarios,
                ),
            )
        else:
            self.vcfg = build_vcfg(self.cfg, self.speculation)
            self._vcfg_reuse = None
        self.table = AccessTable(self.cfg, self.layout)
        self.chooser = DepthChooser(self.speculation, self.layout)
        self.secret_symbols = set(program.info.secret_symbols)
        #: The scenarios the solver tracks (see :meth:`_solver_scenarios`);
        #: ``self.vcfg`` keeps the full set for the reported counters.
        self.solved_scenarios = self._solver_scenarios()
        self._use_shadow = self.speculation.use_shadow_state
        #: Dirty-slot re-transfers performed by the sparse scheduler
        #: (telemetry only; published to the metrics registry by run()).
        self._slot_transfers = 0
        #: The program's block universe: every state of this analysis
        #: (seeded, decoded or computed) is held over it.
        self.universe = self.table.universe
        self._bottom = new_bottom_state(self.cache_config, self._use_shadow, self.universe)
        # ------------------------------------------------------------------
        # Precomputed per-block indices over the solved scenarios (the
        # sparse engine's substrate): which scenarios inject at a block,
        # O(1) color -> scenario lookup, and which window/resume slots can
        # ever be live at a block.
        # ------------------------------------------------------------------
        self._scenario_by_color: dict[int, SpeculationScenario] = {
            scenario.color: scenario for scenario in self.solved_scenarios
        }
        self._scenarios_by_branch: dict[str, list[SpeculationScenario]] = {}
        for scenario in self.solved_scenarios:
            self._scenarios_by_branch.setdefault(scenario.branch_block, []).append(scenario)
        # The slot-placement indices cost an O(#scenarios x window-size)
        # sweep plus a per-scenario CFG walk, and only introspection needs
        # them — built on first possible_slot_colors() call.
        self._window_colors: dict[str, frozenset[int]] | None = None
        self._resume_colors: dict[str, frozenset[int]] | None = None

    def _solver_scenarios(self) -> tuple[SpeculationScenario, ...]:
        """The scenarios the fixpoint tracks: every scenario whose ``bm``
        or ``bh`` window contains an access site.

        An access-free window transfers the identity, so each of its
        rollback and conversion deliveries joins a value already below
        its target, and classifying it emits nothing.  Dropping such a
        scenario leaves states, classifications and verdicts unchanged;
        only the pop count shrinks.  The depth choice of a dropped
        scenario is still recorded (see :meth:`_choose_untracked`), so
        the reported counters describe the full scenario set.
        """
        return tuple(
            scenario
            for scenario in self.vcfg.scenarios
            if not _access_free(scenario, self.table)
        )

    def _choose_untracked(self, normal: dict[str, object]) -> None:
        """Record the depth choice of every scenario the solver does not
        track, as if its branch block's pops had made it.

        A pop re-chooses from the branch block's normal state, and normal
        states only grow while must-hit facts are only lost, so the
        choice from the final state is the one the last pop would make —
        and, with the long-window lock, the one every pop makes together.
        """
        tracked = self._scenario_by_color
        for scenario in self.vcfg.scenarios:
            if scenario.color in tracked:
                continue
            state = normal.get(scenario.branch_block)
            if state is not None:
                self.chooser.choose(scenario, state)

    # ------------------------------------------------------------------
    # Slot-placement indices
    # ------------------------------------------------------------------
    def _index_window_colors(self) -> dict[str, frozenset[int]]:
        """Inverse of the per-scenario window-membership sets: for every
        block, the colors whose ``bm`` window contains it.  The active
        window is always a subset of ``window_miss``, so this is a sound
        upper bound on the window slots that can live at the block."""
        by_block: dict[str, set[int]] = {}
        for scenario in self.solved_scenarios:
            for block in scenario.window_miss.allowed:
                by_block.setdefault(block, set()).add(scenario.color)
        return {block: frozenset(colors) for block, colors in by_block.items()}

    def _index_resume_colors(self) -> dict[str, frozenset[int]]:
        """For every block, the colors whose resume slots can reach it: the
        blocks reachable from the scenario's correct target along CFG edges
        that do not enter the convergence block (where the slot converts
        back into S and stops).  Empty when the merge strategy converts at
        the rollback target (no resume slots exist at all)."""
        by_block: dict[str, set[int]] = {}
        strategy = self.speculation.merge_strategy
        if not strategy.convert_at_merge_point:
            return {}
        for scenario in self.solved_scenarios:
            convergence = scenario.convergence_block
            if convergence is None or convergence == scenario.correct_target:
                continue
            seen = {scenario.correct_target}
            stack = [scenario.correct_target]
            while stack:
                block = stack.pop()
                by_block.setdefault(block, set()).add(scenario.color)
                for successor in self.cfg.successors(block):
                    if successor != convergence and successor not in seen:
                        seen.add(successor)
                        stack.append(successor)
        return {block: frozenset(colors) for block, colors in by_block.items()}

    def possible_slot_colors(self, block: str) -> tuple[frozenset[int], frozenset[int]]:
        """(window colors, resume colors) that can ever be live at ``block``."""
        if self._window_colors is None:
            self._window_colors = self._index_window_colors()
        if self._resume_colors is None:
            self._resume_colors = self._index_resume_colors()
        empty: frozenset[int] = frozenset()
        return (
            self._window_colors.get(block, empty),
            self._resume_colors.get(block, empty),
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> CacheAnalysisResult:
        # The public `analysis_time` is derived from the span's duration:
        # the span always times itself, sinks or not.
        publish_progress(
            "fixpoint",
            program=self.cfg.name,
            scenarios=len(self.vcfg.scenarios),
        )
        with span(
            "fixpoint",
            program=self.cfg.name,
            kind="speculative",
            scenarios=len(self.vcfg.scenarios),
        ) as fixpoint_span:
            fixpoint = self.solve()
            share_planes(fixpoint.normal.values())
            self.last_fixpoint = fixpoint
            fixpoint_span.set(
                iterations=fixpoint.iterations, widenings=fixpoint.widenings
            )
            if self.warm_info is not None:
                fixpoint_span.set(warm=self.warm_info.get("used", False))
        registry = metrics()
        registry.counter("fixpoint.pops").inc(fixpoint.iterations)
        registry.counter("fixpoint.widenings").inc(fixpoint.widenings)
        registry.counter("fixpoint.slot_retransfers").inc(self._slot_transfers)
        registry.counter("prune.scenarios_pruned").inc(
            len(self.vcfg.scenarios) - len(self.solved_scenarios)
        )
        registry.counter("prune.scenarios_retained").inc(len(self.solved_scenarios))
        result = CacheAnalysisResult(
            program_name=self.cfg.name,
            cache_config=self.cache_config,
            speculation=self.speculation,
            entry_states=dict(fixpoint.normal),
            iterations=fixpoint.iterations,
            widenings=fixpoint.widenings,
            analysis_time=fixpoint_span.duration,
            num_speculative_branches=self.vcfg.num_speculative_branches,
            num_virtual_edges=self.vcfg.num_virtual_edges,
        )
        stats = self.chooser.stats(self.vcfg.scenarios)
        result.num_virtual_edges_active = stats.virtual_edges_active
        publish_progress(
            "classify", program=self.cfg.name, iterations=fixpoint.iterations
        )
        with span("classify", program=self.cfg.name) as classify_span:
            if self._warm_plan is not None:
                result.classifications = self._classify_warm(fixpoint, self._warm_plan)
            else:
                result.classifications = self._classify(fixpoint)
            classify_span.set(sites=len(result.classifications))
        return result

    # ------------------------------------------------------------------
    # The fixpoint
    # ------------------------------------------------------------------
    def solve(self) -> SpeculativeFixpoint:
        """Drain the sparse fixpoint from a cold seed, or from a warm one
        when a prior run was supplied and :meth:`_plan_warm` accepts it.

        The cold seed is bottom everywhere with the entry state at the
        entry block; a warm seed additionally carries the prior states of
        every block outside the affected region.  Both reach the same
        least fixpoint; only the pop count differs.
        """
        plan = None if self.warm_start is None else self._plan_warm(self.warm_start)
        self._warm_plan = plan
        cfg = self.cfg
        reachable = cfg.reachable_blocks()
        order = self._schedule_order()
        policy = self._widening_policy()

        normal: dict[str, object] = {name: self._bottom for name in reachable}
        speculative: dict[str, dict[SlotKey, object]] = {name: {} for name in reachable}
        dirty: dict[str, set] = {name: set() for name in reachable}
        if plan is None or cfg.entry in plan.affected:
            normal[cfg.entry] = self._entry_state()
            dirty[cfg.entry].add(None)
        if plan is not None:
            self._seed_warm(plan, normal, speculative, dirty)
        seeds = sorted(
            (name for name in reachable if dirty[name]),
            key=lambda name: order.get(name, 0),
        )
        if plan is not None:
            self.warm_info["frontier_blocks"] = len(seeds)

        fixpoint = SpeculativeFixpoint(normal=normal, speculative=speculative)
        fixpoint.iterations = self._run_sparse_pass(
            normal,
            speculative,
            dirty,
            seeds,
            order,
            policy,
            "speculative fixpoint" if plan is None else "warm speculative fixpoint",
        )
        fixpoint.widenings = policy.widenings
        self._choose_untracked(normal)
        return fixpoint

    def _entry_state(self):
        return new_entry_state(self.cache_config, self._use_shadow, self.universe)

    def _schedule_order(self) -> dict[str, int]:
        return {name: position for position, name in enumerate(self.cfg.reverse_postorder())}

    def _widening_policy(self) -> WideningPolicy:
        return WideningPolicy(
            points={loop.header for loop in find_natural_loops(self.cfg)},
            delay=WIDENING_DELAY,
        )

    # ------------------------------------------------------------------
    # Warm-started sparse fixpoint (incremental re-analysis)
    # ------------------------------------------------------------------
    def _plan_warm(self, warm: WarmStartData) -> _WarmPlan | None:
        """Map a retained prior run onto the edited program.

        Computes the *affected region* — the blocks whose fixpoint
        equations (or equation inputs) differ from the predecessor's —
        and the set of scenarios whose slots can be seeded verbatim.
        Every block outside the affected region has an equation system
        identical to the predecessor's and closed under its inputs, so
        its old value *is* the new least-fixpoint value; draining only
        the affected region from bottom therefore reproduces the cold
        lfp bit-for-bit.

        Returns None (cold fallback) when widening could fire: widening
        timing depends on visit counts, which a warm schedule changes.
        Fully-unrolled programs — the default pipeline — have no natural
        loops, so neither a cold nor a warm run ever widens on them.
        """
        if self._widening_policy().points:
            self.warm_info = {"used": False, "fallback": "widening"}
            return None

        cfg = self.cfg
        reachable = set(cfg.reachable_blocks())
        diff = diff_cfgs(warm.block_fingerprints, cfg)

        # --- scenario correspondence (structural, by branch identity) ----
        # Over the solved scenarios on both sides: a scenario that only
        # one run tracked has slots in that run alone, so it is rebuilt.
        old_solved = [s for s in warm.scenarios if s.color in warm.solved_colors]
        old_by_key = {(s.branch_block, s.mispredicted_taken): s for s in old_solved}
        stable: dict[int, SpeculationScenario] = {}
        matched_old: set[int] = set()
        unstable_new: list[SpeculationScenario] = []
        for new in self.solved_scenarios:
            old = old_by_key.get((new.branch_block, new.mispredicted_taken))
            if (
                old is not None
                and new.branch_block in diff.unchanged
                and old.wrong_target == new.wrong_target
                and old.correct_target == new.correct_target
                and old.cond_refs == new.cond_refs
                and old.window_miss == new.window_miss
                and old.window_hit == new.window_hit
                and old.convergence_block == new.convergence_block
            ):
                stable[old.color] = new
                matched_old.add(old.color)
            else:
                unstable_new.append(new)
        unstable_old = [s for s in old_solved if s.color not in matched_old]

        # --- closure seeds ------------------------------------------------
        seeds: set[str] = set()
        for name in diff.changed | diff.added:
            if name in reachable:
                seeds.add(name)
        # Removed/rewritten blocks used to deliver into their *old*
        # successors; those inputs are gone and must be recomputed.
        for name in diff.changed | diff.removed:
            for successor in warm.old_successors.get(name, ()):
                if successor in reachable:
                    seeds.add(successor)
        # A scenario whose structure changed re-derives every rollback and
        # conversion contribution; the states that absorbed the old ones
        # must be rebuilt.
        for scenario in unstable_new:
            for target in (scenario.correct_target, scenario.convergence_block):
                if target and target in reachable:
                    seeds.add(target)
        for scenario in unstable_old:
            for target in (scenario.correct_target, scenario.convergence_block):
                if target and target in reachable:
                    seeds.add(target)

        # --- forward closure over delivery edges --------------------------
        # Ordinary successor edges cover normal propagation, window
        # propagation, resume propagation, conversion, and injection
        # (a branch's mispredicted target is one of its successors).  The
        # one delivery that jumps is rollback: a window block feeds the
        # scenario's correct target, so an affected block inside a window
        # taints that target.  Stable scenarios share window geometry with
        # their predecessors, and unstable ones had their targets seeded
        # above, so triggers over the *new* scenarios suffice.
        rollback_trigger: dict[str, list[str]] = {}
        for scenario in self.solved_scenarios:
            blocks = set(scenario.window_miss.allowed)
            blocks.add(scenario.branch_block)
            blocks.add(scenario.wrong_target)
            for name in blocks:
                rollback_trigger.setdefault(name, []).append(scenario.correct_target)
        affected: set[str] = set()
        stack = list(seeds)
        while stack:
            name = stack.pop()
            if name in affected or name not in reachable:
                continue
            affected.add(name)
            stack.extend(cfg.successors(name))
            stack.extend(rollback_trigger.get(name, ()))

        # --- demote scenarios whose branch landed in the region -----------
        # The sparse engine's invariant is that a color's window choice is
        # made (at injection) before any of its slots carry state.  Seeded
        # slots of a scenario whose branch state is being recomputed would
        # be processed under the *default* (long) window before the choice
        # reruns, leaking deliveries a cold run never makes — so such
        # scenarios are rebuilt from scratch instead of seeded.
        for old_color, new_scenario in list(stable.items()):
            if new_scenario.branch_block in affected:
                del stable[old_color]

        self.warm_info = {
            "used": True,
            "invalidated_blocks": len(affected),
            "seeded_blocks": len(reachable) - len(affected),
            "stable_scenarios": len(stable),
            "rebuilt_scenarios": len(self.solved_scenarios) - len(stable),
            "changed": len(diff.changed),
            "added": len(diff.added),
            "removed": len(diff.removed),
        }
        if self._vcfg_reuse is not None:
            self.warm_info["windows_reused"] = self._vcfg_reuse.get(
                "windows_reused", 0
            )
        return _WarmPlan(warm=warm, affected=affected, stable=stable)

    def _seed_warm(
        self,
        plan: _WarmPlan,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        dirty: dict[str, set],
    ) -> None:
        """Fill the cold seed in with the prior run's states outside the
        affected region, seed the chooser for stable scenarios, and mark
        the dirty frontier that re-delivers into the region."""
        cfg = self.cfg
        warm = plan.warm
        affected = plan.affected
        reachable = cfg.reachable_blocks()

        color_map = {
            old_color: scenario.color for old_color, scenario in plan.stable.items()
        }
        seeded_slots = 0
        for name in reachable:
            if name in affected:
                continue
            if name in warm.normal:
                normal[name] = warm.normal[name].in_universe(self.universe)
            slots = speculative[name]
            for slot, value in warm.slots.get(name, {}).items():
                mapped = color_map.get(slot[1])
                if mapped is None:
                    continue
                slots[(slot[0], mapped) + tuple(slot[2:])] = value.in_universe(
                    self.universe
                )
                seeded_slots += 1

        # Seed the chooser for stable scenarios: classification reads the
        # active window of every scenario, including ones the warm drain
        # never re-processes.  Colors the prior run never chose stay
        # unseeded and fall back to the same default a cold run uses.
        for old_color, scenario in plan.stable.items():
            depth = warm.chooser_active_depths.get(old_color)
            if depth is None:
                continue
            if old_color in warm.chooser_locked:
                if depth == scenario.window_miss.depth:
                    self.chooser._active[scenario.color] = scenario.window_miss
                    self.chooser._locked_long.add(scenario.color)
            elif depth == scenario.window_hit.depth:
                self.chooser._active[scenario.color] = scenario.window_hit
            elif depth == scenario.window_miss.depth:
                self.chooser._active[scenario.color] = scenario.window_miss

        # Dirty frontier: every unaffected block delivering into the
        # region re-sends everything it holds (joins into unaffected
        # targets are no-ops); window slots additionally re-send when
        # their rollback target is affected, because rollback is the one
        # delivery that does not follow a successor edge.
        #
        # This rule also re-runs injection for every rebuilt scenario,
        # whose slots only a fresh injection can repopulate: an unstable
        # scenario's correct target, a successor of its branch, seeded
        # the region, and a demoted scenario's branch is itself affected.
        # So the branch of every rebuilt scenario is affected or has an
        # affected successor.
        for name in reachable:
            if name in affected:
                continue
            if any(successor in affected for successor in cfg.successors(name)):
                dirty[name].add(None)
                dirty[name].update(speculative[name].keys())
                continue
            for slot in speculative[name]:
                if slot[0] != "window":
                    continue
                scenario = self._scenario_by_color.get(slot[1])
                if scenario is not None and scenario.correct_target in affected:
                    dirty[name].add(slot)

        self.warm_info["seeded_slots"] = seeded_slots

    def _run_sparse_pass(
        self,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        dirty: dict[str, set],
        seeds,
        order: dict[str, int],
        policy: WideningPolicy,
        description: str,
    ) -> int:
        """Drain one sparse fixpoint to convergence; returns the pop count."""
        worklist = PriorityWorklist(order, initial=seeds)
        visits: dict[str, int] = dict.fromkeys(normal, 0)
        # Streaming progress: throttled to one event per
        # POP_PUBLISH_INTERVAL pops, and only when a reporter is
        # installed — the common (unwatched) case pays nothing per pop.
        reporter = current_reporter()
        publish_every = POP_PUBLISH_INTERVAL if reporter.active else 0
        pops_seen = 0

        def step(name: str) -> set[str]:
            nonlocal pops_seen
            if publish_every:
                pops_seen += 1
                if pops_seen % publish_every == 0:
                    reporter.publish(
                        "fixpoint.pops", pops=pops_seen, pass_name=description
                    )
            visits[name] += 1
            pending = dirty[name]
            dirty[name] = set()
            deliveries = self._process_block_sparse(
                name, pending, normal, speculative, worklist.push, dirty
            )
            return self._apply_deliveries(
                deliveries, normal, speculative, policy, visits, dirty
            )

        return run_fixpoint(
            worklist, step, max_visits=MAX_VISITS, description=description
        )

    def _process_block_sparse(
        self,
        name: str,
        pending: set,
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        requeue,
        dirty: dict[str, set],
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        successors = self.cfg.successors(name)
        state_in = normal[name]
        normal_dirty = None in pending

        # --- normal transfer and propagation (only when S[n] changed) ------
        state_out = None
        if normal_dirty:
            state_out = transfer_block(state_in, self.table, name)
            for successor in successors:
                deliveries.append(_Delivery(successor, None, state_out))

        # --- dirty speculative slots, in slot-creation order ----------------
        # Iterating the slot dict (not the pending set) keeps the delivery
        # order independent of hash randomisation and identical to the dense
        # engine's relative order.  Slots marked dirty before any state
        # reached them are still bottom and are skipped, exactly as the
        # dense engine skips bottom slots.
        if pending:
            slots_in = speculative[name]
            for slot, slot_state in slots_in.items():
                if slot not in pending or getattr(slot_state, "is_bottom", False):
                    continue
                self._slot_transfers += 1
                if slot[0] == "window":
                    deliveries.extend(
                        self._process_window_slot(name, slot, slot_state, successors)
                    )
                else:
                    deliveries.extend(
                        self._process_resume_slot(name, slot, slot_state, successors)
                    )

        # --- scenario injection at branch blocks ----------------------------
        # The window (re-)choice runs on every pop, mirroring the dense
        # engine: it is what keeps the chooser's active windows and the
        # window-growth requeues on the same schedule.  The injection
        # delivery itself only carries a new value when S[n] changed — the
        # dense engine's unconditional re-delivery is a join no-op then.
        for scenario in self._scenarios_by_branch.get(name, ()):
            previous_window = self.chooser.active_window(scenario)
            window = self.chooser.choose(scenario, state_in)
            if window.depth > previous_window.depth:
                # The window grew (the condition is no longer a proven hit):
                # re-propagate from every block of the old window, and mark
                # the scenario's window slot dirty there so the re-transfer
                # runs against the new window's limits and successor set.
                slot = ("window", scenario.color)
                for block in previous_window.allowed:
                    if block in normal:
                        requeue(block)
                        dirty[block].add(slot)
            if not normal_dirty:
                continue
            if window.depth <= 0 or not window.contains(scenario.wrong_target):
                continue
            deliveries.append(
                _Delivery(scenario.wrong_target, ("window", scenario.color), state_out)
            )
        return deliveries

    # ------------------------------------------------------------------
    # Shared slot transfers
    # ------------------------------------------------------------------
    def _process_window_slot(
        self,
        name: str,
        slot: SlotKey,
        slot_state,
        successors: list[str],
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        scenario = self._scenario_by_color[slot[1]]
        window = self.chooser.active_window(scenario)
        if not window.contains(name):
            return deliveries
        limit = window.allowed_instructions(name)
        slot_out, prefix_join = transfer_block_with_prefix_join(
            slot_state, self.table, name, limit
        )
        # Window propagation (rule 2): only into blocks still inside the window.
        for successor in successors:
            if window.contains(successor):
                deliveries.append(_Delivery(successor, slot, slot_out))
        # Rollback (rule 3): the join of all prefix states re-enters the
        # normal flow at the correct target.
        deliveries.append(self._rollback_delivery(scenario, name, prefix_join))
        return deliveries

    def _rollback_delivery(
        self, scenario: SpeculationScenario, origin: str, state
    ) -> _Delivery:
        strategy = self.speculation.merge_strategy
        target = scenario.correct_target
        convergence = scenario.convergence_block
        convert_immediately = (
            not strategy.convert_at_merge_point
            or convergence is None
            or convergence == target
        )
        if convert_immediately:
            return _Delivery(target, None, state)
        if strategy.collapse_rollback_points:
            return _Delivery(target, ("resume", scenario.color), state)
        return _Delivery(target, ("resume", scenario.color, origin), state)

    def _process_resume_slot(
        self, name: str, slot: SlotKey, slot_state, successors: list[str]
    ) -> list[_Delivery]:
        deliveries: list[_Delivery] = []
        scenario = self._scenario_by_color[slot[1]]
        convergence = scenario.convergence_block
        slot_out = transfer_block(slot_state, self.table, name)
        for successor in successors:
            if successor == convergence:
                # Conversion (rule 4): vn_stop — the speculative state joins
                # the normal flow and stops being tracked separately.
                deliveries.append(_Delivery(successor, None, slot_out))
            else:
                deliveries.append(_Delivery(successor, slot, slot_out))
        return deliveries

    def _apply_deliveries(
        self,
        deliveries: list[_Delivery],
        normal: dict[str, object],
        speculative: dict[str, dict[SlotKey, object]],
        policy: WideningPolicy,
        visits: dict[str, int],
        dirty: dict[str, set],
    ) -> set[str]:
        changed: set[str] = set()
        for delivery in deliveries:
            target = delivery.target
            if target not in normal:
                continue
            if delivery.slot is None:
                joined, grew = policy.join(
                    target, visits.get(target, 0), normal[target], delivery.value
                )
                if grew:
                    normal[target] = joined
                    changed.add(target)
                    dirty[target].add(None)
            else:
                slots = speculative[target]
                current = slots.get(delivery.slot, self._bottom)
                joined, grew = current.join_changed(delivery.value)
                if grew:
                    slots[delivery.slot] = joined
                    changed.add(target)
                    dirty[target].add(delivery.slot)
        return changed

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def _classify(self, fixpoint: SpeculativeFixpoint) -> list[AccessClassification]:
        classifications: list[AccessClassification] = []
        for block in self.cfg.reachable_blocks():
            classifications.extend(self._classify_committed(fixpoint, block))
        for scenario in self.solved_scenarios:
            window = self.chooser.active_window(scenario)
            for block, limit in window.allowed.items():
                classifications.extend(
                    self._classify_window(fixpoint, scenario, block, limit)
                )
        return classifications

    def _classify_committed(
        self, fixpoint: SpeculativeFixpoint, block: str
    ) -> list[AccessClassification]:
        """Classify the committed (non-speculative) accesses of ``block``.

        Accesses in the correct branch of a mispredicted execution commit
        with the speculatively polluted cache, so the classification must
        hold under the join of the normal state and every *resume* state
        that reaches the block (window states model squashed instructions
        only; their misses are the masked "#SpMiss").
        """
        state = fixpoint.normal[block]
        for slot, slot_state in fixpoint.speculative.get(block, {}).items():
            if slot[0] == "resume" and not getattr(slot_state, "is_bottom", False):
                state = slot_state if getattr(state, "is_bottom", False) else state.join(slot_state)
        if getattr(state, "is_bottom", False):
            return []
        return classify_block(state, self.table, block, self.secret_symbols)

    def _classify_window(
        self,
        fixpoint: SpeculativeFixpoint,
        scenario: SpeculationScenario,
        block: str,
        limit: int,
    ) -> list[AccessClassification]:
        """Classify the first ``limit`` accesses of ``block`` inside
        ``scenario``'s speculative window."""
        state = fixpoint.speculative.get(block, {}).get(("window", scenario.color))
        if state is None or getattr(state, "is_bottom", False):
            return []
        return classify_block(
            state,
            self.table,
            block,
            self.secret_symbols,
            instruction_limit=limit,
            speculative=True,
            scenario_color=scenario.color,
        )

    def _resume_touched_blocks(self, plan: _WarmPlan) -> set[str]:
        """Blocks whose resume-slot population differs between the prior
        run and this one — where the committed (normal) classification
        cannot be reused even though the block itself is unaffected.

        A resume region is everything reachable from a scenario's correct
        target without entering its convergence block.  Regions of *stable*
        scenarios contribute identically in both runs (their slots are
        seeded verbatim and input-closed).  Regions of rebuilt scenarios
        are walked over the *new* CFG; regions of old scenarios with no
        stable counterpart — including ones whose correct target is no
        longer even reachable, so the affected-region closure never saw
        them — are walked over the *old* successor lists.
        """
        touched: set[str] = set()
        if not self.speculation.merge_strategy.convert_at_merge_point:
            # Rollbacks convert into S immediately: no resume slots exist,
            # and their normal-state contributions are inside the affected
            # closure already.
            return touched

        def walk(scenario: SpeculationScenario, successors) -> None:
            convergence = scenario.convergence_block
            if convergence is None or convergence == scenario.correct_target:
                return
            seen = {scenario.correct_target}
            stack = [scenario.correct_target]
            while stack:
                block = stack.pop()
                touched.add(block)
                for successor in successors(block):
                    if successor != convergence and successor not in seen:
                        seen.add(successor)
                        stack.append(successor)

        stable_new_colors = {s.color for s in plan.stable.values()}
        for scenario in self.solved_scenarios:
            if scenario.color not in stable_new_colors:
                walk(scenario, self.cfg.successors)
        old_successors = plan.warm.old_successors
        for scenario in plan.warm.scenarios:
            if (
                scenario.color in plan.warm.solved_colors
                and scenario.color not in plan.stable
            ):
                walk(scenario, lambda name: old_successors.get(name, ()))
        return touched

    def _classify_warm(
        self, fixpoint: SpeculativeFixpoint, plan: _WarmPlan
    ) -> list[AccessClassification]:
        """:meth:`_classify`, reusing the prior run's classifications for
        blocks the edit provably did not touch.

        Reuse is bit-identical to reclassification: a block outside the
        affected region has unchanged content (changed blocks seed the
        region), an identical joined state (normal and stable-scenario
        resume slots are seeded and input-closed; differing resume
        populations are excluded via :meth:`_resume_touched_blocks`), and
        — gated by the per-block line signature — identical source lines,
        so ``classify_block`` would emit exactly the retained objects.
        The same argument covers window classifications of stable
        scenarios (equal windows, equal limits, seeded slots); only the
        scenario color is remapped old→new.
        """
        warm = plan.warm
        if warm.classifications is None or warm.block_line_signatures is None:
            return self._classify(fixpoint)
        affected = plan.affected
        old_lines = warm.block_line_signatures
        new_lines = self.cfg.block_line_signatures()
        resume_touched = self._resume_touched_blocks(plan)

        old_normal: dict[str, list[AccessClassification]] = {}
        old_window: dict[tuple[int, str], list[AccessClassification]] = {}
        for classification in warm.classifications:
            if classification.speculative:
                key = (classification.scenario_color, classification.block)
                old_window.setdefault(key, []).append(classification)
            else:
                old_normal.setdefault(classification.block, []).append(classification)

        reused = 0
        classifications: list[AccessClassification] = []
        for block in self.cfg.reachable_blocks():
            if (
                block not in affected
                and block not in resume_touched
                and old_lines.get(block) == new_lines.get(block)
                and block in old_lines
            ):
                retained = old_normal.get(block, ())
                classifications.extend(retained)
                reused += len(retained)
                continue
            classifications.extend(self._classify_committed(fixpoint, block))

        old_color_of = {
            scenario.color: old_color for old_color, scenario in plan.stable.items()
        }
        for scenario in self.solved_scenarios:
            window = self.chooser.active_window(scenario)
            old_color = old_color_of.get(scenario.color)
            for block, limit in window.allowed.items():
                if (
                    old_color is not None
                    and block not in affected
                    and old_lines.get(block) == new_lines.get(block)
                    and block in old_lines
                ):
                    for retained in old_window.get((old_color, block), ()):
                        classifications.append(
                            retained
                            if retained.scenario_color == scenario.color
                            else replace(retained, scenario_color=scenario.color)
                        )
                        reused += 1
                    continue
                classifications.extend(
                    self._classify_window(fixpoint, scenario, block, limit)
                )
        if self.warm_info is not None:
            self.warm_info["classifications_reused"] = reused
        return classifications
