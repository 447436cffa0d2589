"""Retained analysis snapshots: the substrate of incremental re-analysis.

An :class:`AnalysisSnapshot` captures everything a later run needs to
warm-start the sparse speculative fixpoint against an *edited* program,
as one :class:`~repro.analysis.multicolor.WarmStartData` holding the
producing run's live values:

* the per-block content fingerprints and successor lists of the analysed
  CFG (what :func:`repro.ir.cfg.diff_cfgs` maps the edit onto);
* the final fixpoint states — the per-block normal states and every
  speculative slot — as the solver left them (states are immutable
  values, so sharing them with the finished run is safe);
* the vcfg skeleton (frozen scenarios, with the colors the solver
  tracked) and the depth chooser's final per-color decisions;
* the run's classifications plus per-block *line* signatures, so
  classification of untouched blocks can be reused verbatim when the
  edit did not shift their source lines.

Next to it the snapshot records the compatibility metadata that gates a
warm start (:func:`snapshot_compatible`).

Snapshots live in a bounded LRU inside the
:class:`~repro.engine.engine.AnalysisEngine`, keyed by the producing
request's ``result_key()`` — the same lineage handle an edited request
passes back as its ``warm_from=``.  They are an in-process acceleration
structure only: never pickled, never persisted, and safe to drop at any
time (a missing or incompatible snapshot just means a cold run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine.cache import CacheStats
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import CompiledProgram
from repro.obs import span, stamp_for_request

if TYPE_CHECKING:
    from repro.analysis.multicolor import WarmStartData

#: Default capacity of the engine's snapshot LRU.  A snapshot pins its
#: run's live fixpoint states, about 43–81 KB each on the Table-7
#: kernels; the store is bounded so a long-lived daemon cannot grow
#: without limit.
DEFAULT_SNAPSHOT_CACHE_SIZE = 64


@dataclass(frozen=True)
class AnalysisSnapshot:
    """One retained speculative fixpoint, ready to seed a warm re-run."""

    #: ``result_key()`` of the request that produced this snapshot — the
    #: lineage handle edited requests pass back via ``warm_from=``.
    result_key: str
    #: ``compile_key()`` of the producing request (observability only).
    compile_key: str
    #: Entry function name of the analysed program.
    entry: str
    #: Memory-layout fingerprint the retained states embed (states name
    #: symbols and memory blocks; a different layout makes them garbage).
    layout_fingerprint: str
    #: The resolved configs of the producing run.  A warm start is only
    #: sound against a request resolving to the *same* analysis.
    cache_config: object
    speculation: object
    #: Widening count of the producing run.  Retained states are only the
    #: exact least fixpoint — the thing warm exactness rests on — when the
    #: producing run never widened.
    widenings: int
    #: The producing run's fixpoint and context, as the solver seeds it.
    warm: WarmStartData
    #: Secret annotations of the analysed program.  Fixpoint states do not
    #: depend on them, but retained classifications do — and they are not
    #: part of the layout fingerprint, so they gate compatibility here.
    secret_symbols: frozenset[str] = frozenset()


def snapshot_from_analysis(
    request: AnalysisRequest,
    program: CompiledProgram,
    analysis,
    result,
) -> AnalysisSnapshot:
    """Build a snapshot from a completed sparse speculative solve.

    ``analysis`` is the :class:`~repro.analysis.multicolor.SpeculativeCacheAnalysis`
    instance that just ran (its ``last_fixpoint`` holds the full state
    maps the result object does not carry); ``result`` the
    :class:`~repro.analysis.result.CacheAnalysisResult` it produced.
    Warm runs may be snapshotted too: their states are bit-identical to
    the cold fixpoint by construction.
    """
    from repro.analysis.multicolor import WarmStartData

    fixpoint = analysis.last_fixpoint
    if fixpoint is None:
        raise ValueError("analysis has no retained fixpoint to snapshot")
    cfg = program.cfg
    depths, locked = analysis.chooser.export_state()
    fingerprints = cfg.block_fingerprints()
    line_signatures = cfg.block_line_signatures()
    # Prime the program's content caches: the mitigation loop derives every
    # candidate's fingerprints from these by delta, and later warm runs
    # against the same resident program skip the full canonicalisation pass.
    cfg.attach_content_caches(fingerprints, line_signatures)
    return AnalysisSnapshot(
        result_key=request.result_key(),
        compile_key=request.compile_key(),
        entry=cfg.name,
        layout_fingerprint=program.layout_fingerprint(),
        cache_config=request.resolved_cache_config,
        speculation=request.resolved_speculation,
        widenings=result.widenings,
        warm=WarmStartData(
            block_fingerprints=fingerprints,
            old_successors={name: tuple(cfg.successors(name)) for name in cfg.blocks},
            scenarios=analysis.vcfg.scenarios,
            solved_colors=frozenset(s.color for s in analysis.solved_scenarios),
            # A finished solve never touches its maps again: a new solve
            # builds fresh ones, and the warm seed only reads these.
            normal=fixpoint.normal,
            slots=fixpoint.speculative,
            chooser_active_depths=depths,
            chooser_locked=locked,
            classifications=tuple(result.classifications),
            block_line_signatures=line_signatures,
        ),
        secret_symbols=frozenset(program.info.secret_symbols),
    )


def warm_start_from_snapshot(snapshot: AnalysisSnapshot) -> WarmStartData:
    """The solver's warm seed retained by ``snapshot``.

    The value is shared by every warm start from this snapshot: the
    solver treats it as read-only — states are immutable values, and a
    warm solve copies what it seeds into maps of its own.
    """
    return snapshot.warm


def snapshot_compatible(
    snapshot: AnalysisSnapshot, request: AnalysisRequest, program: CompiledProgram
) -> str | None:
    """None when ``snapshot`` may seed a warm run of ``request`` over
    ``program``; otherwise the rejection reason (a cold-fallback label).

    The checks mirror what warm exactness rests on: same resolved
    analysis configuration, same entry function, a memory layout whose
    symbols/blocks the retained states actually denote, and a producing
    run that never widened (widened states sit above the least fixpoint,
    and a warm drain would never pull seeded blocks back down).
    """
    if snapshot.widenings:
        return "baseline_widened"
    if snapshot.entry != program.cfg.name:
        return "entry_mismatch"
    if snapshot.layout_fingerprint != program.layout_fingerprint():
        return "layout_mismatch"
    if snapshot.secret_symbols != frozenset(program.info.secret_symbols):
        return "secret_symbols_mismatch"
    if snapshot.cache_config != request.resolved_cache_config:
        return "cache_config_mismatch"
    if snapshot.speculation != request.resolved_speculation:
        return "speculation_mismatch"
    return None


def snapshot_eligible(request: AnalysisRequest) -> bool:
    """May this request's run be snapshotted / warm-started at all?

    Only speculative runs retain and consume snapshots: the baseline
    analysis has no speculative slots to seed.
    """
    return request.kind is AnalysisKind.SPECULATIVE


def execute_retaining(
    request: AnalysisRequest, program: CompiledProgram, warm_start=None
):
    """Run one speculative request keeping the solver instance around.

    The cache-free twin of :func:`repro.engine.engine.execute_request`
    for the speculative kind: identical result (same spans, same
    provenance stamping), but returns ``(result, analysis)`` so the
    caller can snapshot the final fixpoint states — which the plain
    result object deliberately does not carry.
    """
    from repro.analysis.multicolor import SpeculativeCacheAnalysis

    with span(
        "analyze", kind=request.kind.value, label=request.label
    ) as analyze_span:
        analysis = SpeculativeCacheAnalysis(
            program,
            cache_config=request.cache_config,
            speculation=request.speculation,
            warm_start=warm_start,
        )
        result = analysis.run()
        result.provenance = stamp_for_request(request)
        analyze_span.set(
            result_key=request.result_key(), iterations=result.iterations
        )
    return result, analysis


@dataclass
class IncrementalStats:
    """Aggregate incremental-reuse accounting for one engine instance."""

    enabled: bool = False
    warm_hits: int = 0
    cold_fallbacks: int = 0
    snapshots_stored: int = 0
    seeded_slots: int = 0
    invalidated_blocks: int = 0
    snapshots: CacheStats = field(default_factory=CacheStats)
    #: How many snapshots are currently retained.
    retained: int = 0

    @property
    def warm_rate(self) -> float:
        """Warm hits over warm-or-fallback attempts (0.0 when none)."""
        attempts = self.warm_hits + self.cold_fallbacks
        return self.warm_hits / attempts if attempts else 0.0

    def to_wire(self) -> dict:
        """JSON-shaped form for the service stats payload."""
        return {
            "enabled": self.enabled,
            "warm_hits": self.warm_hits,
            "cold_fallbacks": self.cold_fallbacks,
            "warm_rate": self.warm_rate,
            "snapshots_stored": self.snapshots_stored,
            "seeded_slots": self.seeded_slots,
            "invalidated_blocks": self.invalidated_blocks,
            "retained": self.retained,
            "snapshot_cache": vars(self.snapshots),
        }

    def __str__(self) -> str:
        return (
            f"incremental: {'on' if self.enabled else 'off'}, "
            f"{self.warm_hits} warm hits, {self.cold_fallbacks} cold fallbacks "
            f"({self.warm_rate:.0%} warm), {self.retained} snapshots retained"
        )
