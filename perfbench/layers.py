"""Per-layer timing from outside the program.

:class:`LayerProbe` wraps each layer's public entry point for the
duration of one traced pass — the front-end functions as
``repro.frontend`` calls them, ``SpeculativeCacheAnalysis`` construction
and ``run``, ``analyze_baseline`` and ``AnalysisEngine.run`` — and
collects the spans the program already emits (``vcfg``, ``fixpoint``,
``classify``) through ``repro.obs.tracer().collecting()`` for the phases
that have no callable entry of their own.  Nothing under ``src/`` is
changed; the wrappers are removed when the probe exits.

Layer times are disjoint:

* ``lang``  = parse + typecheck
* ``ir``    = unroll + lower + inline
* ``speculation`` = vcfg construction
* ``analysis`` = analysis init (construction minus vcfg) + speculative
  ``run()`` (fixpoint + classify + result assembly) + ``analyze_baseline``
* ``engine`` = ``AnalysisEngine.run`` minus all of the above

so ``1 - sum(layers) / pass wall`` is the share no layer covers.
"""

from __future__ import annotations

import time
from collections import defaultdict

import repro.analysis.baseline as baseline_module
import repro.frontend as frontend
from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.engine.engine import AnalysisEngine
from repro.obs import tracer

#: ``repro.frontend`` globals wrapped by the probe, with the layer metric
#: each one feeds.
FRONTEND_CALLS = {
    "parse_program": "lang.parse_s",
    "check_program": "lang.typecheck_s",
    "unroll_fixed_loops": "ir.unroll_s",
    "lower_program": "ir.lower_s",
    "inline_calls": "ir.inline_s",
}

LAYER_PARTS = {
    "lang": ("lang.parse_s", "lang.typecheck_s"),
    "ir": ("ir.unroll_s", "ir.lower_s", "ir.inline_s"),
    "speculation": ("speculation.vcfg_s",),
    "analysis": ("analysis.init_s", "analysis.run_s", "analysis.baseline_s"),
}


class LayerProbe:
    """Context manager timing every layer call made inside it.

    ``times`` maps metric names to summed seconds, ``counts`` maps count
    metrics to summed integers, and ``fixpoint_by_scenarios`` the
    speculative fixpoint seconds keyed by the program's scenario count
    (the size the scaling ratio compares).
    """

    def __init__(self):
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.fixpoint_by_scenarios: dict[int, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []
        self._collecting = None
        self._depth: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _timed(self, metric: str, function, on_result=None):
        probe = self

        def wrapper(*args, **kwargs):
            # Only the outermost call of a layer is timed (re-entrant
            # calls are part of it).
            probe._depth[metric] += 1
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                probe._depth[metric] -= 1
            if probe._depth[metric] == 0:
                probe.times[metric] += time.perf_counter() - started
                if on_result is not None:
                    on_result(result)
            return result

        return wrapper

    def _patch(self, owner, name: str, replacement) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _count_unroll(self, result) -> None:
        _, stats = result
        self.counts["ir.unrolled_iterations"] += stats.iterations_emitted

    def _count_cfg(self, cfg) -> None:
        self.counts["ir.blocks"] += len(cfg.blocks)
        self.counts["ir.instructions"] += sum(
            len(block.instructions) for block in cfg.blocks.values()
        )

    def __enter__(self) -> "LayerProbe":
        for name, metric in FRONTEND_CALLS.items():
            on_result = {
                "unroll_fixed_loops": self._count_unroll,
                "inline_calls": self._count_cfg,
            }.get(name)
            self._patch(
                frontend, name, self._timed(metric, getattr(frontend, name), on_result)
            )
        self._patch(
            SpeculativeCacheAnalysis,
            "__init__",
            self._timed("analysis.construct_s", SpeculativeCacheAnalysis.__init__),
        )
        self._patch(
            SpeculativeCacheAnalysis,
            "run",
            self._timed("analysis.run_s", SpeculativeCacheAnalysis.run),
        )
        self._patch(
            baseline_module,
            "analyze_baseline",
            self._timed("analysis.baseline_s", baseline_module.analyze_baseline),
        )
        self._patch(
            AnalysisEngine, "run", self._timed("engine.run_s", AnalysisEngine.run)
        )
        self._collecting = tracer().collecting()
        self._collecting.__enter__()
        return self

    def __exit__(self, *exc_info) -> bool:
        self._collecting.__exit__(*exc_info)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()
        self._absorb_spans(self._collecting.spans)
        return False

    # ------------------------------------------------------------------
    def _absorb_spans(self, spans: list[dict]) -> None:
        by_id = {span.get("span_id"): span for span in spans}

        def under_speculative(span) -> bool:
            parent = by_id.get(span.get("parent_id"))
            while parent is not None:
                if parent.get("name") == "fixpoint":
                    return False
                if parent.get("name") == "analyze":
                    return parent.get("attrs", {}).get("kind") != "baseline"
                parent = by_id.get(parent.get("parent_id"))
            return True

        for span in spans:
            name = span.get("name")
            attrs = span.get("attrs", {})
            duration = float(span.get("duration") or 0.0)
            if name == "vcfg":
                self.times["speculation.vcfg_s"] += duration
                self.counts["speculation.scenarios"] += int(attrs.get("scenarios", 0))
                self.counts["speculation.vcfg_memo_hits"] += int(bool(attrs.get("cached")))
            elif name == "fixpoint" and attrs.get("kind") == "speculative":
                self.times["analysis.fixpoint_s"] += duration
                self.fixpoint_by_scenarios[int(attrs.get("scenarios", 0))] += duration
            elif name == "classify" and under_speculative(span):
                self.times["analysis.classify_s"] += duration

    # ------------------------------------------------------------------
    def layer_totals(self) -> dict[str, float]:
        """Disjoint per-layer seconds (see module docstring)."""
        construct = self.times.get("analysis.construct_s", 0.0)
        vcfg = self.times.get("speculation.vcfg_s", 0.0)
        self.times["analysis.init_s"] = max(0.0, construct - vcfg)
        totals = {
            layer: sum(self.times.get(part, 0.0) for part in parts)
            for layer, parts in LAYER_PARTS.items()
        }
        totals["engine"] = max(
            0.0, self.times.get("engine.run_s", 0.0) - sum(totals.values())
        )
        self.times["engine.overhead_s"] = totals["engine"]
        return totals
