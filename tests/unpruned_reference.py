"""The solver without scenario pruning, kept as the pruned solver's oracle.

:class:`~repro.analysis.multicolor.SpeculativeCacheAnalysis` tracks only
the scenarios whose windows contain an access site
(:meth:`~repro.analysis.multicolor.SpeculativeCacheAnalysis._solver_scenarios`).
This subclass tracks every scenario.  An access-free scenario changes no
state and classifies nothing, so both must agree on everything a result
reports except the pop count (``tests/test_scenario_pruning.py``).
"""

from __future__ import annotations

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.speculation.vcfg import SpeculationScenario


class UnprunedReferenceAnalysis(SpeculativeCacheAnalysis):
    """:class:`SpeculativeCacheAnalysis` solving every scenario."""

    def _solver_scenarios(self) -> tuple[SpeculationScenario, ...]:
        return self.vcfg.scenarios
