"""Survivability analyses: prepare/fold/merge/finalize over trials.

The survivability questions — how much connectivity and capacity a
design keeps as a growing fraction of its devices fails — are declared
as :class:`~repro.runtime.analysis.Analysis` subclasses over the
``"trial"`` corpus domain, so the executor's column-batch folds —
serial or pooled — and the per-row reference fold answer them
bit-identically.  The identity holds by construction, not by luck:
the shared :class:`SurvivabilityTallies` state sums *integer* counts
per (design, fraction) cell, integer addition is associative and
commutative under any shard/batch partition, and every float is
computed once, at finalize, from the identical integer sums.

Three analyses share one state (``state_key="survivability"`` — the
executor folds each trial record once and hands all three the same
tallies): connectivity curves, capacity curves, and the summary that
:mod:`repro.core.conditional_risk` joins for capacity planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.runtime.analysis import Analysis, RunContext

__all__ = [
    "SurvivabilityCurve",
    "SurvivabilityCurves",
    "SurvivabilityPoint",
    "SurvivabilityStudyReport",
    "SurvivabilitySummary",
    "SurvivabilityTallies",
    "DesignSurvivability",
    "build_survivability_context",
    "run_survivability_report",
    "survivability_report_analyses",
    "survivability_report_from",
]


class SurvivabilityTallies:
    """Mergeable integer tallies per (design, fraction) cell."""

    def __init__(self) -> None:
        #: (design, fraction_idx) -> summed integer counts.
        self.connected: Dict[Tuple[str, int], int] = {}
        self.rsw_total: Dict[Tuple[str, int], int] = {}
        self.links_up: Dict[Tuple[str, int], int] = {}
        self.links_total: Dict[Tuple[str, int], int] = {}
        self.rows: Dict[Tuple[str, int], int] = {}
        #: fraction_idx -> fraction_pct (the sweep axis labels).
        self.fraction_pct: Dict[int, int] = {}

    def fold(self, record) -> None:
        key = (record.design, record.fraction_idx)
        self.connected[key] = (
            self.connected.get(key, 0) + record.connected_rsw
        )
        self.rsw_total[key] = (
            self.rsw_total.get(key, 0) + record.total_rsw
        )
        self.links_up[key] = (
            self.links_up.get(key, 0) + record.surviving_links
        )
        self.links_total[key] = (
            self.links_total.get(key, 0) + record.total_links
        )
        self.rows[key] = self.rows.get(key, 0) + 1
        self.fraction_pct[record.fraction_idx] = record.fraction_pct

    def fold_batch(self, batch) -> None:
        """Array-at-a-time fold over a trial column batch."""
        for design, idx, pct, connected, rsw, links_up, links in zip(
            batch.design, batch.fraction_idx, batch.fraction_pct,
            batch.connected_rsw, batch.total_rsw,
            batch.surviving_links, batch.total_links,
        ):
            key = (design, idx)
            self.connected[key] = self.connected.get(key, 0) + connected
            self.rsw_total[key] = self.rsw_total.get(key, 0) + rsw
            self.links_up[key] = self.links_up.get(key, 0) + links_up
            self.links_total[key] = self.links_total.get(key, 0) + links
            self.rows[key] = self.rows.get(key, 0) + 1
            self.fraction_pct[idx] = pct

    def merge(self, other: "SurvivabilityTallies") -> "SurvivabilityTallies":
        for name in ("connected", "rsw_total", "links_up",
                     "links_total", "rows"):
            mine = getattr(self, name)
            for key, count in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + count
        self.fraction_pct.update(other.fraction_pct)
        return self


# -- result dataclasses ------------------------------------------------


@dataclass(frozen=True)
class SurvivabilityPoint:
    """Mean surviving share at one failed fraction."""

    fraction_pct: int
    value: float
    trials: int


@dataclass(frozen=True)
class SurvivabilityCurve:
    """One design's survivability curve for one metric."""

    design: str
    metric: str
    points: Tuple[SurvivabilityPoint, ...]

    def value_at(self, fraction_pct: int) -> float:
        for point in self.points:
            if point.fraction_pct == fraction_pct:
                return point.value
        raise KeyError(
            f"no {self.metric} point at {fraction_pct}% for "
            f"{self.design!r}"
        )


@dataclass(frozen=True)
class SurvivabilityCurves:
    """The per-design curve family for one metric."""

    metric: str
    curves: Tuple[SurvivabilityCurve, ...]

    @property
    def designs(self) -> Tuple[str, ...]:
        return tuple(curve.design for curve in self.curves)

    def curve(self, design: str) -> SurvivabilityCurve:
        for curve in self.curves:
            if curve.design == design:
                return curve
        raise KeyError(f"no {self.metric} curve for design {design!r}")


@dataclass(frozen=True)
class DesignSurvivability:
    """One design's summary scalars."""

    design: str
    #: Mean of the connectivity curve over the fraction sweep — the
    #: normalized area under the curve.
    connectivity_auc: float
    capacity_auc: float
    #: Smallest failed percent where mean connectivity drops below
    #: one half; ``None`` when the design holds above it throughout.
    half_connectivity_pct: Optional[int]


@dataclass(frozen=True)
class SurvivabilitySummary:
    """Cross-design summary (the cluster-vs-fabric comparison)."""

    designs: Tuple[DesignSurvivability, ...]
    #: fabric connectivity AUC minus cluster connectivity AUC — the
    #: paper's claim that path diversity buys failure tolerance,
    #: as one number.
    fabric_advantage: float

    def design(self, name: str) -> DesignSurvivability:
        for row in self.designs:
            if row.design == name:
                return row
        raise KeyError(f"no survivability summary for design {name!r}")


@dataclass
class SurvivabilityStudyReport:
    """Every survivability artifact from one trial corpus."""

    connectivity: SurvivabilityCurves
    capacity: SurvivabilityCurves
    summary: SurvivabilitySummary

    def render(self) -> str:
        from repro.viz import survivability_table

        return survivability_table(self)


# -- the analyses ------------------------------------------------------


def _curves(state: SurvivabilityTallies, metric: str,
            numerator: Dict, denominator: Dict) -> SurvivabilityCurves:
    designs = sorted({design for design, _ in state.rows})
    curves = []
    for design in designs:
        points = []
        for idx in sorted(state.fraction_pct):
            key = (design, idx)
            if key not in state.rows:
                continue
            points.append(SurvivabilityPoint(
                fraction_pct=state.fraction_pct[idx],
                value=numerator[key] / denominator[key],
                trials=state.rows[key],
            ))
        curves.append(SurvivabilityCurve(
            design=design, metric=metric, points=tuple(points)
        ))
    return SurvivabilityCurves(metric=metric, curves=tuple(curves))


class _TrialAnalysis(Analysis):
    """Shared fold over the survivability tallies."""

    domain = "trial"
    state_key = "survivability"

    def prepare(self, context: RunContext) -> SurvivabilityTallies:
        return SurvivabilityTallies()

    def fold(self, record, state: SurvivabilityTallies) -> None:
        state.fold(record)

    def fold_batch(self, batch, state: SurvivabilityTallies) -> None:
        state.fold_batch(batch)


class SurvivabilityConnectivityAnalysis(_TrialAnalysis):
    """Mean connected-RSW share vs. fraction failed, per design."""

    name = "survivability_connectivity"

    def finalize(self, state: SurvivabilityTallies,
                 context: RunContext) -> SurvivabilityCurves:
        return _curves(state, "connectivity",
                       state.connected, state.rsw_total)


class SurvivabilityCapacityAnalysis(_TrialAnalysis):
    """Mean surviving-link share vs. fraction failed, per design."""

    name = "survivability_capacity"

    def finalize(self, state: SurvivabilityTallies,
                 context: RunContext) -> SurvivabilityCurves:
        return _curves(state, "capacity",
                       state.links_up, state.links_total)


class SurvivabilitySummaryAnalysis(_TrialAnalysis):
    """Per-design AUC scalars and the fabric-vs-cluster advantage."""

    name = "survivability_summary"

    def finalize(self, state: SurvivabilityTallies,
                 context: RunContext) -> SurvivabilitySummary:
        connectivity = _curves(state, "connectivity",
                               state.connected, state.rsw_total)
        capacity = _curves(state, "capacity",
                           state.links_up, state.links_total)
        rows = []
        auc: Dict[str, float] = {}
        for curve in connectivity.curves:
            values = [point.value for point in curve.points]
            auc[curve.design] = sum(values) / len(values)
            half = None
            for point in curve.points:
                if point.value < 0.5:
                    half = point.fraction_pct
                    break
            cap = capacity.curve(curve.design)
            cap_values = [point.value for point in cap.points]
            rows.append(DesignSurvivability(
                design=curve.design,
                connectivity_auc=auc[curve.design],
                capacity_auc=sum(cap_values) / len(cap_values),
                half_connectivity_pct=half,
            ))
        advantage = 0.0
        if "fabric" in auc and "cluster" in auc:
            advantage = auc["fabric"] - auc["cluster"]
        return SurvivabilitySummary(
            designs=tuple(rows), fabric_advantage=advantage
        )


_ANALYSES = (
    SurvivabilityConnectivityAnalysis,
    SurvivabilityCapacityAnalysis,
    SurvivabilitySummaryAnalysis,
)


def survivability_report_analyses():
    """Fresh instances of every survivability analysis."""
    return [cls() for cls in _ANALYSES]


def survivability_report_from(results) -> SurvivabilityStudyReport:
    """Assemble the study from ``survivability_report_analyses``
    results."""
    return SurvivabilityStudyReport(
        connectivity=results["survivability_connectivity"],
        capacity=results["survivability_capacity"],
        summary=results["survivability_summary"],
    )


def run_survivability_report(
    context: RunContext,
    jobs: int = 1,
    cache=None,
    source: Optional[Iterable] = None,
) -> SurvivabilityStudyReport:
    """Every survivability artifact from one trial corpus, one run.

    The trial-domain sibling of
    :func:`repro.runtime.executor.run_intra_report`: same plan, same
    merge law, same cache.  The context needs ``trials`` (a
    :class:`~repro.survivability.trials.TrialSet`) or an explicit
    ``source`` iterable of :class:`FailureTrial` records.
    """
    from repro.runtime.executor import Executor

    executor = Executor(jobs=jobs, cache=cache)
    return survivability_report_from(executor.run(
        survivability_report_analyses(), context, source=source
    ))


def build_survivability_context(seed: int = 1) -> RunContext:
    """The survivability study's context: the seeded trial corpus.

    The trial corpus is a pure function of ``(seed, knobs)``, so the
    context carries the seed as the corpus fingerprint seed and no
    scenario digest (the builder runs the default knobs).
    """
    from repro.survivability.trials import generate_trials

    return RunContext(trials=generate_trials(seed=seed), corpus_seed=seed)
