"""The paper's analyses, declared against the runtime protocol.

One :class:`~repro.runtime.analysis.Analysis` per artifact of
:mod:`repro.core`.  Each corpus analysis pairs a mergeable fold state
(:mod:`repro.runtime.states`) with the pure finalizer math of the
core modules (``rates_from_counts`` and friends) — so SQL
pushdown, column batches and the per-row reference fold run the *same*
math over the same counts and can only differ in how the counts were
gathered.

Two domains of corpus analysis coexist: the sections 4-5 analyses fold
SEV reports (``domain = "sev"``), the section 6 analyses fold repair
tickets (``domain = "ticket"``) — the executor resolves each group's
record source independently.  Analyses that never read any corpus —
Table 1 reads the remediation engine — are context-only
(``requires_corpus = False``).

Analyses that fold the same state declare a shared ``state_key`` so
the executor folds each record into each distinct state once, not once
per analysis.  The streaming runtime keeps the SEV states by the same
keys, so :func:`repro.stream.finalize_analyses` answers these analyses
over a live feed with the same ``finalize``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.backbone.monitor import failures_from_link_outages
from repro.core.backbone_reliability import (
    continent_rows_from_failures,
    reliability_from_outages,
)
from repro.core.design_comparison import (
    DesignComparison,
    design_counts_from_type_counts,
)
from repro.core.distribution import IncidentDistribution, growth_from_totals
from repro.core.incident_rates import rates_from_counts
from repro.core.remediation_stats import remediation_table
from repro.core.root_causes import (
    RootCauseBreakdown,
    device_fractions_from_counts,
)
from repro.core.severity import SeverityByDevice, severity_rates_from_counts
from repro.core.switch_reliability import switch_reliability_from_counts
from repro.runtime.analysis import Analysis, RunContext
from repro.runtime.states import (
    CauseCounts,
    CauseTallies,
    DurationSketches,
    OutageTallies,
    SeverityTallies,
    TicketDurationSketches,
    YearTypeCounts,
)
from repro.topology.devices import DeviceType

__all__ = [
    "BackboneReliabilityAnalysis",
    "ContinentTableAnalysis",
    "CorpusSize",
    "CorpusSizeAnalysis",
    "DesignComparisonAnalysis",
    "DistributionAnalysis",
    "GrowthAnalysis",
    "IncidentRatesAnalysis",
    "RemediationTableAnalysis",
    "RepairDurationAnalysis",
    "RootCausesAnalysis",
    "RootCausesByDeviceAnalysis",
    "SeverityByDeviceAnalysis",
    "SeverityOverTimeAnalysis",
    "SwitchReliabilityAnalysis",
    "TicketCorpusSize",
    "TicketCorpusSizeAnalysis",
    "VendorScorecardAnalysis",
    "backbone_report_analyses",
    "intra_report_analyses",
    "registry",
]


# -- corpus analyses ---------------------------------------------------


class _Delegating:
    """Mixin: an analysis whose fold dialects delegate to its state.

    ``state_type`` names the mergeable state (every state in
    :mod:`repro.runtime.states` speaks ``fold`` and ``fold_batch``,
    and the SEV states ``fold_sql``); ``prepare`` builds one, and
    records, whole :class:`~repro.runtime.columns.ColumnBatch` chunks
    and SQLite shards are handed to it.  Only a SEV corpus has SQLite
    shards, so a ticket state is never asked for ``fold_sql``.
    """

    state_type: type

    def prepare(self, context: RunContext):
        return self.state_type()

    def fold(self, record, state) -> None:
        state.fold(record)

    def fold_batch(self, batch, state) -> None:
        state.fold_batch(batch)

    def fold_sql(self, store, state) -> None:
        state.fold_sql(store)


class RootCausesAnalysis(_Delegating, Analysis):
    """Table 2: root-cause counts and fractions over the whole study.

    Its own state, not Figure 2's: Table 2 needs no per-type join, so
    its SQL fill is the single ``count_by_root_cause`` query.
    """

    name = "root_causes"
    state_type = CauseCounts

    def finalize(self, state: CauseCounts, context: RunContext):
        return RootCauseBreakdown(counts=dict(state.counts))


class RootCausesByDeviceAnalysis(_Delegating, Analysis):
    """Figure 2: per root cause, incident fractions by device type."""

    name = "root_causes_by_device"
    state_key = "causes"
    state_type = CauseTallies

    def finalize(self, state: CauseTallies, context: RunContext):
        return device_fractions_from_counts(state.by_type)


class IncidentRatesAnalysis(_Delegating, Analysis):
    """Figure 3: per-year, per-type incident rates."""

    name = "incident_rates"
    state_key = "year_type"
    state_type = YearTypeCounts

    def finalize(self, state: YearTypeCounts, context: RunContext):
        return rates_from_counts(state.counts, context.fleet)


class SeverityByDeviceAnalysis(_Delegating, Analysis):
    """Figure 4: the severity-by-device cross-tabulation for the
    target year (explicit, or the newest year in the corpus)."""

    name = "severity_by_device"
    state_key = "severity"
    state_type = SeverityTallies

    def finalize(self, state: SeverityTallies, context: RunContext):
        year = context.resolve_year(state.by_year)
        return SeverityByDevice(
            counts=state.by_year_type.get(year, {}), year=year
        )


class SeverityOverTimeAnalysis(_Delegating, Analysis):
    """Figure 5: yearly SEV rates per device, by severity level."""

    name = "severity_over_time"
    state_key = "severity"
    state_type = SeverityTallies

    def finalize(self, state: SeverityTallies, context: RunContext):
        return severity_rates_from_counts(state.by_year, context.fleet)


class DistributionAnalysis(_Delegating, Analysis):
    """Figures 7/8: per-year incident counts by device type."""

    name = "distribution"
    state_key = "year_type"
    state_type = YearTypeCounts

    def finalize(self, state: YearTypeCounts, context: RunContext):
        return IncidentDistribution(
            counts=state.counts,
            baseline_year=context.resolve_baseline(state.yearly_totals),
        )


class GrowthAnalysis(_Delegating, Analysis):
    """Figure 8's headline: total SEV growth from the first corpus
    year to the target year."""

    name = "growth"
    state_key = "year_type"
    state_type = YearTypeCounts

    def finalize(self, state: YearTypeCounts, context: RunContext):
        totals = state.yearly_totals
        if not totals:
            raise ValueError("the SEV corpus is empty")
        return growth_from_totals(
            totals, min(totals), context.resolve_year(totals)
        )


class CorpusSize(NamedTuple):
    """How many SEVs a corpus holds, typed or not, and its years."""

    rows: int
    years: List[int]


class CorpusSizeAnalysis(_Delegating, Analysis):
    """The corpus line of ``report intra`` and ``analyze``.

    Read off the yearly totals, which count every SEV, so the values
    equal ``len(store)`` and ``store.years()`` — and a warm cached run
    answers them without building the corpus.
    """

    name = "corpus_size"
    state_key = "year_type"
    state_type = YearTypeCounts

    def finalize(self, state: YearTypeCounts, context: RunContext):
        totals = state.yearly_totals
        return CorpusSize(rows=sum(totals.values()), years=sorted(totals))


class DesignComparisonAnalysis(_Delegating, Analysis):
    """Figures 9/10: incidents aggregated by network design."""

    name = "design_comparison"
    state_key = "year_type"
    state_type = YearTypeCounts

    def finalize(self, state: YearTypeCounts, context: RunContext):
        return DesignComparison(
            counts=design_counts_from_type_counts(state.counts),
            baseline_year=context.resolve_baseline(state.yearly_totals),
            fleet=context.fleet,
        )


class SwitchReliabilityAnalysis(_Delegating, Analysis):
    """Figures 12/13: MTBI and p75IRT per year and device type.

    Every path answers p75IRT from mergeable quantile sketches: exact
    below the sketch's sample budget, bounded by the bin width (well
    under the 2% acceptance band) beyond it.  The SQL fill feeds the
    same sketches from one duration fetch (``fold_sql``) rather than
    taking exact percentiles, so SQL, column batches and the per-row
    fold stay bit-exact at every corpus scale, not just while the
    sketches are exact.  A sketch holds one sample per typed report,
    so each cell's MTBI incident count is its sketch's ``n``.
    """

    name = "switch_reliability"
    state_key = "durations"
    state_type = DurationSketches

    def finalize(self, state: DurationSketches, context: RunContext):
        cells = state.by_year_type
        counts = {
            year: {device_type: sketch.n
                   for device_type, sketch in per_type.items()}
            for year, per_type in cells.items()
        }

        def sketch_p75(year: int, device_type: DeviceType) -> float:
            return cells[year][device_type].p75()

        return switch_reliability_from_counts(
            counts, context.fleet, sketch_p75
        )


# -- context-only analyses ---------------------------------------------


class RemediationTableAnalysis(Analysis):
    """Table 1: automated remediation summarized per device type."""

    name = "remediation_table"
    requires_corpus = False

    def finalize(self, state, context: RunContext):
        if context.engine is None:
            raise ValueError(
                "remediation_table needs a RemediationEngine in the context"
            )
        return remediation_table(context.engine)


# -- ticket-domain (section 6) analyses ---------------------------------


class _TicketAnalysis(_Delegating, Analysis):
    """Shared plumbing of the section 6 corpus analyses."""

    domain = "ticket"
    state_key = "ticket_outages"
    state_type = OutageTallies


class BackboneReliabilityAnalysis(_TicketAnalysis):
    """Figures 15-18: the four backbone percentile curves."""

    name = "backbone_reliability"

    def finalize(self, state: OutageTallies, context: RunContext):
        topology = context.topology
        if topology is None:
            raise ValueError(
                "backbone_reliability needs a topology in the context"
            )
        window = context.resolve_window(state.max_end_h)
        failures = failures_from_link_outages(
            topology, state.merged_by_link()
        )
        return reliability_from_outages(
            failures, state.sorted_by_vendor(), window
        )


class ContinentTableAnalysis(_TicketAnalysis):
    """Table 4: edge distribution and reliability by continent."""

    name = "continent_table"

    def finalize(self, state: OutageTallies, context: RunContext):
        topology = context.topology
        if topology is None:
            raise ValueError(
                "continent_table needs a topology in the context"
            )
        window = context.resolve_window(state.max_end_h)
        failures = failures_from_link_outages(
            topology, state.merged_by_link()
        )
        return continent_rows_from_failures(failures, topology, window)


class VendorScorecardAnalysis(_TicketAnalysis):
    """Section 6.2's operational consumer: graded vendor scorecards."""

    name = "vendor_scorecards"

    def finalize(self, state: OutageTallies, context: RunContext):
        from repro.backbone.scorecards import scorecards_from_outages

        window = context.resolve_window(state.max_end_h)
        return scorecards_from_outages(state.sorted_by_vendor(), window)


class TicketCorpusSize(NamedTuple):
    """How many tickets a backbone corpus holds, and the size of the
    topology they were filed against."""

    tickets: int
    edges: int
    links: int


class TicketCorpusSizeAnalysis(_TicketAnalysis):
    """The corpus line of ``report backbone``.

    The ticket count is the folded one (``OutageTallies.tickets``): a
    generated or stored corpus holds only completed tickets, so it
    equals ``len(context.tickets)``.  The edge and link counts come
    from the topology, which ``finalize`` reads only on a cache miss —
    so a warm cached run prints the line without building the corpus.
    """

    name = "ticket_corpus_size"

    def finalize(self, state: OutageTallies, context: RunContext):
        topology = context.topology
        if topology is None:
            raise ValueError(
                "ticket_corpus_size needs a topology in the context"
            )
        return TicketCorpusSize(
            tickets=state.tickets, edges=len(topology.edges),
            links=len(topology.links),
        )


class RepairDurationAnalysis(_Delegating, Analysis):
    """Repair-duration percentiles, overall and by ticket type."""

    name = "repair_durations"
    domain = "ticket"
    state_key = "ticket_durations"
    state_type = TicketDurationSketches

    def finalize(self, state: TicketDurationSketches, context: RunContext):
        return state.summary()


# -- registry ----------------------------------------------------------

_ANALYSES = (
    RootCausesAnalysis,
    RootCausesByDeviceAnalysis,
    IncidentRatesAnalysis,
    SeverityByDeviceAnalysis,
    SeverityOverTimeAnalysis,
    DistributionAnalysis,
    GrowthAnalysis,
    DesignComparisonAnalysis,
    SwitchReliabilityAnalysis,
    CorpusSizeAnalysis,
    RemediationTableAnalysis,
    BackboneReliabilityAnalysis,
    ContinentTableAnalysis,
    VendorScorecardAnalysis,
    RepairDurationAnalysis,
    TicketCorpusSizeAnalysis,
)


def registry() -> Dict[str, Analysis]:
    """Fresh instances of every registered analysis, by name."""
    return {cls.name: cls() for cls in _ANALYSES}


def intra_report_analyses():
    """The analyses :class:`repro.core.IntraStudyReport` composes."""
    return [
        RootCausesAnalysis(),
        IncidentRatesAnalysis(),
        SeverityByDeviceAnalysis(),
        SeverityOverTimeAnalysis(),
        DistributionAnalysis(),
        DesignComparisonAnalysis(),
        SwitchReliabilityAnalysis(),
        GrowthAnalysis(),
    ]


def backbone_report_analyses():
    """The analyses :class:`repro.core.BackboneStudyReport` composes."""
    return [
        BackboneReliabilityAnalysis(),
        ContinentTableAnalysis(),
        VendorScorecardAnalysis(),
        RepairDurationAnalysis(),
    ]

