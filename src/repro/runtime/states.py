"""Mergeable per-record tally states.

These are the fold/merge primitives every execution path shares.
Each state knows how to absorb one :class:`~repro.incidents.sev.SEVReport`
(``fold``) and how to absorb another state of the same kind (``merge``);
both operations follow the counting rules of the SQL layer
(:mod:`repro.incidents.query`) exactly — device types come from the
name prefix, untyped reports are excluded from per-type breakdowns but
counted in yearly totals, and a SEV with multiple root causes
contributes one attribution per cause (none recorded counts as
undetermined).

``merge`` is associative and commutative for every state here, which
is the law the executor's pooled column shards (and
:mod:`repro.stream.sharding`) rely on: any partitioning of a corpus,
folded shard-locally and merged in any order, reaches the same state
as a single sequential pass.  The streaming runtime's
:class:`~repro.stream.aggregates.StreamAggregates` is a bundle of these
states and computes nothing from them itself: the stream's shares,
rates and percentiles come from the same analyses' ``finalize`` the
executor runs (:func:`repro.stream.finalize_analyses`), so the
executor and the stream engine share one implementation of the math.

Each state also speaks two faster dialects of the same math:

``fold_batch(batch)``
    absorb one :class:`~repro.runtime.columns.ColumnBatch` with
    array-at-a-time operations — ``Counter`` tallies over zipped
    columns, sketches fed in blocks.  A column has the name of the
    record field or property it holds (``batch.opened_year``,
    ``batch.device_type``), so a batch fold reads what the per-row
    fold reads.  Every tally is a sum over the batch's rows and every
    sketch is multiset-determined, so a columnar fold reaches
    bit-identical finalized results to the per-row reference fold;
``fold_sql(store)`` (SEV states)
    absorb one monolithic-schema SQLite shard through GROUP BY
    queries — the pushdown the executor runs on every SQLite shard,
    monolithic store or hot partition.  Counting rules mirror
    :mod:`repro.incidents.query` exactly.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from repro.backbone.tickets import RepairTicket, TicketType
from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.stats.intervals import OutageInterval, merge_intervals
from repro.stats.quantile import QuantileSketch
from repro.topology.devices import DeviceType

__all__ = [
    "CauseCounts",
    "CauseTallies",
    "DurationSketches",
    "OutageTallies",
    "SeverityTallies",
    "TicketDurationSketches",
    "YearTypeCounts",
]

#: The Table 2 rule for a SEV without recorded causes.
_UNDETERMINED = (RootCause.UNDETERMINED,)


class YearTypeCounts:
    """Incident counts by year, typed and untyped.

    ``counts`` holds only reports whose device name classifies to a
    type (the Figures 3/7/8/12 numerators); ``yearly_totals`` holds
    every report (the Figure 8 growth denominators).
    """

    def __init__(self) -> None:
        self.counts: Dict[int, Dict[DeviceType, int]] = {}
        self.yearly_totals: Dict[int, int] = {}

    def fold(self, report: SEVReport) -> None:
        year = report.opened_year
        self.yearly_totals[year] = self.yearly_totals.get(year, 0) + 1
        device_type = report.device_type
        if device_type is None:
            return
        per_type = self.counts.setdefault(year, {})
        per_type[device_type] = per_type.get(device_type, 0) + 1

    def fold_batch(self, batch) -> None:
        """Absorb one SEV column batch: two Counter tallies."""
        for year, n in Counter(batch.opened_year).items():
            self.yearly_totals[year] = self.yearly_totals.get(year, 0) + n
        typed = Counter(
            pair for pair in zip(batch.opened_year, batch.device_type)
            if pair[1] is not None
        )
        for (year, device_type), n in typed.items():
            per_type = self.counts.setdefault(year, {})
            per_type[device_type] = per_type.get(device_type, 0) + n

    def fold_sql(self, store) -> None:
        """Absorb one SQLite shard: the Figure 3/7/8 GROUP BYs."""
        from repro.incidents.query import SEVQuery

        query = SEVQuery(store)
        for year, n in query.count_by_year().items():
            self.yearly_totals[year] = self.yearly_totals.get(year, 0) + n
        for year, per_type in query.count_by_year_and_type().items():
            mine = self.counts.setdefault(year, {})
            for device_type, n in per_type.items():
                mine[device_type] = mine.get(device_type, 0) + n

    def merge(self, other: "YearTypeCounts") -> "YearTypeCounts":
        for year, n in other.yearly_totals.items():
            self.yearly_totals[year] = self.yearly_totals.get(year, 0) + n
        for year, per_type in other.counts.items():
            mine = self.counts.setdefault(year, {})
            for device_type, n in per_type.items():
                mine[device_type] = mine.get(device_type, 0) + n
        return self


class SeverityTallies:
    """Severity cross-tabulations by year.

    ``by_year_type`` is the Figure 4 severity-by-device table (typed
    reports only); ``by_year`` is the Figure 5 numerator (all reports).
    """

    def __init__(self) -> None:
        self.by_year_type: Dict[int, Dict[Severity, Dict[DeviceType, int]]] = {}
        self.by_year: Dict[int, Dict[Severity, int]] = {}

    def fold(self, report: SEVReport) -> None:
        year = report.opened_year
        per_sev = self.by_year.setdefault(year, {})
        per_sev[report.severity] = per_sev.get(report.severity, 0) + 1
        device_type = report.device_type
        if device_type is None:
            return
        row = self.by_year_type.setdefault(year, {}).setdefault(
            report.severity, {}
        )
        row[device_type] = row.get(device_type, 0) + 1

    def fold_batch(self, batch) -> None:
        for (year, severity), n in Counter(
            zip(batch.opened_year, batch.severity)
        ).items():
            per_sev = self.by_year.setdefault(year, {})
            per_sev[severity] = per_sev.get(severity, 0) + n
        typed = Counter(
            triple
            for triple in zip(
                batch.opened_year, batch.severity, batch.device_type
            )
            if triple[2] is not None
        )
        for (year, severity, device_type), n in typed.items():
            row = self.by_year_type.setdefault(year, {}).setdefault(
                severity, {}
            )
            row[device_type] = row.get(device_type, 0) + n

    def fold_sql(self, store) -> None:
        """One GROUP BY feeds both tables; untyped rows feed only
        ``by_year``."""
        severity_of = {member.value: member for member in Severity}
        device_of = {member.value: member for member in DeviceType}
        for year, severity, device_type, n in store.connection.execute(
            "SELECT opened_year, severity, device_type, COUNT(*) FROM sevs "
            "GROUP BY opened_year, severity, device_type"
        ):
            severity = severity_of[severity]
            per_sev = self.by_year.setdefault(year, {})
            per_sev[severity] = per_sev.get(severity, 0) + n
            if device_type is None:
                continue
            row = self.by_year_type.setdefault(year, {}).setdefault(
                severity, {}
            )
            device_type = device_of[device_type]
            row[device_type] = row.get(device_type, 0) + n

    def merge(self, other: "SeverityTallies") -> "SeverityTallies":
        for year, per_sev in other.by_year.items():
            mine = self.by_year.setdefault(year, {})
            for severity, n in per_sev.items():
                mine[severity] = mine.get(severity, 0) + n
        for year, per_sev_type in other.by_year_type.items():
            for severity, per_type in per_sev_type.items():
                row = self.by_year_type.setdefault(year, {}).setdefault(
                    severity, {}
                )
                for device_type, n in per_type.items():
                    row[device_type] = row.get(device_type, 0) + n
        return self


class CauseCounts:
    """Root-cause attributions over the whole study (Table 2).

    One attribution per cause per SEV; a SEV without recorded causes
    attributes to undetermined.
    """

    def __init__(self) -> None:
        self.counts: Dict[RootCause, int] = {}

    def _add(self, counts) -> None:
        for cause, n in counts.items():
            self.counts[cause] = self.counts.get(cause, 0) + n

    def fold(self, report: SEVReport) -> None:
        for cause in report.effective_root_causes():
            self.counts[cause] = self.counts.get(cause, 0) + 1

    def fold_batch(self, batch) -> None:
        self._add(Counter(
            cause for causes in batch.root_causes
            for cause in causes or _UNDETERMINED
        ))

    def fold_sql(self, store) -> None:
        from repro.incidents.query import SEVQuery

        self._add(SEVQuery(store).count_by_root_cause())

    def merge(self, other: "CauseCounts") -> "CauseCounts":
        self._add(other.counts)
        return self


class CauseTallies(CauseCounts):
    """Root-cause attributions plus their per-type breakdown.

    ``by_type`` restricts to typed reports (the Figure 2 numerators).
    """

    def __init__(self) -> None:
        super().__init__()
        self.by_type: Dict[RootCause, Dict[DeviceType, int]] = {}

    def _add_typed(self, by_type) -> None:
        for cause, per_type in by_type.items():
            mine = self.by_type.setdefault(cause, {})
            for device_type, n in per_type.items():
                mine[device_type] = mine.get(device_type, 0) + n

    def fold(self, report: SEVReport) -> None:
        super().fold(report)
        device_type = report.device_type
        if device_type is None:
            return
        for cause in report.effective_root_causes():
            per_type = self.by_type.setdefault(cause, {})
            per_type[device_type] = per_type.get(device_type, 0) + 1

    def fold_batch(self, batch) -> None:
        super().fold_batch(batch)
        typed = Counter(
            (cause, device_type)
            for causes, device_type in zip(
                batch.root_causes, batch.device_type
            )
            if device_type is not None
            for cause in causes or _UNDETERMINED
        )
        for (cause, device_type), n in typed.items():
            per_type = self.by_type.setdefault(cause, {})
            per_type[device_type] = per_type.get(device_type, 0) + n

    def fold_sql(self, store) -> None:
        from repro.incidents.query import SEVQuery

        super().fold_sql(store)
        self._add_typed(SEVQuery(store).count_by_root_cause_and_type())

    def merge(self, other: "CauseTallies") -> "CauseTallies":
        super().merge(other)
        self._add_typed(other.by_type)
        return self


class DurationSketches:
    """Resolution-time sketches per (year, device type).

    Typed reports only, one sample per report, so a cell's sketch
    ``n`` is that cell's incident count (the Figure 12 numerator) and
    its quantiles are the Figure 13 p75IRT.  Sketches are exact while a
    cell is below the sample budget, so small corpora stream
    bit-identical percentiles; past the budget the error is bounded by
    the bin width.
    """

    def __init__(self) -> None:
        self.by_year_type: Dict[int, Dict[DeviceType, QuantileSketch]] = {}

    def fold(self, report: SEVReport) -> None:
        device_type = report.device_type
        if device_type is None:
            return
        year = report.opened_year
        cell = self.by_year_type.setdefault(year, {})
        if device_type not in cell:
            cell[device_type] = QuantileSketch()
        cell[device_type].add(report.duration_h)

    def _extend_cells(self, blocks: Dict) -> None:
        """Feed grouped duration blocks into the (lazily made) sketches."""
        for (year, device_type), block in blocks.items():
            cell = self.by_year_type.setdefault(year, {})
            if device_type not in cell:
                cell[device_type] = QuantileSketch()
            cell[device_type].extend(block)

    def fold_batch(self, batch) -> None:
        """Group the typed durations once, then feed blocks.

        Sketch contents are multiset-determined (exact cells sort on
        query, binned cells count per bucket), so block feeding is
        bit-identical to per-row adds in any order.
        """
        blocks: Dict = {}
        for year, device_type, duration in zip(
            batch.opened_year, batch.device_type, batch.duration_h
        ):
            if device_type is None:
                continue
            blocks.setdefault((year, device_type), []).append(duration)
        self._extend_cells(blocks)

    def fold_sql(self, store) -> None:
        """One column fetch of the typed durations, grouped in SQL order."""
        blocks: Dict = {}
        for year, device_type, duration in store.connection.execute(
            "SELECT opened_year, device_type, duration_h FROM sevs "
            "WHERE device_type IS NOT NULL "
            "ORDER BY opened_year, device_type"
        ):
            key = (year, DeviceType(device_type))
            blocks.setdefault(key, []).append(duration)
        self._extend_cells(blocks)

    def merge(self, other: "DurationSketches") -> "DurationSketches":
        for year, per_type in other.by_year_type.items():
            cell = self.by_year_type.setdefault(year, {})
            for device_type, sketch in per_type.items():
                if device_type in cell:
                    cell[device_type].merge(sketch)
                else:
                    cell[device_type] = QuantileSketch.from_dict(
                        sketch.to_dict()
                    )
        return self


# -- ticket-domain states ----------------------------------------------


class OutageTallies:
    """Per-link and per-vendor outage intervals from repair tickets.

    The section 6 fold state: one completed ticket contributes its
    outage interval to its link's and its vendor's raw interval list.
    Merging concatenates lists, so any partitioning of the ticket
    corpus reaches the same multiset of intervals; the finalize views
    (:meth:`merged_by_link`, :meth:`sorted_by_vendor`) sort or merge
    that multiset, which makes every downstream number independent of
    fold order — the bit-identical guarantee of every execution path.
    """

    def __init__(self) -> None:
        self.by_link: Dict[str, List[OutageInterval]] = {}
        self.by_vendor: Dict[str, List[OutageInterval]] = {}
        self.tickets = 0
        self.max_end_h = 0.0

    def fold(self, ticket: RepairTicket) -> None:
        interval = ticket.interval()
        self.by_link.setdefault(ticket.link_id, []).append(interval)
        self.by_vendor.setdefault(ticket.vendor, []).append(interval)
        self.tickets += 1
        self.max_end_h = max(self.max_end_h, interval.end_h)

    def fold_batch(self, batch) -> None:
        """Absorb one ticket column batch: intervals built in one pass."""
        intervals = [
            OutageInterval(start, end)
            for start, end in zip(batch.started_at_h, batch.completed_at_h)
        ]
        for link, interval in zip(batch.link_id, intervals):
            self.by_link.setdefault(link, []).append(interval)
        for vendor, interval in zip(batch.vendor, intervals):
            self.by_vendor.setdefault(vendor, []).append(interval)
        self.tickets += len(intervals)
        if intervals:
            self.max_end_h = max(
                self.max_end_h, max(interval.end_h for interval in intervals)
            )

    def merge(self, other: "OutageTallies") -> "OutageTallies":
        for link, intervals in other.by_link.items():
            self.by_link.setdefault(link, []).extend(intervals)
        for vendor, intervals in other.by_vendor.items():
            self.by_vendor.setdefault(vendor, []).extend(intervals)
        self.tickets += other.tickets
        self.max_end_h = max(self.max_end_h, other.max_end_h)
        return self

    def merged_by_link(self) -> Dict[str, List[OutageInterval]]:
        """Overlap-merged outages per link, the monitor's link view."""
        return {
            link: merge_intervals(intervals)
            for link, intervals in sorted(self.by_link.items())
        }

    def sorted_by_vendor(self) -> Dict[str, List[OutageInterval]]:
        """Chronologically sorted outages per vendor (distinct links
        overlap legitimately, so nothing is merged — section 6.2)."""
        return {
            vendor: sorted(intervals)
            for vendor, intervals in sorted(self.by_vendor.items())
        }


class TicketDurationSketches:
    """Repair-duration sketches, overall and per ticket type.

    Reuses the mergeable :class:`~repro.stats.quantile.QuantileSketch`:
    exact below the sample budget (small corpora stream bit-identical
    percentiles), bounded by the bin width beyond it, and insensitive
    to fold and merge order either way.
    """

    def __init__(self) -> None:
        self.overall = QuantileSketch()
        self.by_type: Dict[TicketType, QuantileSketch] = {}
        self.tickets = 0

    def fold(self, ticket: RepairTicket) -> None:
        duration = ticket.duration_h
        self.overall.add(duration)
        if ticket.ticket_type not in self.by_type:
            self.by_type[ticket.ticket_type] = QuantileSketch()
        self.by_type[ticket.ticket_type].add(duration)
        self.tickets += 1

    def fold_batch(self, batch) -> None:
        self.overall.extend(batch.duration_h)
        blocks: Dict[TicketType, List[float]] = {}
        for ticket_type, duration in zip(batch.ticket_type, batch.duration_h):
            blocks.setdefault(ticket_type, []).append(duration)
        for ticket_type, block in blocks.items():
            if ticket_type not in self.by_type:
                self.by_type[ticket_type] = QuantileSketch()
            self.by_type[ticket_type].extend(block)
        self.tickets += len(batch.duration_h)

    def merge(self, other: "TicketDurationSketches") -> "TicketDurationSketches":
        self.overall.merge(other.overall)
        for ticket_type, sketch in other.by_type.items():
            if ticket_type in self.by_type:
                self.by_type[ticket_type].merge(sketch)
            else:
                self.by_type[ticket_type] = QuantileSketch.from_dict(
                    sketch.to_dict()
                )
        self.tickets += other.tickets
        return self

    def summary(self):
        """The folded durations as a result dataclass.

        The finalize view shared by the runtime analysis and the live
        stream dashboard, so both render the identical summary.
        """
        from repro.core.backbone_reliability import RepairDurationSummary

        if self.tickets == 0:
            raise ValueError("no completed tickets observed in the corpus")
        return RepairDurationSummary(
            tickets=self.tickets,
            p50_h=self.overall.quantile(0.5),
            p90_h=self.overall.quantile(0.9),
            p99_h=self.overall.quantile(0.99),
            by_type={
                ticket_type.value: sketch.n
                for ticket_type, sketch in sorted(
                    self.by_type.items(), key=lambda kv: kv[0].value
                )
            },
        )
