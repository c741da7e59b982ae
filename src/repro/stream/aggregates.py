"""Incremental analytics state.

:class:`StreamAggregates` is the streaming counterpart of the batch
analyses in :mod:`repro.core`: one pass over the SEV feed maintains
every count the paper's tables and figures need — per-year/per-type
incident counts (Figures 3, 7, 8, 12), severity-by-device
cross-tabulations (Figures 4, 5), root-cause attributions (Table 2,
Figure 2) — plus fixed-memory quantile sketches of resolution times
(Figure 13's p75IRT), all without retaining the corpus.

Since the batch/stream unification, the fold and merge math lives in
:mod:`repro.runtime.states` — the same mergeable tallies the
:class:`repro.runtime.Executor` folds —  and
``StreamAggregates`` is a bundle of those states behind its historical
attribute names.  Counting rules therefore mirror the SQL layer
(:mod:`repro.incidents.query`) exactly: device types come from the
name prefix, untyped reports are excluded from per-type breakdowns but
counted in yearly totals, and a SEV with multiple root causes
contributes one attribution per cause (none recorded counts as
undetermined).  That is what makes the parity guarantee possible — for
any corpus, the streaming counts equal the batch recomputation
*exactly*, and the streamed percentiles are exact up to the sketch
budget, approximate (bounded by bucket width) beyond.

Aggregates merge: ``merge`` is associative and commutative, so a
corpus can be partitioned across worker processes arbitrarily
(:mod:`repro.stream.sharding`) and the merged state is independent of
the partitioning and of merge order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional

from repro.fleet.population import FleetModel, HOURS_PER_YEAR
from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.runtime.states import (
    CauseTallies,
    DurationSketches,
    SeverityTallies,
    YearTypeCounts,
)
from repro.stats.quantile import QuantileSketch
from repro.topology.devices import DeviceType

FORMAT = "repro.stream-aggregates/1"


class StreamAggregates:
    """Single-pass, constant-memory incident analytics.

    A bundle of the runtime's mergeable fold states; the public dict
    attributes below are views into them, so the streaming feed and
    the :class:`repro.runtime.Executor` share one
    implementation of every counting rule.
    """

    def __init__(self) -> None:
        self.events = 0
        self._year_type = YearTypeCounts()
        self._severity = SeverityTallies()
        self._causes = CauseTallies()
        self._irt = DurationSketches()

    # -- state views (the historical public attributes) --------------

    @property
    def counts(self) -> Dict[int, Dict[DeviceType, int]]:
        """Typed incident counts by year and device type."""
        return self._year_type.counts

    @counts.setter
    def counts(self, value: Dict[int, Dict[DeviceType, int]]) -> None:
        self._year_type.counts = value

    @property
    def yearly_totals(self) -> Dict[int, int]:
        """Every report by year, typed or not (Figure 8 totals)."""
        return self._year_type.yearly_totals

    @yearly_totals.setter
    def yearly_totals(self, value: Dict[int, int]) -> None:
        self._year_type.yearly_totals = value

    @property
    def severity_counts(
        self,
    ) -> Dict[int, Dict[Severity, Dict[DeviceType, int]]]:
        """Figure 4 cross-tabulation, per year."""
        return self._severity.by_year_type

    @severity_counts.setter
    def severity_counts(self, value) -> None:
        self._severity.by_year_type = value

    @property
    def yearly_severity(self) -> Dict[int, Dict[Severity, int]]:
        """Figure 5 numerators: all reports by year and severity."""
        return self._severity.by_year

    @yearly_severity.setter
    def yearly_severity(self, value: Dict[int, Dict[Severity, int]]) -> None:
        self._severity.by_year = value

    @property
    def cause_counts(self) -> Dict[RootCause, int]:
        """Table 2 attributions (one per cause per SEV)."""
        return self._causes.counts

    @cause_counts.setter
    def cause_counts(self, value: Dict[RootCause, int]) -> None:
        self._causes.counts = value

    @property
    def cause_type_counts(self) -> Dict[RootCause, Dict[DeviceType, int]]:
        """Figure 2 numerators: attributions by cause and device type."""
        return self._causes.by_type

    @cause_type_counts.setter
    def cause_type_counts(self, value) -> None:
        self._causes.by_type = value

    @property
    def irt(self) -> Dict[int, Dict[DeviceType, QuantileSketch]]:
        """Resolution-time sketches per (year, device type)."""
        return self._irt.by_year_type

    @irt.setter
    def irt(self, value: Dict[int, Dict[DeviceType, QuantileSketch]]) -> None:
        self._irt.by_year_type = value

    @property
    def irt_by_year(self) -> Dict[int, QuantileSketch]:
        """Resolution-time sketch per year, across all types."""
        return self._irt.by_year

    @irt_by_year.setter
    def irt_by_year(self, value: Dict[int, QuantileSketch]) -> None:
        self._irt.by_year = value

    # -- ingestion ---------------------------------------------------

    def ingest(self, report: SEVReport) -> None:
        """Fold one SEV report into every state."""
        self.events += 1
        self._year_type.fold(report)
        self._severity.fold(report)
        self._causes.fold(report)
        self._irt.fold(report)

    def ingest_many(self, reports: Iterable[SEVReport]) -> int:
        count = 0
        for report in reports:
            self.ingest(report)
            count += 1
        return count

    # -- summary reads (the repro.core counterparts) -----------------

    @property
    def years(self) -> List[int]:
        return sorted(self.yearly_totals)

    def incident_count(self, year: int, device_type: DeviceType) -> int:
        return self.counts.get(year, {}).get(device_type, 0)

    def year_total(self, year: int, typed_only: bool = False) -> int:
        if typed_only:
            return sum(self.counts.get(year, {}).values())
        return self.yearly_totals.get(year, 0)

    def fraction_of_year(self, year: int, device_type: DeviceType) -> float:
        """Figure 7: a type's share of a year's typed incidents."""
        total = self.year_total(year, typed_only=True)
        if total == 0:
            return 0.0
        return self.incident_count(year, device_type) / total

    def growth(self, first_year: int, last_year: int) -> float:
        """Figure 8: total SEV growth factor between two years."""
        first = self.year_total(first_year)
        if first == 0:
            raise ValueError(f"no incidents in the base year {first_year}")
        return self.year_total(last_year) / first

    def incident_rate(
        self, year: int, device_type: DeviceType, fleet: FleetModel
    ) -> float:
        """Figure 3: incidents over the active population of the type."""
        population = fleet.count(year, device_type)
        if population == 0:
            raise ValueError(
                f"no {device_type.value} population in {year}"
            )
        return self.incident_count(year, device_type) / population

    def mtbi_h(
        self, year: int, device_type: DeviceType, fleet: FleetModel
    ) -> float:
        """Figure 12: device-hours MTBI (population-hours per incident)."""
        incidents = self.incident_count(year, device_type)
        if incidents == 0:
            return float("inf")
        return fleet.count(year, device_type) * HOURS_PER_YEAR / incidents

    def root_cause_fraction(self, cause: RootCause) -> float:
        """Table 2: one cause's share of all attributions."""
        total = sum(self.cause_counts.values())
        if total == 0:
            return 0.0
        return self.cause_counts.get(cause, 0) / total

    def root_cause_distribution(self) -> Dict[RootCause, float]:
        return {c: self.root_cause_fraction(c) for c in RootCause}

    def severity_level_total(self, year: int, severity: Severity) -> int:
        return sum(
            self.severity_counts.get(year, {}).get(severity, {}).values()
        )

    def severity_share(self, year: int, severity: Severity) -> float:
        """Figure 4: one level's share of a year's typed incidents."""
        total = sum(self.severity_level_total(year, s) for s in Severity)
        if total == 0:
            return 0.0
        return self.severity_level_total(year, severity) / total

    def p75_irt(
        self, year: int, device_type: Optional[DeviceType] = None
    ) -> float:
        """Figure 13: streamed p75 of incident resolution times."""
        sketch = (
            self.irt_by_year.get(year)
            if device_type is None
            else self.irt.get(year, {}).get(device_type)
        )
        if sketch is None or sketch.n == 0:
            raise ValueError(
                f"no resolution times for {device_type} in {year}"
            )
        return sketch.p75()

    # -- merging -----------------------------------------------------

    def merge(self, other: "StreamAggregates") -> "StreamAggregates":
        """Fold another shard's aggregates in (in place); returns self.

        Order-independent: any merge tree over the same shards yields
        the same state.
        """
        self.events += other.events
        self._year_type.merge(other._year_type)
        self._severity.merge(other._severity)
        self._causes.merge(other._causes)
        self._irt.merge(other._irt)
        return self

    # -- serialization -----------------------------------------------

    def to_state(self) -> dict:
        """A JSON-safe snapshot of the full aggregate state."""
        return {
            "format": FORMAT,
            "events": self.events,
            "counts": {
                str(year): {t.value: n for t, n in sorted(
                    per_type.items(), key=lambda kv: kv[0].value
                )}
                for year, per_type in sorted(self.counts.items())
            },
            "yearly_totals": {
                str(year): n
                for year, n in sorted(self.yearly_totals.items())
            },
            "yearly_severity": {
                str(year): {str(int(s)): n for s, n in sorted(per_sev.items())}
                for year, per_sev in sorted(self.yearly_severity.items())
            },
            "severity_counts": {
                str(year): {
                    str(int(severity)): {
                        t.value: n for t, n in sorted(
                            per_type.items(), key=lambda kv: kv[0].value
                        )
                    }
                    for severity, per_type in sorted(per_sev_type.items())
                }
                for year, per_sev_type in sorted(self.severity_counts.items())
            },
            "cause_counts": {
                cause.value: n for cause, n in sorted(
                    self.cause_counts.items(), key=lambda kv: kv[0].value
                )
            },
            "cause_type_counts": {
                cause.value: {
                    t.value: n for t, n in sorted(
                        per_type.items(), key=lambda kv: kv[0].value
                    )
                }
                for cause, per_type in sorted(
                    self.cause_type_counts.items(),
                    key=lambda kv: kv[0].value,
                )
            },
            "irt": {
                str(year): {
                    t.value: sketch.to_dict()
                    for t, sketch in sorted(
                        per_type.items(), key=lambda kv: kv[0].value
                    )
                }
                for year, per_type in sorted(self.irt.items())
            },
            "irt_by_year": {
                str(year): sketch.to_dict()
                for year, sketch in sorted(self.irt_by_year.items())
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "StreamAggregates":
        if state.get("format") != FORMAT:
            raise ValueError(
                f"not a stream aggregate snapshot: {state.get('format')!r}"
            )
        agg = cls()
        agg.events = state["events"]
        agg.counts = {
            int(year): {DeviceType(t): n for t, n in per_type.items()}
            for year, per_type in state["counts"].items()
        }
        agg.yearly_totals = {
            int(year): n for year, n in state["yearly_totals"].items()
        }
        agg.yearly_severity = {
            int(year): {Severity(int(s)): n for s, n in per_sev.items()}
            for year, per_sev in state["yearly_severity"].items()
        }
        agg.severity_counts = {
            int(year): {
                Severity(int(severity)): {
                    DeviceType(t): n for t, n in per_type.items()
                }
                for severity, per_type in per_sev_type.items()
            }
            for year, per_sev_type in state["severity_counts"].items()
        }
        agg.cause_counts = {
            RootCause(c): n for c, n in state["cause_counts"].items()
        }
        agg.cause_type_counts = {
            RootCause(c): {DeviceType(t): n for t, n in per_type.items()}
            for c, per_type in state["cause_type_counts"].items()
        }
        agg.irt = {
            int(year): {
                DeviceType(t): QuantileSketch.from_dict(payload)
                for t, payload in per_type.items()
            }
            for year, per_type in state["irt"].items()
        }
        agg.irt_by_year = {
            int(year): QuantileSketch.from_dict(payload)
            for year, payload in state["irt_by_year"].items()
        }
        return agg

    def digest(self) -> str:
        """A content hash of the canonical state, for equality checks."""
        canonical = json.dumps(self.to_state(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamAggregates):
            return NotImplemented
        return self.to_state() == other.to_state()
