"""Incremental analytics state.

:class:`StreamAggregates` is the stream's fold state: one pass over the
SEV feed folds every report into the four mergeable states of
:mod:`repro.runtime.states` that the intra analyses read —
per-year/per-type incident counts (:class:`YearTypeCounts`), the
severity cross-tabulations (:class:`SeverityTallies`), the root-cause
attributions (:class:`CauseTallies`) and fixed-memory quantile sketches
of resolution times (:class:`DurationSketches`) — without retaining
the corpus.  The states are the ones the
:class:`repro.runtime.Executor` folds, so the counting rules are the
SQL layer's (:mod:`repro.incidents.query`): device types come from the
name prefix, untyped reports are excluded from per-type breakdowns but
counted in yearly totals, and a SEV with multiple root causes
contributes one attribution per cause (none recorded counts as
undetermined).

The aggregates compute no share, rate or percentile of their own.
:func:`finalize_analyses` hands each state to the analyses that fold
it, and each analysis' own ``finalize`` — the code ``report intra``
runs — turns it into the paper's artifact.  So for any corpus the
streamed report equals the batch report over the same rows.

Aggregates merge: ``merge`` is associative and commutative, so a
corpus can be partitioned across worker processes arbitrarily
(:mod:`repro.stream.sharding`) and the merged state is independent of
the partitioning and of merge order.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterable, Sequence

from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.runtime.analysis import Analysis, RunContext
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
    """Single-pass, constant-memory incident state.

    A bundle of the runtime's mergeable fold states, one per analysis
    ``state_key`` the stream answers: ``year_type``, ``severity``,
    ``causes`` and ``durations`` (the resolution-time sketches), plus
    the count of ingested ``events``.
    """

    def __init__(self) -> None:
        self.events = 0
        self.year_type = YearTypeCounts()
        self.severity = SeverityTallies()
        self.causes = CauseTallies()
        self.durations = DurationSketches()

    # -- ingestion ---------------------------------------------------

    def ingest(self, report: SEVReport) -> None:
        """Fold one SEV report into every state."""
        self.events += 1
        self.year_type.fold(report)
        self.severity.fold(report)
        self.causes.fold(report)
        self.durations.fold(report)

    def ingest_many(self, reports: Iterable[SEVReport]) -> int:
        count = 0
        for report in reports:
            self.ingest(report)
            count += 1
        return count

    # -- merging -----------------------------------------------------

    def merge(self, other: "StreamAggregates") -> "StreamAggregates":
        """Fold another shard's aggregates in (in place); returns self.

        Order-independent: any merge tree over the same shards yields
        the same state.
        """
        self.events += other.events
        self.year_type.merge(other.year_type)
        self.severity.merge(other.severity)
        self.causes.merge(other.causes)
        self.durations.merge(other.durations)
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
                for year, per_type in sorted(self.year_type.counts.items())
            },
            "yearly_totals": {
                str(year): n
                for year, n in sorted(self.year_type.yearly_totals.items())
            },
            "yearly_severity": {
                str(year): {str(int(s)): n for s, n in sorted(per_sev.items())}
                for year, per_sev in sorted(self.severity.by_year.items())
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
                for year, per_sev_type in sorted(
                    self.severity.by_year_type.items()
                )
            },
            "cause_counts": {
                cause.value: n for cause, n in sorted(
                    self.causes.counts.items(), key=lambda kv: kv[0].value
                )
            },
            "cause_type_counts": {
                cause.value: {
                    t.value: n for t, n in sorted(
                        per_type.items(), key=lambda kv: kv[0].value
                    )
                }
                for cause, per_type in sorted(
                    self.causes.by_type.items(),
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
                for year, per_type in sorted(
                    self.durations.by_year_type.items()
                )
            },
            # Each year's per-type sketches merged: exact, because a
            # sketch is determined by the multiset of its values.
            "irt_by_year": {
                str(year): _merged(per_type.values()).to_dict()
                for year, per_type in sorted(
                    self.durations.by_year_type.items()
                )
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
        agg.year_type.counts = {
            int(year): {DeviceType(t): n for t, n in per_type.items()}
            for year, per_type in state["counts"].items()
        }
        agg.year_type.yearly_totals = {
            int(year): n for year, n in state["yearly_totals"].items()
        }
        agg.severity.by_year = {
            int(year): {Severity(int(s)): n for s, n in per_sev.items()}
            for year, per_sev in state["yearly_severity"].items()
        }
        agg.severity.by_year_type = {
            int(year): {
                Severity(int(severity)): {
                    DeviceType(t): n for t, n in per_type.items()
                }
                for severity, per_type in per_sev_type.items()
            }
            for year, per_sev_type in state["severity_counts"].items()
        }
        agg.causes.counts = {
            RootCause(c): n for c, n in state["cause_counts"].items()
        }
        agg.causes.by_type = {
            RootCause(c): {DeviceType(t): n for t, n in per_type.items()}
            for c, per_type in state["cause_type_counts"].items()
        }
        agg.durations.by_year_type = {
            int(year): {
                DeviceType(t): QuantileSketch.from_dict(payload)
                for t, payload in per_type.items()
            }
            for year, per_type in state["irt"].items()
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


def _merged(sketches: Iterable[QuantileSketch]) -> QuantileSketch:
    merged = QuantileSketch()
    for sketch in sketches:
        merged.merge(sketch)
    return merged


def finalize_analyses(
    aggregates: StreamAggregates,
    analyses: Sequence[Analysis],
    context: RunContext,
) -> Dict[str, Any]:
    """Finalize SEV analyses over streamed state; ``{name: result}``.

    Each analysis gets the stream's state for its ``state_key`` (its
    name when it keeps a private state) and runs its own ``finalize``,
    exactly as after an :class:`~repro.runtime.Executor` fold, so
    ``intra_report_from(finalize_analyses(aggregates,
    intra_report_analyses(), context))`` is the intra report of the
    streamed corpus.  ``context`` supplies what finalizers read besides
    the state: the fleet model and the target years.
    """
    states = {
        # Table 2 keeps a private CauseCounts; the stream's CauseTallies
        # holds the same counts.
        "root_causes": aggregates.causes,
        "causes": aggregates.causes,
        "year_type": aggregates.year_type,
        "severity": aggregates.severity,
        "durations": aggregates.durations,
    }
    results: Dict[str, Any] = {}
    for analysis in analyses:
        key = analysis.state_key or analysis.name
        if key not in states:
            raise ValueError(
                f"the stream folds no state for analysis {analysis.name!r}"
            )
        results[analysis.name] = analysis.finalize(states[key], context)
    return results
