"""Columnar record batches: the fold engine's fast path.

Per-row folding pays Python dispatch for every record — attribute
access, name re-parsing, one method call per analysis per record.  A
:class:`ColumnBatch` instead carries a *chunk* of records as parallel
arrays, one list per field, so a mergeable state can absorb a whole
chunk with array-at-a-time operations (``Counter`` tallies over zipped
columns, quantile sketches fed in blocks) — see the ``fold_batch``
methods in :mod:`repro.runtime.states`.

Three properties make the layout safe and cheap:

* **Full fidelity.**  A batch carries every field of its records, so
  :attr:`ColumnBatch.records` can re-materialize the original
  dataclasses on demand — the per-row fallback path (a columnar fold
  that raised mid-batch) folds those and reaches bit-identical states,
  because the fold math reads only columns the batch preserves
  exactly.
* **Derived columns are computed once.**  Batches built from records
  (:func:`batches_from_records`) compute ``opened_year``,
  ``device_type`` and ``duration_h`` through the record properties
  when the batch is framed, so no fold re-parses a device name.
* **Lean transport.**  Pickling a batch ships the column lists only
  (the memoized record list is dropped and rebuilt lazily), so the
  executor's worker pool receives columns instead of pickled
  dataclass streams.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.backbone.tickets import RepairTicket, TicketType
from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.topology.devices import DeviceType

__all__ = [
    "COLUMN_BATCH_ROWS",
    "ColumnBatch",
    "SEVColumnBatch",
    "TicketColumnBatch",
    "TrialColumnBatch",
    "batches_from_records",
]

#: Default rows per column batch.  Large enough that per-batch
#: overhead (state scratch allocation, a merge) amortizes to nothing,
#: small enough that a batch is a cheap unit of work to frame, ship,
#: and retry.
COLUMN_BATCH_ROWS = 4096

_UNDETERMINED = (RootCause.UNDETERMINED,)


class ColumnBatch:
    """A chunk of same-domain records as parallel per-field arrays.

    Subclasses define ``_COLUMNS`` (the picklable parallel lists) and
    ``_materialize`` (columns back into record dataclasses).  Every
    column has exactly ``len(batch)`` entries, in record order.
    """

    domain: str = ""
    _COLUMNS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self._records: Optional[list] = None

    def __len__(self) -> int:
        return len(getattr(self, self._COLUMNS[0]))

    @property
    def records(self) -> list:
        """The batch's records as dataclasses, materialized lazily.

        The per-row fallback input: identical field for field to the
        records the batch was built from, and
        memoized so repeated fallbacks in one batch pay once.
        """
        if self._records is None:
            self._records = self._materialize()
        return self._records

    def _materialize(self) -> list:
        raise NotImplementedError

    def __getstate__(self) -> dict:
        # Ship columns only: the memoized record list is rebuilt
        # lazily on the other side if a fallback ever needs it.
        state = {name: getattr(self, name) for name in self._COLUMNS}
        state["_records"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rows={len(self)}>"


class SEVColumnBatch(ColumnBatch):
    """SEV reports in columnar form (sections 4-5 fold input)."""

    domain = "sev"
    _COLUMNS = (
        "sev_ids", "severities", "device_names", "opened_at_hs",
        "resolved_at_hs", "root_causes", "descriptions",
        "service_impacts", "revieweds",
        # derived once, at build time:
        "years", "device_types", "durations",
    )

    def __init__(
        self,
        sev_ids: List[str],
        severities: List[Severity],
        device_names: List[str],
        opened_at_hs: List[float],
        resolved_at_hs: List[float],
        root_causes: List[Tuple[RootCause, ...]],
        descriptions: List[str],
        service_impacts: List[str],
        revieweds: List[bool],
        years: List[int],
        device_types: List[Optional[DeviceType]],
        durations: List[float],
    ) -> None:
        super().__init__()
        self.sev_ids = sev_ids
        self.severities = severities
        self.device_names = device_names
        self.opened_at_hs = opened_at_hs
        self.resolved_at_hs = resolved_at_hs
        self.root_causes = root_causes
        self.descriptions = descriptions
        self.service_impacts = service_impacts
        self.revieweds = revieweds
        self.years = years
        self.device_types = device_types
        self.durations = durations

    def effective_causes(self) -> Iterator[Tuple[RootCause, ...]]:
        """Per-row causes under the Table 2 rule (none = undetermined)."""
        return (causes or _UNDETERMINED for causes in self.root_causes)

    @classmethod
    def from_records(cls, records: Sequence[SEVReport]) -> "SEVColumnBatch":
        return cls(
            sev_ids=[r.sev_id for r in records],
            severities=[r.severity for r in records],
            device_names=[r.device_name for r in records],
            opened_at_hs=[r.opened_at_h for r in records],
            resolved_at_hs=[r.resolved_at_h for r in records],
            root_causes=[r.root_causes for r in records],
            descriptions=[r.description for r in records],
            service_impacts=[r.service_impact for r in records],
            revieweds=[r.reviewed for r in records],
            years=[r.opened_year for r in records],
            device_types=[r.device_type for r in records],
            durations=[r.duration_h for r in records],
        )

    def _materialize(self) -> list:
        return [
            SEVReport(
                sev_id=sev_id,
                severity=severity,
                device_name=name,
                opened_at_h=opened,
                resolved_at_h=resolved,
                root_causes=causes,
                description=description,
                service_impact=impact,
                reviewed=reviewed,
            )
            for sev_id, severity, name, opened, resolved, causes,
            description, impact, reviewed in zip(
                self.sev_ids, self.severities, self.device_names,
                self.opened_at_hs, self.resolved_at_hs, self.root_causes,
                self.descriptions, self.service_impacts, self.revieweds,
            )
        ]


class TicketColumnBatch(ColumnBatch):
    """Completed repair tickets in columnar form (section 6 input)."""

    domain = "ticket"
    _COLUMNS = (
        "ticket_ids", "link_ids", "vendors", "ticket_types",
        "started_at_hs", "completed_at_hs", "locations",
        "estimated_durations",
        "durations",
    )

    def __init__(
        self,
        ticket_ids: List[str],
        link_ids: List[str],
        vendors: List[str],
        ticket_types: List[TicketType],
        started_at_hs: List[float],
        completed_at_hs: List[float],
        locations: List[str],
        estimated_durations: List[Optional[float]],
        durations: List[float],
    ) -> None:
        super().__init__()
        self.ticket_ids = ticket_ids
        self.link_ids = link_ids
        self.vendors = vendors
        self.ticket_types = ticket_types
        self.started_at_hs = started_at_hs
        self.completed_at_hs = completed_at_hs
        self.locations = locations
        self.estimated_durations = estimated_durations
        self.durations = durations

    @classmethod
    def from_records(
        cls, records: Sequence[RepairTicket]
    ) -> "TicketColumnBatch":
        return cls(
            ticket_ids=[t.ticket_id for t in records],
            link_ids=[t.link_id for t in records],
            vendors=[t.vendor for t in records],
            ticket_types=[t.ticket_type for t in records],
            started_at_hs=[t.started_at_h for t in records],
            completed_at_hs=[t.completed_at_h for t in records],
            locations=[t.location for t in records],
            estimated_durations=[t.estimated_duration_h for t in records],
            durations=[t.completed_at_h - t.started_at_h for t in records],
        )

    def _materialize(self) -> list:
        return [
            RepairTicket(
                ticket_id=ticket_id,
                link_id=link_id,
                vendor=vendor,
                ticket_type=ticket_type,
                started_at_h=started,
                completed_at_h=completed,
                location=location,
                estimated_duration_h=estimate,
            )
            for ticket_id, link_id, vendor, ticket_type, started,
            completed, location, estimate in zip(
                self.ticket_ids, self.link_ids, self.vendors,
                self.ticket_types, self.started_at_hs,
                self.completed_at_hs, self.locations,
                self.estimated_durations,
            )
        ]


class TrialColumnBatch(ColumnBatch):
    """Survivability failure trials in columnar form.

    All-integer counts plus the design tag — the cheapest batch in the
    fleet to frame, ship, and fold (``fold_batch`` on
    :class:`~repro.survivability.analysis.SurvivabilityTallies` sums
    zipped columns straight into the per-cell tallies).
    """

    domain = "trial"
    _COLUMNS = (
        "designs", "trials", "fraction_idxs", "fraction_pcts",
        "connected_rsws", "total_rsws", "surviving_linkss",
        "total_linkss",
    )

    def __init__(
        self,
        designs: List[str],
        trials: List[int],
        fraction_idxs: List[int],
        fraction_pcts: List[int],
        connected_rsws: List[int],
        total_rsws: List[int],
        surviving_linkss: List[int],
        total_linkss: List[int],
    ) -> None:
        super().__init__()
        self.designs = designs
        self.trials = trials
        self.fraction_idxs = fraction_idxs
        self.fraction_pcts = fraction_pcts
        self.connected_rsws = connected_rsws
        self.total_rsws = total_rsws
        self.surviving_linkss = surviving_linkss
        self.total_linkss = total_linkss

    @classmethod
    def from_records(cls, records) -> "TrialColumnBatch":
        return cls(
            designs=[r.design for r in records],
            trials=[r.trial for r in records],
            fraction_idxs=[r.fraction_idx for r in records],
            fraction_pcts=[r.fraction_pct for r in records],
            connected_rsws=[r.connected_rsw for r in records],
            total_rsws=[r.total_rsw for r in records],
            surviving_linkss=[r.surviving_links for r in records],
            total_linkss=[r.total_links for r in records],
        )

    def _materialize(self) -> list:
        from repro.survivability.trials import FailureTrial

        return [
            FailureTrial(
                design=design,
                trial=trial,
                fraction_idx=idx,
                fraction_pct=pct,
                connected_rsw=connected,
                total_rsw=rsw,
                surviving_links=surviving,
                total_links=links,
            )
            for design, trial, idx, pct, connected, rsw, surviving,
            links in zip(
                self.designs, self.trials, self.fraction_idxs,
                self.fraction_pcts, self.connected_rsws,
                self.total_rsws, self.surviving_linkss,
                self.total_linkss,
            )
        ]


_BATCH_OF = {
    "sev": SEVColumnBatch,
    "ticket": TicketColumnBatch,
    "trial": TrialColumnBatch,
}


def batches_from_records(
    domain: str, records: Iterable, batch_size: int = COLUMN_BATCH_ROWS
) -> Iterator[ColumnBatch]:
    """Chunk any record iterable of ``domain`` into column batches."""
    try:
        batch_cls = _BATCH_OF[domain]
    except KeyError:
        raise ValueError(f"unknown corpus domain {domain!r}") from None
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    chunk: list = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= batch_size:
            yield batch_cls.from_records(chunk)
            chunk = []
    if chunk:
        yield batch_cls.from_records(chunk)
