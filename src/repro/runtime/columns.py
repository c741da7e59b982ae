"""Columnar record batches: the fold engine's fast path.

Per-row folding pays Python dispatch for every record — attribute
access, name re-parsing, one method call per analysis per record.  A
:class:`ColumnBatch` instead carries a *chunk* of records as parallel
arrays, one list per field, so a mergeable state can absorb a whole
chunk with array-at-a-time operations (``Counter`` tallies over zipped
columns, quantile sketches fed in blocks) — see the ``fold_batch``
methods in :mod:`repro.runtime.states`.

One class serves every record kind — SEV reports, repair tickets and
survivability trials — because a batch's columns *are* its record's
fields: ``batch.severity`` is the list of every record's
``severity``, in record order.  Three properties make the layout safe
and cheap:

* **Full fidelity.**  A batch carries every dataclass field of its
  records, so :attr:`ColumnBatch.records` can rebuild the original
  dataclasses on demand — the per-row fallback path (a columnar fold
  that raised mid-batch) folds those and reaches bit-identical states,
  because the fold math reads only columns the batch preserves
  exactly.
* **Derived columns are computed once.**  The record properties the
  folds read (a SEV's ``opened_year``, ``device_type`` and
  ``duration_h``; a ticket's ``duration_h``) are framed as columns of
  the same name when the batch is built, so no fold re-parses a device
  name.
* **Lean transport.**  Pickling a batch ships the column lists only
  (the rebuilt record list is dropped and rebuilt lazily), so the
  executor's worker pool receives columns instead of pickled
  dataclass streams.
"""

from __future__ import annotations

from dataclasses import fields
from itertools import islice
from operator import attrgetter
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from repro.backbone.tickets import RepairTicket
from repro.incidents.sev import SEVReport

__all__ = ["COLUMN_BATCH_ROWS", "ColumnBatch", "batches_from_records"]

#: Default rows per column batch.  Large enough that per-batch
#: overhead (state scratch allocation, a merge) amortizes to nothing,
#: small enough that a batch is a cheap unit of work to frame, ship,
#: and retry.
COLUMN_BATCH_ROWS = 4096

#: Record properties the folds read, framed as columns beside the
#: dataclass fields.
_PROPERTIES: Dict[type, Tuple[str, ...]] = {
    SEVReport: ("opened_year", "device_type", "duration_h"),
    RepairTicket: ("duration_h",),
}


def _field_names(record_type: type) -> Tuple[str, ...]:
    return tuple(field.name for field in fields(record_type))


class ColumnBatch:
    """A chunk of one record kind as parallel per-field lists.

    ``columns`` maps each field name of the record dataclass (and each
    framed property) to one list with an entry per record, in record
    order; every column also reads as an attribute of that name.
    """

    def __init__(self, record_type: type, columns: Dict[str, list]) -> None:
        self.record_type = record_type
        self.columns = columns
        self._records: Optional[list] = None

    @classmethod
    def frame(cls, records: Sequence) -> "ColumnBatch":
        """Frame a non-empty sequence of same-kind records."""
        record_type = type(records[0])
        names = _field_names(record_type) + _PROPERTIES.get(record_type, ())
        return cls(record_type, {
            name: list(map(attrgetter(name), records)) for name in names
        })

    def __getattr__(self, name: str) -> list:
        # Reached only when ordinary lookup fails: a column by name.
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def records(self) -> list:
        """The batch's records as dataclasses, rebuilt lazily.

        The per-row fallback input: equal field for field to the
        records the batch was framed from, and memoized so repeated
        fallbacks in one batch pay once.
        """
        if self._records is None:
            values = [self.columns[name]
                      for name in _field_names(self.record_type)]
            self._records = [self.record_type(*row) for row in zip(*values)]
        return self._records

    def __getstate__(self) -> dict:
        # Ship columns only: the record list is rebuilt lazily on the
        # other side if a fallback ever needs it.
        return {"record_type": self.record_type, "columns": self.columns}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _records=None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnBatch {self.record_type.__name__} rows={len(self)}>"


def batches_from_records(
    records: Iterable, batch_size: int = COLUMN_BATCH_ROWS
) -> Iterator[ColumnBatch]:
    """Chunk any record iterable into column batches of ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    records = iter(records)
    return map(ColumnBatch.frame,
               iter(lambda: list(islice(records, batch_size)), []))
