"""SEV reports held in memory instead of a SQLite store.

A generated corpus that no one writes to after generation needs none
of the store's guarantees (the ``sev_id`` primary key, the CHECK
constraints, the indexes): it is folded once and thrown away.  Two
small types carry it instead:

:class:`ReportSink`
    the publish target: the authoring workflow
    (:class:`~repro.incidents.workflow.SEVAuthoringWorkflow`) reads a
    store's ``len()`` and writes through ``insert_many``, and the sink
    offers exactly those;
:class:`GeneratedReports`
    what a sink's reports become once generation is done: a read-only
    corpus that carries the provenance key it was generated under.

Stored, imported and served corpora keep the SQLite store
(:class:`~repro.incidents.store.SEVStore`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.incidents.sev import SEVReport

__all__ = ["GeneratedReports", "ReportSink"]


class ReportSink:
    """An in-memory target the authoring workflow publishes into."""

    def __init__(self) -> None:
        self._reports: List[SEVReport] = []

    def __len__(self) -> int:
        return len(self._reports)

    def __iter__(self) -> Iterator[SEVReport]:
        return iter(self._reports)

    def insert_many(self, reports: Iterable[SEVReport]) -> int:
        """Append the reports in order; returns how many."""
        before = len(self._reports)
        self._reports.extend(reports)
        return len(self._reports) - before


class GeneratedReports:
    """A generated SEV corpus, held in memory and read-only.

    The reports come in publish order.  ``provenance`` is the cache
    key the corpus was generated under
    (:func:`repro.runtime.cache.provenance_fingerprint`); the corpus
    has no write method, so that key can never go stale.
    """

    __slots__ = ("_reports", "_provenance")

    def __init__(self, reports: Iterable[SEVReport],
                 provenance: str) -> None:
        self._reports = tuple(reports)
        self._provenance = provenance

    @property
    def provenance(self) -> str:
        return self._provenance

    def __len__(self) -> int:
        return len(self._reports)

    def all_reports(self) -> Iterator[SEVReport]:
        """Every report, in publish order."""
        return iter(self._reports)
