"""Corpus domains: the record sources the runtime can execute over.

The paper is two studies over two record kinds — seven years of
intra data center SEV reports and eighteen months of inter data center
fiber repair tickets — and the runtime executes both through one
protocol.  A :class:`Corpus` answers the questions the executor's
plan asks of a record source:

``records()``
    iterate every record (the per-row reference fold's input);
``fingerprint()``
    the corpus' result-cache key — the provenance key a generated
    corpus carries until something writes to it, else the row-based
    fingerprint — or ``None`` when the corpus cannot be fingerprinted
    (then nothing is cached);
``shards()``
    the corpus as the plan reads it: ``("store", SEVStore)`` for each
    SQLite shard (``fold_sql`` answers it) and ``("records",
    iterable)`` for each shard without SQL (framed into
    :class:`~repro.runtime.columns.ColumnBatch` chunks).  By default
    the whole corpus is one record shard.

Three concrete domains ship: :class:`SEVCorpus` over
:class:`~repro.incidents.store.SEVStore` (or its partitioned twin, or
a generated corpus held in memory),
:class:`TicketCorpus` over
:class:`~repro.backbone.tickets.TicketDatabase`, and
:class:`TrialCorpus` over generated survivability trials.  An
:class:`~repro.runtime.analysis.Analysis` names its domain with the
``domain`` class attribute and the executor resolves the matching
corpus from the :class:`~repro.runtime.analysis.RunContext`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple, Union

from repro.backbone.tickets import TicketDatabase
from repro.incidents.memory import GeneratedReports
from repro.incidents.store import SEVStore
from repro.runtime.cache import (
    corpus_fingerprint,
    ticket_fingerprint,
    trial_fingerprint,
)

__all__ = ["Corpus", "SEVCorpus", "TicketCorpus", "TrialCorpus"]


class Corpus:
    """One record source the executor can run analyses over."""

    #: Domain tag; analyses with a matching ``Analysis.domain`` fold
    #: this corpus' records.
    domain: str = ""

    def __init__(self, seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        #: Generator seed, folded into the fingerprint (two corpora of
        #: equal size from different seeds must never share cache
        #: entries).
        self.seed = seed
        #: Generating scenario's spec digest, folded into the
        #: fingerprint (two corpora of equal size and seed from
        #: *different scenarios* must never share entries either).
        self.scenario = scenario

    def records(self) -> Iterable:
        raise NotImplementedError

    def fingerprint(self) -> Optional[str]:
        """Content hash for the result cache; ``None`` = uncacheable."""
        return None

    def shards(self) -> Iterator[Tuple[str, Any]]:
        """Yield ``("store", SEVStore)`` or ``("records", iterable)``.

        The consumer must not close a yielded store.  By default the
        whole corpus is one record shard.
        """
        yield "records", self.records()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} domain={self.domain!r}>"


class SEVCorpus(Corpus):
    """The intra data center SEV corpus (sections 4-5).

    ``store`` is a :class:`~repro.incidents.store.SEVStore`, a
    partitioned SEV store, or the
    :class:`~repro.incidents.memory.GeneratedReports` a generated
    context holds.
    """

    domain = "sev"

    def __init__(self, store: Union[SEVStore, GeneratedReports],
                 seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.store = store

    def records(self) -> Iterable:
        return self.store.all_reports()

    def fingerprint(self) -> Optional[str]:
        provenance = getattr(self.store, "provenance", None)
        if provenance is not None:
            return provenance
        return corpus_fingerprint(self.store, seed=self.seed,
                                  scenario=self.scenario)

    def shards(self) -> Iterator[Tuple[str, Any]]:
        """A monolithic store as one SQLite shard, a tiered store as
        one shard per partition, a generated corpus as one record shard.

        A hot partition *is* a monolithic-schema SQLite file; it is
        opened for its turn and closed once the consumer moves on.
        Cold partitions come as record lists.
        """
        if isinstance(self.store, GeneratedReports):
            yield from super().shards()
        elif not getattr(self.store, "is_partitioned", False):
            yield "store", self.store
        else:
            for kind, payload in self.store.shard_stores():
                try:
                    yield kind, payload
                finally:
                    if kind == "store":
                        payload.close()


class TicketCorpus(Corpus):
    """The inter data center repair-ticket corpus (section 6)."""

    domain = "ticket"

    def __init__(self, tickets: TicketDatabase,
                 seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.tickets = tickets

    def records(self) -> Iterable:
        return self.tickets.completed()

    def fingerprint(self) -> Optional[str]:
        provenance = getattr(self.tickets, "provenance", None)
        if provenance is not None:
            return provenance
        return ticket_fingerprint(self.tickets, seed=self.seed,
                                  scenario=self.scenario)


class TrialCorpus(Corpus):
    """The survivability trial corpus (the section 6.1 workload).

    Wraps a :class:`~repro.survivability.trials.TrialSet` (duck-typed:
    anything with ``records()``, ``__len__`` and ``knobs`` serves).
    Trials are generated, never stored, so the corpus is one record
    shard: the plan folds it as column batches.
    """

    domain = "trial"

    def __init__(self, trials, seed: Optional[int] = None,
                 scenario: Optional[str] = None) -> None:
        super().__init__(seed, scenario)
        self.trials = trials

    def records(self) -> Iterable:
        return self.trials.records()

    def fingerprint(self) -> Optional[str]:
        return trial_fingerprint(self.trials, seed=self.seed,
                                 scenario=self.scenario)
