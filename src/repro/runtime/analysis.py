"""The declarative analysis protocol.

An :class:`Analysis` describes *what* a paper artifact needs, not *how*
to scan the corpus for it:

``prepare(context)``
    allocate an empty, mergeable state;
``fold(report, state)``
    absorb one record of the analysis' domain into the state, in place;
``merge(state, other)``
    absorb another state produced by the same analysis (associative
    and commutative — the sharding law);
``finalize(state, context)``
    turn the folded state into the analysis' result dataclass.

The executor (:mod:`repro.runtime.executor`) plans *how*: a SEV
analysis builds its state from GROUP BY queries on each SQLite shard
through :meth:`Analysis.fold_sql`, and everything else absorbs whole
column batches through :meth:`Analysis.fold_batch`.  Both must reach
exactly the state the per-row ``fold`` reaches, which
:func:`~repro.runtime.executor.reference_fold` runs as the oracle.

An analysis declares which record kind it folds with ``domain``
(``"sev"`` for SEV reports, ``"ticket"`` for backbone repair tickets);
the executor resolves the matching :class:`~repro.runtime.domain.Corpus`
from the context via :meth:`RunContext.corpus_for`.  Analyses that do
not consume any corpus (Table 1 reads the remediation engine) set
``requires_corpus = False``; their ``fold`` is a no-op and their
result comes entirely from the context.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional

from repro.fleet.population import FleetModel

__all__ = ["Analysis", "PendingCorpus", "RunContext"]


class PendingCorpus(NamedTuple):
    """A generated corpus a context will build only when it is read.

    ``provenance`` is the corpus' cache key
    (:func:`repro.runtime.cache.provenance_fingerprint`), known before
    generation; ``build`` generates the corpus and returns the context
    fields it fills, by name (``store`` for ``domain="sev"``,
    ``topology`` and ``tickets`` for ``domain="ticket"``).
    """

    domain: str
    provenance: str
    build: Callable[[], Dict[str, Any]]


class _Generated:
    """A context field that a pending corpus of ``domain`` fills.

    Reading the field builds the pending corpus first, so every reader
    (the executor's scan, a front end's row count) sees the generated
    substrate, and nothing is generated that no one reads.
    """

    def __init__(self, domain: str) -> None:
        self.domain = domain

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, context, owner=None):
        if context is None:
            return None  # the dataclass default
        pending = context.pending
        if pending is not None and pending.domain == self.domain:
            context.generate()
        return context.__dict__.get(self.name)

    def __set__(self, context, value) -> None:
        context.__dict__[self.name] = value


@dataclass
class RunContext:
    """Everything an analysis may draw on besides the record stream.

    ``year`` is the study's target year (the paper's 2017); ``None``
    means "the newest year in the corpus", resolved after folding so
    folds need no look-ahead.  ``baseline_year`` defaults
    to the resolved target year.  ``corpus_seed`` travels with the
    context so the result cache can fingerprint stored corpora —
    of either domain; the fingerprints themselves are domain-tagged,
    so a SEV corpus and a ticket corpus sharing a seed never collide.

    A context may hold its generated corpus as ``pending`` (a
    :class:`PendingCorpus`): the cache keys it by provenance without
    building it, and the first read of a field it fills builds it.
    """

    #: Intra record source: a :class:`~repro.incidents.store.SEVStore`,
    #: a partitioned SEV store, or the read-only
    #: :class:`~repro.incidents.memory.GeneratedReports` of a
    #: generated corpus.
    store: Any = _Generated("sev")
    fleet: Optional[FleetModel] = None
    year: Optional[int] = None
    baseline_year: Optional[int] = None
    corpus_seed: Optional[int] = None
    #: Spec digest of the generating scenario
    #: (:attr:`repro.simulation.scenarios.IntraScenario.spec_digest`);
    #: travels into the row-based corpus fingerprints so two distinct
    #: scenarios at identical (rows, seed, schema) never share a cache
    #: entry.
    scenario_digest: Optional[str] = None
    #: Table 1 substrate (:class:`repro.remediation.engine.RemediationEngine`).
    engine: Any = None
    #: Section 6 topology (:class:`repro.topology.backbone.BackboneTopology`).
    topology: Any = _Generated("ticket")
    #: Section 6 observation window in hours.
    window_h: Optional[float] = None
    #: Section 6 record source (:class:`repro.backbone.tickets.TicketDatabase`
    #: or a partitioned ticket store).
    tickets: Any = _Generated("ticket")
    #: Survivability record source
    #: (:class:`repro.survivability.trials.TrialSet`).
    trials: Any = None
    #: The generated corpus not built yet, if any; see
    #: :meth:`generate` and :meth:`fingerprint_for`.
    pending: Optional[PendingCorpus] = field(default=None, repr=False,
                                             compare=False)

    def generate(self) -> None:
        """Build the pending corpus now; a no-op when none is pending."""
        pending, self.pending = self.pending, None
        if pending is not None:
            for name, value in pending.build().items():
                setattr(self, name, value)

    def fingerprint_for(self, domain: str) -> Optional[str]:
        """The ``domain`` corpus' cache fingerprint, building nothing.

        A pending corpus answers with its provenance key; any other
        with :meth:`~repro.runtime.domain.Corpus.fingerprint` (``None``
        when the context has no corpus of that domain).
        """
        pending = self.pending
        if pending is not None and pending.domain == domain:
            return pending.provenance
        corpus = self.corpus_for(domain)
        return corpus.fingerprint() if corpus is not None else None

    def resolve_year(self, years) -> int:
        """The target year: explicit, or the newest year observed."""
        if self.year is not None:
            return self.year
        years = sorted(years)
        if not years:
            raise ValueError("the SEV corpus is empty")
        return years[-1]

    def resolve_baseline(self, years) -> int:
        if self.baseline_year is not None:
            return self.baseline_year
        return self.resolve_year(years)

    def resolve_window(self, observed_end_h: Optional[float] = None) -> float:
        """The observation window: explicit, or the last observed end.

        Streaming ticket consumers without a configured window fall
        back to the newest completion time folded so far — the live
        analog of "the study window ends now".
        """
        if self.window_h is not None:
            return self.window_h
        if observed_end_h:
            return observed_end_h
        raise ValueError(
            "no observation window: set window_h in the context "
            "(or fold at least one completed ticket)"
        )

    def corpus_for(self, domain: str):
        """The :class:`~repro.runtime.domain.Corpus` for ``domain``.

        Builds a pending corpus of that domain first
        (:meth:`fingerprint_for` keys it without building it).  Returns
        ``None`` when the context carries no record source of that
        kind (the analysis must then be fed an explicit source).
        """
        from repro.runtime.domain import SEVCorpus, TicketCorpus, TrialCorpus

        if domain == SEVCorpus.domain:
            if self.store is None:
                return None
            return SEVCorpus(self.store, seed=self.corpus_seed,
                             scenario=self.scenario_digest)
        if domain == TicketCorpus.domain:
            if self.tickets is None:
                return None
            return TicketCorpus(self.tickets, seed=self.corpus_seed,
                                scenario=self.scenario_digest)
        if domain == TrialCorpus.domain:
            if self.trials is None:
                return None
            return TrialCorpus(self.trials, seed=self.corpus_seed,
                               scenario=self.scenario_digest)
        raise ValueError(f"unknown corpus domain {domain!r}")


class Analysis:
    """Base class for declarative analyses.

    Subclasses set :attr:`name` (the registry/cache key) and implement
    the four protocol methods.  ``merge`` defaults to delegating to the
    state's own ``merge`` method, which every state in
    :mod:`repro.runtime.states` provides.
    """

    #: Registry and cache key; unique among registered analyses.
    name: str = ""
    #: Code version, part of every cache key of the analysis' results:
    #: bump it whenever a change moves what the analysis returns, so a
    #: persistent cache recomputes this analysis and no other.
    version: int = 1
    #: Whether the analysis folds corpus records (False = context-only).
    requires_corpus: bool = True
    #: Which record kind ``fold`` consumes ("sev" or "ticket"); the
    #: executor resolves the matching corpus via
    #: :meth:`RunContext.corpus_for`.
    domain: str = "sev"
    #: Analyses sharing a ``state_key`` must prepare/fold identically;
    #: the executor then folds each record into that state once and
    #: hands every sharer the same folded state.  ``None`` keeps the
    #: state private to the analysis.
    state_key: Optional[str] = None

    def prepare(self, context: RunContext) -> Any:
        return None

    def fold(self, report, state) -> None:
        pass

    def merge(self, state, other):
        if state is None:
            return other
        if other is None:
            return state
        return state.merge(other)

    def finalize(self, state, context: RunContext):
        raise NotImplementedError

    def fold_batch(self, batch, state) -> None:
        """Columnar fold: absorb one whole
        :class:`~repro.runtime.columns.ColumnBatch` into ``state``.

        The array-at-a-time fast path.  Must reach bit-identical
        finalized results to folding ``batch.records`` one by one —
        the per-row :meth:`fold` stays the reference implementation,
        and the executor replays a batch through it when this raises
        (as this default does, and as the ``runtime.fold`` fault site
        does).  Analyses whose state implements ``fold_batch`` delegate
        (``state.fold_batch(batch)``).
        """
        raise NotImplementedError

    def fold_sql(self, store, state) -> None:
        """SQL pushdown: absorb one SQLite shard into ``state``.

        ``store`` is a monolithic-schema
        :class:`~repro.incidents.store.SEVStore` (possibly one hot
        shard of a partitioned store); the implementation runs
        GROUP BY queries and adds their tallies to the mergeable
        state.  Must be fold-equivalent over the shard's rows.  The
        executor folds every SQLite shard this way, so a SEV analysis
        must implement it.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"
