"""One planned execution path over the analysis protocol.

The :class:`Executor` answers a set of
:class:`~repro.runtime.analysis.Analysis` questions with one plan: one
loop over the shards the corpus yields
(:meth:`~repro.runtime.domain.Corpus.shards`), each answered by what
it is:

a SQLite shard
    every analysis runs its ``fold_sql`` GROUP BY queries on it — a
    stored, imported or served monolithic SEV store is one shard, a
    tiered store's hot partitions are the others — and adds the
    tallies to its mergeable state.
a record shard
    everything else — cold partitions, a generated SEV corpus held in
    memory, repair tickets, survivability trials, an explicit
    ``source`` iterable — is framed into
    :class:`~repro.runtime.columns.ColumnBatch` chunks and folded
    array-at-a-time (``Analysis.fold_batch``).  A batch whose columnar
    fold raises (the ``runtime.fold`` fault site, or an analysis
    without a ``fold_batch``) folds the batch's records through the
    per-row ``fold`` instead, so the states are bit-identical by
    construction.

With ``jobs > 1`` the column batches pack into at most ``jobs``
shards that fold in one shared worker-process pool; only the small
mergeable states travel back, and because the merge law is
associative and commutative the result is bit-identical to the serial
fold.  SQL folds always run in the parent.  The pool is module-level
and reused across runs (:func:`shutdown_executor_pool` closes it; it
also closes at interpreter exit), and :mod:`repro.stream.sharding`
generates corpora on the same pool.

The per-row fold survives as :func:`reference_fold`: one record at a
time through every analysis' ``fold``, no SQL, no batches, no cache.
It is the oracle that verify, the fault-injection oracle and the
property tests hold the plan against.

Analyses of different domains can ride in one run: the executor groups
them by :attr:`~repro.runtime.analysis.Analysis.domain` and resolves
each group's :class:`~repro.runtime.domain.Corpus` from the context.
Give the executor a :class:`~repro.runtime.cache.ResultCache` and
finalized results are keyed by the corpus fingerprint of the
analysis' domain and the analysis' version: re-running the same
questions over an unchanged corpus performs no pass at all, and over a
generated corpus it does not even generate it.
"""

from __future__ import annotations

import atexit
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.reports import BackboneStudyReport, IntraStudyReport
from repro.faultline import hooks
from repro.faultline.plan import ColumnFoldCrash, ShardWorkerCrash
from repro.runtime.analysis import Analysis, PendingCorpus, RunContext
from repro.runtime.analyses import (
    backbone_report_analyses,
    intra_report_analyses,
)
from repro.runtime.cache import ResultCache, provenance_fingerprint

__all__ = [
    "Executor",
    "build_backbone_context",
    "build_intra_context",
    "generated_backbone_context",
    "generated_intra_context",
    "reference_fold",
    "run_backbone_report",
    "run_intra_report",
    "shared_pool",
    "shutdown_executor_pool",
]


# -- the shared worker pool --------------------------------------------
#
# One ProcessPoolExecutor reused across runs: spawning a pool per run
# costs more than small parallel folds win, so repeat reports (and
# every repro.serve job) would pay process startup over and over.
# The pool grows to the widest request and is torn down only on a
# broken pool, an explicit shutdown, or interpreter exit.

_POOL = None
_POOL_WIDTH = 0


def shared_pool(workers: int):
    """The process pool, (re)built only when too narrow or closed."""
    global _POOL, _POOL_WIDTH
    if _POOL is not None and _POOL_WIDTH < workers:
        shutdown_executor_pool()
    if _POOL is None:
        from concurrent.futures import ProcessPoolExecutor

        _POOL = ProcessPoolExecutor(max_workers=workers)
        _POOL_WIDTH = workers
    return _POOL


def shutdown_executor_pool() -> None:
    """Close the shared worker pool; idempotent.

    The next parallel run builds a fresh pool.  Registered atexit, so
    short-lived processes need not call it themselves.
    """
    global _POOL, _POOL_WIDTH
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None
        _POOL_WIDTH = 0


atexit.register(shutdown_executor_pool)


class Executor:
    """Runs a set of analyses over their corpora with one plan."""

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        batch_size: Optional[int] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.jobs = jobs
        self.cache = cache
        #: Rows per column batch (None = the
        #: :data:`~repro.runtime.columns.COLUMN_BATCH_ROWS` default).
        self.batch_size = batch_size
        #: How many column-batch folds fell back to the per-row path
        #: (a raised ``fold_batch``, e.g. the ``runtime.fold`` fault
        #: site), cumulative over this executor's runs.
        self.columnar_fallbacks = 0

    # -- public entry point ------------------------------------------

    def run(
        self,
        analyses: Sequence[Analysis],
        context: RunContext,
        source: Optional[Iterable] = None,
    ) -> Dict[str, Any]:
        """Answer every analysis; returns ``{analysis.name: result}``.

        ``source`` overrides the record stream (an iterable of the
        analyses' record kind — valid only when every corpus analysis
        in the run shares one domain); by default the plan reads the
        domain corpus resolved from the context.  Results are cached
        per corpus fingerprint and analysis version when a cache is
        configured and the records come from a fingerprintable corpus
        (an anonymous iterator has no fingerprint).  Every lookup runs
        before the fold, and a pending generated corpus is keyed by its
        provenance, so a run whose every analysis hits never generates
        its corpus.
        """
        analyses = list(analyses)
        names = [a.name for a in analyses]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate analysis names in {names}")

        results: Dict[str, Any] = {}
        pending: List[Analysis] = []
        keys: Dict[str, str] = {}
        if self.cache is not None and source is None:
            fingerprints: Dict[str, Optional[str]] = {}
            for analysis in analyses:
                # Context-only analyses key on the SEV corpus, the
                # report they ride along with.
                domain = analysis.domain if analysis.requires_corpus else "sev"
                if domain not in fingerprints:
                    fingerprints[domain] = context.fingerprint_for(domain)
                fingerprint = fingerprints[domain]
                if fingerprint is None:
                    pending.append(analysis)
                    continue
                key = ResultCache.key(
                    fingerprint, analysis.name, context.year,
                    context.baseline_year, context.window_h,
                    version=analysis.version,
                )
                hit, value = self.cache.lookup(key)
                if hit:
                    results[analysis.name] = value
                else:
                    keys[analysis.name] = key
                    pending.append(analysis)
        else:
            pending = analyses

        if pending:
            computed = self._execute(pending, context, source)
            for analysis in pending:
                value = computed[analysis.name]
                results[analysis.name] = value
                key = keys.get(analysis.name)
                if key is not None:
                    self.cache.store(key, value)
        return results

    # -- the plan ----------------------------------------------------

    def _execute(self, analyses: Sequence[Analysis], context: RunContext,
                 source: Optional[Iterable]) -> Dict[str, Any]:
        results, by_domain = _split(analyses, context, source)
        for domain, group in by_domain.items():
            states = self._fold(group, context, domain, source)
            results.update(_finalize(group, states, context))
        return results

    def _fold(self, analyses: Sequence[Analysis], context: RunContext,
              domain: str, source: Optional[Iterable]) -> Dict[str, Any]:
        """Fold one domain group, one corpus shard at a time.

        Every analysis takes ``fold_sql`` on each SQLite shard.  A
        record shard (a cold partition, a generated SEV corpus, ticket
        and trial corpora, an explicit source) folds as column batches:
        as they arrive at ``jobs == 1``, so a serial scan holds one
        partition at a time, and in one pooled fold otherwise.
        """
        from repro.runtime.columns import (
            COLUMN_BATCH_ROWS,
            batches_from_records,
        )

        size = self.batch_size or COLUMN_BATCH_ROWS
        states, owners = _prepare(analyses, context)
        shards = (_corpus(context, domain).shards() if source is None
                  else [("records", source)])
        pending: list = []
        for kind, payload in shards:
            if kind == "store":
                for key, owner in owners.items():
                    owner.fold_sql(payload, states[key])
            elif self.jobs > 1:
                pending.extend(batches_from_records(payload, size))
            else:
                self._fold_batches(owners, states, context,
                                   batches_from_records(payload, size))
        if pending:
            self._fold_batches(owners, states, context, pending)
        return states

    def _fold_batches(self, owners: Dict[str, Analysis],
                      states: Dict[str, Any], context: RunContext,
                      batches: Iterable) -> None:
        """Fold column batches into the owners' states.

        Serial at ``jobs == 1``; otherwise ``batches`` is a list, and
        two or more pack longest-first by row count into ``jobs``
        shards for the shared pool.
        """
        if self.jobs > 1 and len(batches) > 1:
            from repro.stream.sharding import shard_cells

            shards = shard_cells(batches, self.jobs,
                                 weights=[len(b) for b in batches])
            self._fold_shards_parallel(owners, states, context, shards)
            return
        for batch in batches:
            self.columnar_fallbacks += _fold_batch_into(
                owners, states, context, batch
            )

    def _fold_shards_parallel(self, owners: Dict[str, Analysis],
                              merged: Dict[str, Any], context: RunContext,
                              shards: List[list]) -> None:
        """Fold column-batch shards in the shared pool and merge.

        Workers receive chunk-framed columns (a batch pickles its
        column lists only, no dataclass streams) and return folded
        states plus their per-row fallback count.

        The crash-recovery contract: a shard whose worker dies (a real
        ``BrokenProcessPool``, which also tears the poisoned pool down
        so the retry gets a fresh one, or an injected
        ``executor.shard`` fault drawn in the parent so the fault log
        stays deterministic) is resubmitted once, and a second failure
        folds that shard serially in the parent with the fault site
        suppressed.  Every attempt starts from freshly prepared
        states, so the recovered result is bit-identical to a healthy
        run.
        """
        from concurrent.futures.process import BrokenProcessPool

        worker_context = _worker_context(context)

        def submit(index: int):
            if hooks.fire("executor.shard"):
                raise ShardWorkerCrash("injected shard-worker crash")
            return shared_pool(len(shards)).submit(
                _fold_shard_worker, (owners, worker_context, shards[index])
            )

        outcomes: List[Any] = [None] * len(shards)
        crashed: List[int] = []
        futures = {}
        for index in range(len(shards)):
            try:
                futures[index] = submit(index)
            except Exception:
                crashed.append(index)
        for index, future in futures.items():
            try:
                outcomes[index] = future.result()
            except BrokenProcessPool:
                shutdown_executor_pool()
                crashed.append(index)
            except Exception:
                crashed.append(index)
        for index in crashed:
            try:
                outcomes[index] = submit(index).result()
            except Exception:
                with hooks.suppressed("executor.shard"):
                    outcomes[index] = _fold_shard_worker(
                        (owners, context, shards[index])
                    )
        for shard_states, fallbacks in outcomes:
            self.columnar_fallbacks += fallbacks
            for key, owner in owners.items():
                merged[key] = owner.merge(merged[key], shard_states[key])


# -- fold machinery ----------------------------------------------------


def _split(analyses: Sequence[Analysis], context: RunContext,
           source: Optional[Iterable]):
    """(context-only results, corpus analyses grouped by domain)."""
    results = {a.name: a.finalize(None, context)
               for a in analyses if not a.requires_corpus}
    by_domain: Dict[str, List[Analysis]] = {}
    for analysis in analyses:
        if analysis.requires_corpus:
            by_domain.setdefault(analysis.domain, []).append(analysis)
    if source is not None and len(by_domain) > 1:
        raise ValueError(
            "an explicit source iterable can feed only one domain; "
            f"this run folds {sorted(by_domain)}"
        )
    return results, by_domain


def _corpus(context: RunContext, domain: str):
    corpus = context.corpus_for(domain)
    if corpus is None:
        raise ValueError(
            f"no record source for domain {domain!r}: provide its "
            "substrate in the context or an explicit source iterable"
        )
    return corpus


def _prepare(analyses: Sequence[Analysis], context: RunContext):
    """(states, owners): one state per distinct state_key.

    The owner — the first analysis declaring a key — does the folding
    and merging for every sharer of that key.
    """
    states: Dict[str, Any] = {}
    owners: Dict[str, Analysis] = {}
    for analysis in analyses:
        key = analysis.state_key or analysis.name
        if key not in states:
            states[key] = analysis.prepare(context)
            owners[key] = analysis
    return states, owners


def _finalize(analyses: Sequence[Analysis], states: Dict[str, Any],
              context: RunContext) -> Dict[str, Any]:
    return {
        a.name: a.finalize(states[a.state_key or a.name], context)
        for a in analyses
    }


def _worker_context(context: RunContext) -> RunContext:
    """A picklable copy of the context for worker processes.

    The live substrates — SQLite store, remediation engine, topology,
    ticket database — and a pending corpus' build are stripped;
    folding only reads batches and the fleet.
    """
    return replace(
        context, store=None, engine=None, topology=None,
        tickets=None, trials=None, pending=None,
    )


def _fold_batch_into(owners: Dict[str, Analysis], states: Dict[str, Any],
                     context: RunContext, batch) -> int:
    """Fold one column batch into every owner's state.

    Each owner folds the batch array-at-a-time into a fresh scratch
    state, merged in afterwards — so a fold that raises mid-batch (the
    ``runtime.fold`` fault site, an analysis without a ``fold_batch``,
    or a genuine bug in one) discards the partial scratch and replays
    the batch through the per-row reference ``fold``, leaving the
    merged states exactly as if the fast path had never been tried.
    Returns how many folds fell back.
    """
    fallbacks = 0
    for key, owner in owners.items():
        scratch = owner.prepare(context)
        try:
            if hooks.fire("runtime.fold"):
                raise ColumnFoldCrash(
                    "injected columnar fold crash"
                )
            owner.fold_batch(batch, scratch)
        except Exception:
            fallbacks += 1
            with hooks.suppressed("runtime.fold"):
                scratch = owner.prepare(context)
                for record in batch.records:
                    owner.fold(record, scratch)
        states[key] = owner.merge(states[key], scratch)
    return fallbacks


def _fold_shard_worker(payload) -> tuple:
    """Fold one shard of column batches; returns (states, fallbacks)."""
    owners, context, batches = payload
    states = {key: owner.prepare(context) for key, owner in owners.items()}
    fallbacks = 0
    for batch in batches:
        fallbacks += _fold_batch_into(owners, states, context, batch)
    return states, fallbacks


def reference_fold(
    analyses: Sequence[Analysis],
    context: RunContext,
    source: Optional[Iterable] = None,
) -> Dict[str, Any]:
    """Answer every analysis with the per-row fold; ``{name: result}``.

    The reference the plan is held against: each record of the
    domain corpus (or of ``source``) goes through every owner's
    ``fold`` one at a time — no SQL, no column batches, no pool, no
    cache.  Slow by design and simple enough to trust.
    """
    results, by_domain = _split(analyses, context, source)
    for domain, group in by_domain.items():
        records = source if source is not None else (
            _corpus(context, domain).records()
        )
        states, owners = _prepare(group, context)
        folders = list(owners.items())
        for record in records:
            for key, owner in folders:
                owner.fold(record, states[key])
        results.update(_finalize(group, states, context))
    return results


# -- report conveniences -----------------------------------------------


def intra_report_from(results: Dict[str, Any]) -> IntraStudyReport:
    """Assemble the intra report from ``intra_report_analyses`` results."""
    severity = results["severity_by_device"]
    return IntraStudyReport(
        root_causes=results["root_causes"],
        rates=results["incident_rates"],
        severity=severity,
        severity_over_time=results["severity_over_time"],
        distribution=results["distribution"],
        designs=results["design_comparison"],
        switches=results["switch_reliability"],
        growth=results["growth"],
        last_year=severity.year,
    )


def backbone_report_from(results: Dict[str, Any],
                         window_h: Optional[float]) -> BackboneStudyReport:
    """Assemble the backbone report from ``backbone_report_analyses``
    results."""
    return BackboneStudyReport(
        reliability=results["backbone_reliability"],
        continents=results["continent_table"],
        window_h=window_h,
        vendors=results["vendor_scorecards"],
        durations=results["repair_durations"],
    )


def run_intra_report(
    context: RunContext,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    source: Optional[Iterable] = None,
) -> IntraStudyReport:
    """Every intra data center artifact from one corpus, one executor run.

    On a SEV store the whole report is SQL; with a cache, an unchanged
    corpus costs no pass at all.
    """
    executor = Executor(jobs=jobs, cache=cache)
    return intra_report_from(
        executor.run(intra_report_analyses(), context, source=source)
    )


def run_backbone_report(
    context: RunContext,
    cache: Optional[ResultCache] = None,
    jobs: int = 1,
    source: Optional[Iterable] = None,
) -> BackboneStudyReport:
    """Every backbone artifact from one ticket corpus, one executor run.

    The ticket-domain sibling of :func:`run_intra_report`: the same
    plan, the same merge law, the same cache.  The context needs a
    ticket source (a ticket database, a partitioned ticket store, or
    an explicit ``source`` iterable of completed tickets) and a
    topology.
    """
    executor = Executor(jobs=jobs, cache=cache)
    return backbone_report_from(
        executor.run(backbone_report_analyses(), context, source=source),
        context.window_h,
    )


# -- study contexts ----------------------------------------------------
#
# Every front end gets a study's context from these builders: the CLI's
# report commands, repro.serve's state and its report jobs, and the
# grid's cells.  One corpus and seed thus make one fingerprint and one
# report digest, whichever front end asks.  A generated corpus is
# pending until first read (RunContext.pending), keyed by provenance.


def generated_intra_context(scenario, store=None) -> RunContext:
    """The context of the SEV corpus ``scenario`` generates, built on
    first read.

    The corpus' cache key is its provenance
    (:func:`~repro.runtime.cache.provenance_fingerprint` over the
    scenario's spec digest), so an executor run whose every analysis
    hits the cache never generates it.  By default the reports are
    published into memory and held as read-only
    :class:`~repro.incidents.memory.GeneratedReports`, which the plan
    folds as column batches.  ``store`` (a
    :class:`~repro.incidents.store.SEVStore`) takes the reports
    instead, as ``IntraSimulator.run(store=)`` does, and the plan
    folds it with ``fold_sql``.  Only ``repro serve`` passes one: its
    served corpus takes outside writes, and its report and grid jobs
    share the interpreter with request threads, to which SQLite's C
    calls release the interpreter lock.
    """
    from repro.incidents.memory import GeneratedReports, ReportSink
    from repro.simulation.generator import IntraSimulator

    provenance = provenance_fingerprint("sev", scenario.spec_digest)

    def build() -> Dict[str, Any]:
        if store is None:
            reports = IntraSimulator(scenario).run(store=ReportSink())
            return {"store": GeneratedReports(reports, provenance)}
        IntraSimulator(scenario).run(store=store)
        store.provenance = provenance
        return {"store": store}

    return RunContext(
        fleet=scenario.fleet, corpus_seed=scenario.seed,
        scenario_digest=scenario.spec_digest,
        pending=PendingCorpus("sev", provenance, build),
    )


def generated_backbone_context(scenario) -> RunContext:
    """The context of the ticket corpus ``scenario`` generates, built
    on first read.

    The backbone analogue of :func:`generated_intra_context`.  The
    observation window comes from the scenario, so a fully cached run
    needs neither the topology nor the tickets.
    """
    from repro.simulation.backbone_sim import BackboneSimulator

    provenance = provenance_fingerprint("ticket", scenario.spec_digest)

    def build() -> Dict[str, Any]:
        corpus = BackboneSimulator(scenario).run()
        corpus.tickets.provenance = provenance
        return {"topology": corpus.topology, "tickets": corpus.tickets}

    return RunContext(
        window_h=scenario.window_h, corpus_seed=scenario.seed,
        scenario_digest=scenario.spec_digest,
        pending=PendingCorpus("ticket", provenance, build),
    )


def build_intra_context(
    seed: Optional[int] = None,
    scale: float = 1.0,
    store_dir: Optional[Union[str, Path]] = None,
    store=None,
) -> RunContext:
    """The intra study's context: a generated corpus or a stored one.

    Without ``store_dir`` the context holds the paper scenario of
    ``seed`` (its default seed when None) and ``scale`` as a pending
    corpus (:func:`generated_intra_context`), generated on first read
    into memory, or into ``store`` when one is given.  With
    ``store_dir`` the context reads a
    tiered partitioned SEV store (:mod:`repro.storage`) instead, and
    the seed and scale its manifest recorded at ``store init`` time
    override the arguments: they pick the fleet model and the
    row-based fingerprint's seed and scenario digest.
    """
    from repro.simulation.scenarios import paper_scenario

    if store_dir is not None:
        if store is not None:
            raise ValueError("store= takes a generated corpus, and "
                             "store_dir names a stored one")
        from repro.storage import PartitionedSEVStore

        stored = PartitionedSEVStore.open(store_dir)
        seed = stored.manifest.meta.get("seed", seed)
        scale = stored.manifest.meta.get("scale", scale)
    scenario = (paper_scenario(scale=scale) if seed is None
                else paper_scenario(seed=seed, scale=scale))
    if store_dir is None:
        return generated_intra_context(scenario, store=store)
    return RunContext(
        store=stored, fleet=scenario.fleet, corpus_seed=scenario.seed,
        scenario_digest=scenario.spec_digest,
    )


def build_backbone_context(
    seed: Optional[int] = None,
    store_dir: Optional[Union[str, Path]] = None,
) -> RunContext:
    """The backbone study's context: the topology and the tickets.

    Without ``store_dir`` the context holds the backbone scenario of
    ``seed`` (its default seed when None) as a pending corpus
    (:func:`generated_backbone_context`), simulated on first read.
    With ``store_dir`` the tickets stream from a tiered partitioned
    ticket store, the seed its manifest recorded overrides ``seed``,
    only the scenario's topology is built (no simulation), and the
    observation window is the one the manifest recorded.
    """
    from repro.simulation.backbone_sim import BackboneSimulator
    from repro.simulation.scenarios import paper_backbone_scenario

    tickets = None
    if store_dir is not None:
        from repro.storage import PartitionedTicketStore

        tickets = PartitionedTicketStore.open(store_dir)
        seed = tickets.manifest.meta.get("seed", seed)
    scenario = (paper_backbone_scenario() if seed is None
                else paper_backbone_scenario(seed=seed))
    if tickets is None:
        return generated_backbone_context(scenario)
    topology, _, _ = BackboneSimulator(scenario).build_world()
    return RunContext(
        topology=topology, tickets=tickets,
        window_h=tickets.manifest.meta.get("window_h", scenario.window_h),
        corpus_seed=scenario.seed, scenario_digest=scenario.spec_digest,
    )
