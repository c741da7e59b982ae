"""repro.runtime — one execution layer for batch and streaming analytics.

Every paper artifact is declared once as an
:class:`~repro.runtime.analysis.Analysis` (prepare / fold / merge /
finalize / fold_batch, plus ``fold_sql`` for SEV analyses) and the
:class:`~repro.runtime.executor.Executor` answers any set of them with
one plan: one loop over the corpus' shards, SQL pushdown on each
SQLite shard and array-at-a-time folds over
:class:`~repro.runtime.columns.ColumnBatch` chunks of every record
shard, fanned out over one shared process pool when ``jobs > 1``.  One
batch class frames all three record kinds: its columns are the
record's fields.  :func:`~repro.runtime.executor.reference_fold` keeps
the per-row fold as the oracle.  The runtime is domain-generic: a
:class:`~repro.runtime.domain.Corpus` abstracts the record source, and
the paper's datasets ship as corpora —
:class:`~repro.runtime.domain.SEVCorpus` over the intra data center
SEV store (sections 4-5), :class:`~repro.runtime.domain.TicketCorpus`
over the backbone repair-ticket database (section 6) and
:class:`~repro.runtime.domain.TrialCorpus` over the survivability
trials.  A
content-addressed :class:`~repro.runtime.cache.ResultCache` keyed by
domain-tagged corpus fingerprints and analysis versions makes repeat
runs over unchanged corpora free; a generated corpus is keyed by its
provenance, so a repeat run does not even generate it.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.runtime.analysis": ("Analysis", "PendingCorpus", "RunContext"),
    "repro.runtime.analyses": (
        "backbone_report_analyses", "intra_report_analyses", "registry",
    ),
    "repro.runtime.cache": (
        "GENERATOR_VERSION", "ResultCache", "corpus_fingerprint",
        "provenance_fingerprint", "ticket_fingerprint", "trial_fingerprint",
    ),
    "repro.runtime.columns": ("COLUMN_BATCH_ROWS", "ColumnBatch"),
    "repro.runtime.domain": (
        "Corpus", "SEVCorpus", "TicketCorpus", "TrialCorpus",
    ),
    "repro.runtime.executor": (
        "Executor", "backbone_report_from", "build_backbone_context",
        "build_intra_context", "generated_backbone_context",
        "generated_intra_context", "intra_report_from", "reference_fold",
        "run_backbone_report", "run_intra_report", "shutdown_executor_pool",
    ),
    "repro.runtime.states": (
        "CauseCounts", "CauseTallies", "DurationSketches", "OutageTallies",
        "SeverityTallies", "TicketDurationSketches", "YearTypeCounts",
    ),
})
