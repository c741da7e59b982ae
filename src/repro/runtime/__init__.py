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

from repro.runtime.analysis import Analysis, PendingCorpus, RunContext
from repro.runtime.analyses import (
    backbone_report_analyses,
    intra_report_analyses,
    registry,
)
from repro.runtime.cache import (
    GENERATOR_VERSION,
    ResultCache,
    corpus_fingerprint,
    provenance_fingerprint,
    ticket_fingerprint,
    trial_fingerprint,
)
from repro.runtime.columns import COLUMN_BATCH_ROWS, ColumnBatch
from repro.runtime.domain import Corpus, SEVCorpus, TicketCorpus, TrialCorpus
from repro.runtime.executor import (
    Executor,
    backbone_report_from,
    build_backbone_context,
    build_intra_context,
    generated_backbone_context,
    generated_intra_context,
    intra_report_from,
    reference_fold,
    run_backbone_report,
    run_intra_report,
    shutdown_executor_pool,
)
from repro.runtime.states import (
    CauseCounts,
    CauseTallies,
    DurationSketches,
    OutageTallies,
    SeverityTallies,
    TicketDurationSketches,
    YearTypeCounts,
)

__all__ = [
    "Analysis",
    "COLUMN_BATCH_ROWS",
    "CauseCounts",
    "CauseTallies",
    "ColumnBatch",
    "Corpus",
    "DurationSketches",
    "Executor",
    "GENERATOR_VERSION",
    "OutageTallies",
    "PendingCorpus",
    "ResultCache",
    "RunContext",
    "SEVCorpus",
    "SeverityTallies",
    "TicketCorpus",
    "TicketDurationSketches",
    "TrialCorpus",
    "YearTypeCounts",
    "shutdown_executor_pool",
    "backbone_report_analyses",
    "backbone_report_from",
    "build_backbone_context",
    "build_intra_context",
    "corpus_fingerprint",
    "generated_backbone_context",
    "generated_intra_context",
    "intra_report_analyses",
    "intra_report_from",
    "provenance_fingerprint",
    "reference_fold",
    "registry",
    "run_backbone_report",
    "run_intra_report",
    "ticket_fingerprint",
    "trial_fingerprint",
]
