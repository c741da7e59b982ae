"""Online ingestion + incremental analytics runtime.

Where :mod:`repro.core` analyzes a complete corpus after the fact,
this package keeps the study current as events arrive — the shape of
the production pipeline the paper describes, where SEVs and vendor
tickets stream in continuously and dashboards never wait for a batch
job:

* :mod:`~repro.stream.sources` — event feeds: the simulator as a live
  producer, or replay of stored/exported corpora;
* :mod:`~repro.stream.aggregates` — single-pass, constant-memory
  counterparts of the batch analyses (counts, rates, MTBI, severity
  and root-cause mixes, sketched resolution-time percentiles);
* :mod:`~repro.stream.engine` — the ingestion loop, with periodic
  checkpointing;
* :mod:`~repro.stream.checkpoint` — JSON snapshots and resume;
* :mod:`~repro.stream.sharding` — parallel corpus generation whose
  N-worker merge is bit-identical to the 1-worker run: cost-weighted
  LPT sharding, the runtime's shared worker pool,
  and ``jobs="auto"`` with a serial fallback for small corpora.

Quickstart::

    from repro import paper_scenario
    from repro.stream import StreamEngine, live_feed

    engine = StreamEngine()
    engine.run(live_feed(paper_scenario(scale=0.25)))
    print(engine.aggregates.root_cause_distribution())
"""

from repro.stream.aggregates import StreamAggregates
from repro.stream.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.engine import StreamEngine
from repro.stream.sharding import (
    AUTO_SERIAL_THRESHOLD,
    aggregate_cells,
    cell_weights,
    generate_aggregates,
    resolve_jobs,
    shard_cells,
)
from repro.stream.sources import (
    live_feed,
    live_ticket_feed,
    replay_file,
    replay_store,
    replay_tickets,
    replay_tickets_file,
)

__all__ = [
    "AUTO_SERIAL_THRESHOLD",
    "StreamAggregates",
    "StreamEngine",
    "aggregate_cells",
    "cell_weights",
    "generate_aggregates",
    "live_feed",
    "live_ticket_feed",
    "load_checkpoint",
    "replay_file",
    "replay_store",
    "replay_tickets",
    "replay_tickets_file",
    "resolve_jobs",
    "save_checkpoint",
    "shard_cells",
]
