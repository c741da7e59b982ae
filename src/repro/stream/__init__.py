"""Online ingestion + incremental analytics runtime.

Where :mod:`repro.core` analyzes a complete corpus after the fact,
this package keeps the study current as events arrive — the shape of
the production pipeline the paper describes, where SEVs and vendor
tickets stream in continuously and dashboards never wait for a batch
job:

* :mod:`~repro.stream.sources` — event feeds: the simulators as live
  producers (a stored corpus replays through its own scan, an exported
  one through :func:`repro.io.read_records`);
* :mod:`~repro.stream.aggregates` — the single-pass, constant-memory
  fold state (the runtime's count tallies and resolution-time
  sketches), and :func:`finalize_analyses`, which answers the intra
  analyses over it with their own ``finalize`` — the same shares,
  rates, MTBI and percentiles ``report intra`` prints;
* :mod:`~repro.stream.engine` — the ingestion loop, with periodic
  checkpointing;
* :mod:`~repro.stream.checkpoint` — JSON snapshots and resume;
* :mod:`~repro.stream.sharding` — parallel corpus generation whose
  N-worker merge is bit-identical to the 1-worker run: cost-weighted
  LPT sharding, the runtime's shared worker pool,
  and ``jobs="auto"`` with a serial fallback for small corpora.

Quickstart::

    from repro import RunContext, paper_scenario
    from repro.runtime.analyses import RootCausesAnalysis
    from repro.stream import StreamEngine, finalize_analyses, live_feed

    engine = StreamEngine()
    engine.run(live_feed(paper_scenario(scale=0.25)))
    results = finalize_analyses(
        engine.aggregates, [RootCausesAnalysis()], RunContext()
    )
    print(results["root_causes"].distribution())
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stream.aggregates": ("StreamAggregates", "finalize_analyses"),
    "repro.stream.checkpoint": ("load_checkpoint", "save_checkpoint"),
    "repro.stream.engine": ("StreamEngine",),
    "repro.stream.sharding": (
        "AUTO_SERIAL_THRESHOLD", "aggregate_cells", "cell_weights",
        "generate_aggregates", "resolve_jobs", "shard_cells",
    ),
    "repro.stream.sources": ("live_feed", "live_ticket_feed"),
})
