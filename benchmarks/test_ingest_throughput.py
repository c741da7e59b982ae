"""SEV store ingestion throughput — row-wise vs batched vs bulk.

Not a paper artifact — an engineering benchmark for
:class:`~repro.incidents.store.SEVStore`.  Loads the identical scale-4
corpus (~9k reports) into fresh *on-disk* databases four ways:

* ``insert`` per row — one transaction (and one journal fsync) per
  report, the historical ``insert_many`` behavior;
* ``insert_many`` — the same row-at-a-time statements inside a single
  transaction;
* ``bulk_load`` — one transaction that drops the indexes, loads
  ``executemany`` batches with the journal in memory, and rebuilds the
  indexes;
* ``partitioned_ingest`` — the tiered store routing the same rows to
  per-(year, region) SQLite shards, each built by ``bulk_load``.

The acceptance bar is bulk beating row-wise by >= 3x; in practice the
single-transaction change alone is worth ~50-100x on durable storage.
"""

import pathlib

from repro.perf import bench_ingest, write_record
from repro.perf.bench import render_ingest_record

OUT_DIR = pathlib.Path(__file__).parent / "out"
SCALE = 4.0


def test_ingest_throughput(benchmark, emit):
    record = benchmark.pedantic(
        bench_ingest,
        kwargs={"seed": 2, "scale": SCALE},
        rounds=1, iterations=1,
    )

    if not benchmark.disabled:  # wall times: written from timed runs only
        emit("ingest_bulk_load", render_ingest_record(record))
        write_record(record, OUT_DIR)

    assert record.metrics["rows"] > 0
    assert record.metrics["bulk_speedup_vs_rowwise"] >= 3.0
    assert record.metrics["bulk_speedup_vs_insert_many"] > 0.0
