"""Streaming runtime throughput — events/sec, 1 versus N workers.

Not a paper artifact — an engineering benchmark for :mod:`repro.stream`:
how fast cost-weighted sharded generation folds the corpus into
streaming aggregates, and that every worker count produces bit-identical
aggregates (the determinism guarantee the speedup rides on).

Parallelism pays only past the serial crossover: below
``AUTO_SERIAL_THRESHOLD`` (16k estimated events) ``jobs="auto"``
resolves to a single in-process worker because process spawn plus
scenario shipping costs more than the fold itself.  The scale-8 corpus
(~18k events) sits past that threshold, so on a multi-core host jobs=4
must beat jobs=1; on a single-core host the parallel win is physically
impossible and the assertion is skipped (the artifact still records
the honest numbers and the cpu count).
"""

import os
import pathlib

import pytest

from repro.perf import bench_stream_throughput, write_record
from repro.perf.bench import render_stream_record
from repro.stream import AUTO_SERIAL_THRESHOLD

OUT_DIR = pathlib.Path(__file__).parent / "out"
SCALE = 8.0
JOBS = [1, 2, 4, "auto"]


def test_stream_throughput(benchmark, emit):
    record = benchmark.pedantic(
        bench_stream_throughput,
        kwargs={"seed": 2, "scale": SCALE, "jobs_list": JOBS, "rounds": 3},
        rounds=1, iterations=1,
    )

    if not benchmark.disabled:  # wall times: written from timed runs only
        emit("stream_throughput", render_stream_record(record))
        write_record(record, OUT_DIR)

    # The point of the subsystem: worker count never changes the output.
    assert record.metrics["digests_identical"] is True
    assert record.metrics["events"] > AUTO_SERIAL_THRESHOLD

    if os.cpu_count() < 2:
        pytest.skip(
            "single-core host: jobs=4 cannot beat jobs=1 "
            "(numbers recorded in the artifact)"
        )
    assert record.metrics["speedup_jobs4"] > 1.0
