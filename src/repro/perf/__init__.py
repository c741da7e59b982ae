"""Performance measurement toolkit.

JSON benchmark records with environment capture
(:mod:`repro.perf.record`) and the built-in benchmark suite behind
``python -m repro bench`` (:mod:`repro.perf.bench`): four in-process
comparisons of strategies that do the same work.  The end-to-end
workloads are timed in fresh processes by the repository benchmark,
``perfbench/``.  Records land in ``benchmarks/out/*.json`` so every PR
can report a comparable performance trajectory alongside the paper
artifacts.

Quickstart::

    from repro.perf import bench_fold_matrix

    record = bench_fold_matrix(scale=0.25, rounds=1)
    print(f"partitioned overhead "
          f"{record.metrics['partitioned_overhead']:.2f}x")
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.perf.bench": (
        "bench_backbone", "bench_fold_matrix", "bench_ingest",
        "bench_stream_throughput", "events_per_second", "run_bench_suite",
    ),
    "repro.perf.record": (
        "BenchRecord", "environment", "load_record", "write_record",
    ),
})
