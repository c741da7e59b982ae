"""Per-layer metrics derived from the spans the traced launcher writes.

Each layer is a module of ``src/repro``.  A ``*_s`` total is the self
time of that layer's spans (a span's duration minus its child spans), so
the totals of one process never count an interval twice, and
``cli.self_s`` (main-thread wall time outside every layer span) closes
the sum: on a single-threaded command the layer totals plus
``cli.self_s`` equal the traced wall time.
"""

import statistics

#: self-time total metric -> span name
SELF_TIME = {
    "simulation.intra_s": "simulation.intra",
    "simulation.backbone_s": "simulation.backbone",
    "incidents.insert_s": "incidents.insert",
    "survivability.generate_s": "survivability.generate",
    "storage.ingest_s": "storage.ingest",
    "storage.compact_s": "storage.compact",
    "storage.scan_s": "storage.scan",
    "runtime.executor_s": "runtime.executor",
    "runtime.cache_lookup_s": "runtime.cache_lookup",
    "runtime.cache_store_s": "runtime.cache_store",
    "runtime.fingerprint_s": "runtime.fingerprint",
    "core.render_s": "core.render",
    "faultline.digest_s": "faultline.digest",
    "scenarios.cell_s": "scenarios.cell",
    "scenarios.materialize_s": "scenarios.materialize",
    "viz.render_s": "viz.render",
}

READ_PREFIXES = ("/reports/", "/figures/", "/tables/")


def scipy_import_s(importtime_text):
    """Seconds spent importing scipy, from ``-X importtime`` output.

    Sums the cumulative time of every scipy module whose importer is not
    itself a scipy module, so nested scipy imports count once.
    """
    entries = []
    for line in importtime_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = len(name) - len(name.lstrip())
        entries.append((depth, name.strip(), int(fields[1])))
    total_us = 0
    stack = []  # (depth, inside scipy) in pre-order
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total_us += cumulative_us
        stack.append((depth, inside or is_scipy))
    return total_us / 1e6


def _outermost(spans, name):
    """Spans called ``name`` whose parent is not also ``name``."""
    by_id = {span[0]: span for span in spans}
    return [span for span in spans if span[1] == name
            and by_id.get(span[4], (None, None))[1] != name]


def process_metrics(trace):
    """Layer metrics of one traced process (``launch.py`` output)."""
    spans = trace["spans"]
    metrics = {metric: 0.0 for metric in SELF_TIME}
    for metric, name in SELF_TIME.items():
        metrics[metric] = sum(s[6] for s in spans if s[1] == name)
    metrics["main_thread_spans_s"] = sum(
        s[6] for s in spans if s[5] == "MainThread")
    metrics["simulation.rows"] = sum(
        s[7].get("rows", 0) for s in spans if s[1].startswith("simulation."))
    metrics["incidents.rows_inserted"] = sum(
        s[7].get("rows", 0) for s in _outermost(spans, "incidents.insert"))
    metrics["survivability.trials"] = sum(
        s[7].get("trials", 0) for s in spans
        if s[1] == "survivability.generate")
    metrics["storage.partitions_scanned"] = sum(
        s[7].get("partitions", 0) for s in spans if s[1] == "storage.scan")
    lookups = [s for s in spans if s[1] == "runtime.cache_lookup"]
    metrics["runtime.cache_lookups"] = len(lookups)
    metrics["runtime.cache_hits"] = sum(1 for s in lookups if s[7].get("hit"))
    metrics["runtime.executor_runs"] = len(
        [s for s in spans if s[1] == "runtime.executor"])
    metrics["runtime.fingerprints"] = len(
        _outermost(spans, "runtime.fingerprint"))
    metrics["runtime.columnar_fallbacks"] = sum(
        s[7].get("fallbacks", 0) for s in spans if s[1] == "runtime.executor")
    metrics["faultline.digests"] = len(
        [s for s in spans if s[1] == "faultline.digest"])
    cells = [s for s in spans if s[1] == "scenarios.cell"]
    metrics["scenarios.cells"] = len(cells)
    metrics["scenarios.cell_hits"] = sum(1 for s in cells if s[7].get("hit"))
    return metrics


def combine(processes):
    """Sum the layer metrics of several traced processes of one run."""
    total = {}
    for metrics in processes:
        for key, value in metrics.items():
            total[key] = total.get(key, 0) + value
    return total


def ratio(part, whole):
    return part / whole if whole else 0.0


def finish(total, wall_s, import_s, import_scipy_s):
    """The published per-layer metrics from combined process metrics."""
    out = {key: total[key] for key in (
        "simulation.intra_s", "simulation.backbone_s", "simulation.rows",
        "incidents.insert_s", "incidents.rows_inserted",
        "survivability.generate_s", "survivability.trials",
        "storage.ingest_s", "storage.compact_s", "storage.scan_s",
        "storage.partitions_scanned",
        "runtime.executor_s", "runtime.executor_runs",
        "runtime.cache_lookups", "runtime.cache_lookup_s",
        "runtime.cache_store_s", "runtime.fingerprint_s",
        "runtime.fingerprints", "runtime.columnar_fallbacks",
        "core.render_s", "faultline.digest_s", "faultline.digests",
        "scenarios.cell_s", "scenarios.materialize_s", "scenarios.cells",
        "viz.render_s",
    )}
    out["runtime.cache_hit_ratio"] = ratio(
        total["runtime.cache_hits"], total["runtime.cache_lookups"])
    out["scenarios.cell_hit_ratio"] = ratio(
        total["scenarios.cell_hits"], total["scenarios.cells"])
    out["cli.import_s"] = import_s
    out["cli.import_scipy_s"] = import_scipy_s
    out["cli.wall_s"] = wall_s
    out["cli.self_s"] = wall_s - total["main_thread_spans_s"]
    return out


def serve_request_metrics(spans):
    """Medians of the server-side request path of a traced server.

    A fresh connection is handled by a thread that serves one request;
    the keep-alive connection's thread serves many, which is how the
    handle times are split by connection style.
    """
    handles = [s for s in spans if s[1] == "serve.handle"]
    per_thread = {}
    for span in handles:
        per_thread[span[5]] = per_thread.get(span[5], 0) + 1
    fresh, keepalive = [], []
    for span in handles:
        attrs = span[7]
        if attrs.get("method") != "GET" or not str(
                attrs.get("path", "")).startswith(READ_PREFIXES):
            continue
        duration_ms = (span[3] - span[2]) * 1000
        (keepalive if per_thread[span[5]] > 1 else fresh).append(duration_ms)
    by_id = {span[0]: span for span in spans}

    def in_job(span):
        while span[4]:
            span = by_id.get(span[4])
            if span is None:
                return False
            if span[1] == "serve.job_exec":
                return True
        return False

    encode = [(s[3] - s[2]) * 1000 for s in spans
              if s[1] == "serve.encode" and not in_job(s)]
    jobs = [s[3] - s[2] for s in spans if s[1] == "serve.job_exec"]
    return {
        "handle_fresh_ms": _median(fresh),
        "handle_keepalive_ms": _median(keepalive),
        "handle_ms": _median(fresh + keepalive),
        "encode_ms": _median(encode),
        "job_exec_s": _median(jobs),
    }


def _median(values):
    return statistics.median(values) if values else 0.0
