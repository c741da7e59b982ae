"""Traced launcher: runs one ``repro`` CLI command with per-layer spans.

    python3 -X importtime perfbench/launch.py --spans OUT.json -- report full --seed 1
    python3 -X importtime perfbench/launch.py --spans OUT.json --import-only

The launcher imports ``repro.cli`` (timing the import), wraps the public
entry point of every layer listed in ``ENTRY_POINTS`` so each call
records a span, hands the remaining arguments to ``repro.cli.main`` and,
when the command returns (a server returns after SIGINT), writes every
span to ``OUT.json`` and exits with the command's exit code.

A span is ``[id, name, start, end, parent, thread, self_s, attrs]``:
times are ``perf_counter`` seconds, ``parent`` is the id of the span
open in the same thread when this one started (0 for none), and
``self_s`` is the span's duration minus the time its child spans cover.
Spans stay in memory until exit.  Nothing under ``src/`` is changed:
the wrappers are installed on the loaded modules from this file.
"""

import functools
import importlib
import importlib.abc
import itertools
import json
import sys
import threading
import time

STARTED = time.perf_counter()

#: (span name, module, attribute path, kind).  ``call`` wraps a function
#: or method; ``iter`` also times every ``next()`` on what it returns,
#: so a lazy scan is charged to the layer that does the work.
ENTRY_POINTS = [
    ("simulation.intra", "repro.simulation.generator", "IntraSimulator.run", "call"),
    ("simulation.backbone", "repro.simulation.backbone_sim", "BackboneSimulator.run", "call"),
    ("incidents.insert", "repro.incidents.store", "SEVStore.insert", "call"),
    ("incidents.insert", "repro.incidents.store", "SEVStore.insert_many", "call"),
    ("incidents.insert", "repro.incidents.store", "SEVStore.bulk_load", "call"),
    ("survivability.generate", "repro.survivability.trials", "generate_trials", "call"),
    ("storage.ingest", "repro.storage.partitioned", "_TieredStore.ingest", "call"),
    ("storage.compact", "repro.storage.partitioned", "_TieredStore.compact", "call"),
    ("storage.scan", "repro.storage.partitioned", "_TieredStore.records", "iter"),
    ("storage.scan", "repro.storage.partitioned", "PartitionedSEVStore.shard_stores", "iter"),
    ("runtime.executor", "repro.runtime.executor", "Executor.run", "call"),
    ("runtime.cache_lookup", "repro.runtime.cache", "ResultCache.lookup", "call"),
    ("runtime.cache_store", "repro.runtime.cache", "ResultCache.store", "call"),
    ("runtime.fingerprint", "repro.runtime.domain", "SEVCorpus.fingerprint", "call"),
    ("runtime.fingerprint", "repro.runtime.domain", "TicketCorpus.fingerprint", "call"),
    ("runtime.fingerprint", "repro.runtime.domain", "TrialCorpus.fingerprint", "call"),
    ("core.render", "repro.core.reports", "IntraStudyReport.render", "call"),
    ("core.render", "repro.core.reports", "BackboneStudyReport.render", "call"),
    ("core.render", "repro.survivability.analysis", "SurvivabilityStudyReport.render", "call"),
    ("faultline.digest", "repro.faultline.oracle", "report_digest", "call"),
    ("scenarios.cell", "repro.scenarios.grid", "GridRunner.run_cell", "call"),
    ("scenarios.materialize", "repro.scenarios.spec", "ScenarioSpec.materialize", "call"),
    ("serve.handle", "repro.serve.api", "ServeApp.handle", "call"),
    ("serve.encode", "repro.serve.payloads", "canonical_json", "call"),
    ("serve.job_exec", "repro.serve.jobs", "execute_job", "call"),
    ("viz.render", "repro.viz.tables", "format_table", "call"),
    ("viz.render", "repro.viz.grid_view", "grid_table", "call"),
    ("viz.render", "repro.viz.grid_view", "axis_table", "call"),
]


class Tracer:
    """In-memory span recorder with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self.iterators = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self):
        """Open a frame: ``[id, parent, start, child_s]``."""
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        frame = [next(self._ids), parent, time.perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame):
        """Close the top frame; returns ``(end, duration, self_s)``."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        if stack:
            stack[-1][3] += duration
        return end, duration, duration - frame[3]

    def record(self, name, frame, end, self_s, attrs):
        span = [frame[0], name, frame[2], end, frame[1],
                threading.current_thread().name, self_s, attrs]
        self.spans.append(span)
        return span


class TimedIterator:
    """Charges every ``next()`` of a lazy scan to one aggregate span."""

    def __init__(self, tracer, name, iterator, parent, per_item):
        self._tracer = tracer
        self._iterator = iterator
        self.name = name
        self.parent = parent
        self.per_item = per_item
        self.first = None
        self.last = None
        self.self_s = 0.0
        self.items = 0
        self.thread = threading.current_thread().name
        tracer.iterators.append(self)

    def __iter__(self):
        return self

    def __next__(self):
        frame = self._tracer.enter()
        try:
            item = next(self._iterator)
        finally:
            end, _, self_s = self._tracer.leave(frame)
            if self.first is None:
                self.first = frame[2]
            self.last = end
            self.self_s += self_s
        self.items += 1
        return item

    def span(self, span_id):
        attrs = {"partitions": self.items if self.per_item else 0}
        return [span_id, self.name, self.first, self.last, self.parent,
                self.thread, self.self_s, attrs]


def _annotate(name, target, args, result, before):
    """Counts recorded on a span after its call returned."""
    attrs = {}
    if name == "simulation.intra":
        attrs["rows"] = len(result)
    elif name == "simulation.backbone":
        attrs["rows"] = len(result.tickets)
    elif name == "incidents.insert":
        attrs["rows"] = 1 if target == "SEVStore.insert" else int(result)
    elif name == "survivability.generate":
        attrs["trials"] = len(result)
    elif name == "runtime.cache_lookup":
        attrs["hit"] = bool(result[0])
    elif name == "runtime.executor":
        attrs["fallbacks"] = args[0].columnar_fallbacks - before
    elif name == "scenarios.cell":
        attrs["hit"] = args[0].cell_hits > before
    elif name == "serve.handle":
        attrs["method"] = args[1]
        attrs["path"] = args[2]
    return attrs


def _before(name, args):
    if name == "runtime.executor":
        return args[0].columnar_fallbacks
    if name == "scenarios.cell":
        return args[0].cell_hits
    return None


def wrap_call(tracer, name, target, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = _before(name, args)
        frame = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end, _, self_s = tracer.leave(frame)
            span = tracer.record(name, frame, end, self_s, {})
        span[7] = _annotate(name, target, args, result, before)
        return result

    return traced


def wrap_iter(tracer, name, target, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = tracer.enter()
        try:
            iterator = fn(*args, **kwargs)
        finally:
            end, _, self_s = tracer.leave(frame)
        # ``records()`` reads every partition before it returns its
        # merge; ``shard_stores()`` reads one partition per ``next()``.
        eager = target.endswith(".records")
        partitions = len(args[0].manifest.partitions()) if eager else 0
        tracer.record(name, frame, end, self_s, {"partitions": partitions})
        return TimedIterator(tracer, name, iter(iterator), frame[1],
                             per_item=not eager)

    return traced


def _resolve(module, path):
    owner = module
    *heads, attr = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    return owner, attr


def _patch(tracer, module, name, path, kind):
    owner, attr = _resolve(module, path)
    original = owner.__dict__[attr]
    wrapper = (wrap_iter if kind == "iter" else wrap_call)(
        tracer, name, path, original
    )
    setattr(owner, attr, wrapper)
    if owner is module:
        # Functions imported by name elsewhere (``from x import f``)
        # are rebound in every loaded repro module as well.
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if namespace is None or not getattr(
                loaded, "__name__", ""
            ).startswith("repro"):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, wrapper)


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Installs the wrappers of a module the command imports lazily."""

    def __init__(self, tracer, pending):
        self.tracer = tracer
        self.pending = pending

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module
        entries = self.pending.pop(fullname)

        def exec_and_patch(module):
            exec_module(module)
            for name, attr_path, kind in entries:
                _patch(self.tracer, module, name, attr_path, kind)

        spec.loader.exec_module = exec_and_patch
        return spec


def install(tracer):
    pending = {}
    for name, module_name, path, kind in ENTRY_POINTS:
        module = sys.modules.get(module_name)
        if module is not None:
            _patch(tracer, module, name, path, kind)
        else:
            pending.setdefault(module_name, []).append((name, path, kind))
    if pending:
        sys.meta_path.insert(0, _PatchOnImport(tracer, pending))


def write_spans(path, tracer, import_s, wall_s):
    spans = list(tracer.spans)
    next_id = max((span[0] for span in spans), default=0) + 1
    for offset, iterator in enumerate(tracer.iterators):
        if iterator.first is not None:
            spans.append(iterator.span(next_id + offset))
    with open(path, "w") as fh:
        json.dump({"import_s": import_s, "wall_s": wall_s,
                   "spans": spans}, fh, separators=(",", ":"))


def main(argv):
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launch.py --spans OUT.json "
              "(--import-only | -- ARGS...)", file=sys.stderr)
        return 2
    out, rest = argv[1], argv[2:]
    import_only = rest[:1] == ["--import-only"]
    if not import_only:
        if rest[:1] != ["--"]:
            print("launch.py: expected -- before the CLI arguments",
                  file=sys.stderr)
            return 2
        rest = rest[1:]

    start = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    code = 0
    try:
        if not import_only:
            code = repro.cli.main(rest)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        write_spans(out, tracer, import_s, time.perf_counter() - STARTED)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
