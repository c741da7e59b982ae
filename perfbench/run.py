"""The repo benchmark: four workloads through the ``repro`` CLI and HTTP API.

    python3 perfbench/run.py --workload report_full --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout; the program is ``src/repro`` of the
checkout this file sits in (it is not installed: every child gets an
absolute ``PYTHONPATH``).  Every timed command is a fresh child process
against fresh state in a temporary directory under ``.perfbench_tmp/``
of the checkout, removed when the run ends.  Progress goes to stderr; the
last stdout line is one JSON object::

    {"correct": true, "attempted": 14, "failed": 0,
     "metrics": {"cold_s": {"value": 3.91, "unit": "s"}, ...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones: the same workload runs once untraced
and once with every command started through ``launch.py``, and the
difference of the two end-to-end readings is reported as tracing
overhead.  A failed command, timeout or output check counts as a failed
operation and makes the run exit 1.  See ``perfbench/README.md`` for why
each workload exists and what each metric means.
"""

import argparse
import http.client
import itertools
import json
import math
import os
import queue
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCHER = HERE / "launch.py"

#: Workload sizes.  Change one only to make a workload steadier; the
#: benchmark's own tests shrink them to run every workload quickly.
SIZES = {
    "setups": 3,            # set-ups (server lives) per run; their median
    # cold+warm rounds per run, at least (more while --seconds lasts)
    "min_rounds": {"report_full": 3, "report_tiered": 2, "grid_sweep": 2},
    "full_scale": 4,
    "tiered_scale": 8,
    "tiered_tiers": (24, 32),   # hot and cold partitions after compact
    "grid_axes": [
        "fabric_year=2015,2016,2017",
        "hazard.CORE=1.0,1.5",
        "correlated.power_domain_size=1,4",
    ],
    "serve_scale": 1,
    "min_reads": 1000,      # fresh-connection reads per run, at least
    "min_jobs": 6,          # report jobs per run, at least
    # Keep-alive reads between two report jobs: jobs then run about a
    # fifth of the time, so the median read is one no job slows.
    "job_every": 30,
}

CHILD_TIMEOUT_S = 120
RUN_BUDGET_S = 160          # a run must end within 180 s
JOB_TIMEOUT_S = 60

#: Thread A's read list: (path, study whose report_digest it carries).
#: One pass is 3 survivability, 9 intra and 3 backbone reads, so the
#: intra class spans the 20th to the 80th percentile and the median
#: never sits on a class boundary.
READ_LIST = [
    ("/reports/survivability", "survivability"),
    ("/reports/intra", "intra"),
    ("/figures/fig3", "intra"),
    ("/reports/backbone", "backbone"),
    ("/figures/fig4", "intra"),
    ("/figures/fig5", "intra"),
    ("/reports/survivability", "survivability"),
    ("/figures/fig15", "backbone"),
    ("/figures/fig7", "intra"),
    ("/figures/fig8", "intra"),
    ("/reports/survivability", "survivability"),
    ("/figures/fig9", "intra"),
    ("/tables/table4", "backbone"),
    ("/figures/fig12", "intra"),
    ("/tables/table2", "intra"),
]

DIGEST_LINE = re.compile(r"^report_digest: ([0-9a-f]{64})$", re.M)
CACHE_LINE = re.compile(r"^\[cache\] (\d+) analyses reused, (\d+) computed",
                        re.M)
BODY_DIGEST = re.compile(rb'"report_digest": "([0-9a-f]{64})"')
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class OperationFailed(Exception):
    """A command did not run to completion; the workload cannot go on."""


class Child:
    """A child that exited 0: its wall time, peak RSS and output files."""

    def __init__(self, stem, wall_s, rss_mb, spans=None):
        self.stem = stem
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.spans = spans

    def stdout(self):
        return Path(f"{self.stem}.out").read_text(errors="replace")

    def stderr(self):
        return Path(f"{self.stem}.err").read_text(errors="replace")


def reap(proc, timeout):
    """Wait for ``proc``; kill it after ``timeout`` seconds.

    Returns ``(end, exit code, peak RSS in MB, timed out)``.  RSS comes
    from ``os.wait4``'s rusage, so no third-party package is needed.
    """
    expired = threading.Event()

    def kill():
        expired.set()
        try:
            proc.kill()
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return end, proc.returncode, usage.ru_maxrss / 1024, expired.is_set()


def cli_argv(args, spans=None, unbuffered=False):
    """A ``repro`` command line, untraced or through the launcher."""
    python = [sys.executable] + (["-u"] if unbuffered else [])
    if spans is None:
        return python + ["-m", "repro", *args]
    return python + ["-X", "importtime", str(LAUNCHER), "--spans",
                     str(spans), "--", *args]


def median(values):
    return statistics.median(values)


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """One benchmark run: its temporary state, children and op counts."""

    def __init__(self, seed, seconds, tmp):
        self.seed = seed
        self.seconds = seconds
        self.tmp = Path(tmp)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(self.tmp))
        self.live = []
        self._names = itertools.count()
        self._lock = threading.Lock()

    # -- accounting -------------------------------------------------

    def attempt(self):
        with self._lock:
            self.attempted += 1

    def fail(self, what):
        """Count one attempted operation as failed."""
        with self._lock:
            self.failed += 1
        log(f"FAILED: {what}")

    def check(self, problems, what):
        """Fail the operation ``what`` if any output check found a problem."""
        if problems:
            self.fail(f"{what}: {'; '.join(problems)}")

    # -- children ---------------------------------------------------

    def path(self, stem):
        return self.tmp / f"{stem}-{next(self._names)}"

    def remaining(self, cap=CHILD_TIMEOUT_S):
        return max(1.0, min(cap, self.deadline - time.monotonic()))

    def spawn(self, argv, stem, stdout=None):
        with open(f"{stem}.err", "wb") as err:
            if stdout is None:
                with open(f"{stem}.out", "wb") as out:
                    proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                            env=self.env, cwd=ROOT)
            else:
                proc = subprocess.Popen(argv, stdout=stdout, stderr=err,
                                        env=self.env, cwd=ROOT)
        self.live.append(proc)
        return proc

    def child(self, argv, spans=None):
        """Run one child to completion as one operation."""
        stem = self.path("cmd")
        start = time.perf_counter()
        proc = self.spawn(argv, stem)
        end, code, rss_mb, timed_out = reap(proc, self.remaining())
        self.live.remove(proc)
        self.attempt()
        child = Child(stem, end - start, rss_mb, spans)
        if code != 0 or timed_out:
            tail = child.stderr().strip().splitlines()[-3:]
            self.fail(f"{' '.join(argv[-6:])}: exit {code}"
                      f"{' (timed out)' if timed_out else ''}: "
                      f"{' | '.join(tail)}")
            raise OperationFailed(argv)
        return child

    def command(self, args, traced=False):
        """One ``repro`` CLI command, timed, as a fresh child."""
        spans = self.path("spans") if traced else None
        return self.child(cli_argv(args, spans), spans)

    def import_setup(self, traced=False):
        """Seconds a fresh process takes to import ``repro.cli``."""
        if not traced:
            argv = [sys.executable, "-c", "import repro.cli"]
        else:
            argv = [sys.executable, "-X", "importtime", str(LAUNCHER),
                    "--spans", str(self.path("spans")), "--import-only"]
        return self.child(argv).wall_s

    def close(self):
        for proc in self.live:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        self.live.clear()


# -- CLI workloads ----------------------------------------------------


class Round:
    """One cold command and one warm command over the state it left.

    ``setup_s`` is set when the round built that state itself
    (``report_tiered``); ``children`` are its set-up commands.
    """

    def __init__(self, cold, warm, setup_s=None, children=()):
        self.cold = cold
        self.warm = warm
        self.setup_s = setup_s
        self.children = list(children)


def cli_metrics(setups, rounds):
    """End-to-end metrics of a CLI workload.

    A CLI workload has no HTTP reads or jobs: its read metrics are over
    every timed command, its keep-alive reading is the warm command
    (state kept from the command before) and its job is one cold+warm
    round.
    """
    setups = setups + [r.setup_s for r in rounds if r.setup_s is not None]
    colds = [r.cold.wall_s for r in rounds]
    warms = [r.warm.wall_s for r in rounds]
    walls = colds + warms
    return {
        "setup_s": median(setups),
        "cold_s": median(colds),
        "warm_s": median(warms),
        "peak_rss_mb": max(max(r.cold.rss_mb, r.warm.rss_mb) for r in rounds),
        "read_p50_ms": median(walls) * 1000,
        "read_p99_ms": max(walls) * 1000,
        "keepalive_p50_ms": median(warms) * 1000,
        "job_s": median([cold + warm for cold, warm in zip(colds, warms)]),
    }


def cli_workload(run, trace, workload, one_round, setup=None):
    """Set up and run rounds; in trace mode, once plain and once traced.

    ``setup(traced)`` returns set-up seconds and ``one_round(traced)`` a
    :class:`Round`.  Untraced, a run sets up ``SIZES["setups"]`` times
    and repeats rounds for ``--seconds``, at least
    ``SIZES["min_rounds"][workload]`` times.  Traced, it returns the
    per-layer metrics of one traced round and the tracing overhead
    against one untraced round.
    """
    if not trace:
        setups = ([setup(False) for _ in range(SIZES["setups"])]
                  if setup else [])
        rounds = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            rounds.append(one_round(False))
            took = time.monotonic() - began
            if len(rounds) >= SIZES["min_rounds"][workload] and (
                    time.monotonic() - start >= run.seconds
                    or time.monotonic() + took > run.deadline - 10):
                return cli_metrics(setups, rounds)
    plain = cli_metrics([setup(False)] if setup else [], [one_round(False)])
    traced_setups = [setup(True)] if setup else []
    traced_round = one_round(True)
    traced = cli_metrics(traced_setups, [traced_round])
    out = traced_layers(traced_round.children
                        + [traced_round.cold, traced_round.warm])
    out.update(no_serve_layers())
    return with_overhead(out, traced, plain)


def traced_layers(children):
    """Per-layer metrics over the traced children of one round."""
    processes, imports, scipy = [], [], []
    for child in children:
        trace = json.loads(Path(child.spans).read_text())
        processes.append(layers.process_metrics(trace))
        imports.append(trace["import_s"])
        scipy.append(layers.scipy_import_s(child.stderr()))
    return layers.finish(
        layers.combine(processes),
        wall_s=sum(child.wall_s for child in children),
        import_s=median(imports),
        import_scipy_s=median(scipy),
    )


def no_serve_layers():
    return {key: 0.0 for key in (
        "serve.handle_ms", "serve.encode_ms", "serve.transport_fresh_ms",
        "serve.transport_keepalive_ms", "serve.job_exec_s",
        "serve.job_wait_s", "serve.job_retries")}


def with_overhead(layer_metrics, traced, plain):
    out = dict(layer_metrics)
    for name, value in traced.items():
        out[f"overhead.{name}"] = value - plain[name]
    return out


def digests(child):
    return DIGEST_LINE.findall(child.stdout())


def not_empty(directory):
    """The starting-state check before a cold run."""
    if directory.exists() and any(directory.iterdir()):
        return [f"{directory} is not empty before the cold run"]
    return []


def report_full(run, trace):
    """``report full --scale 4 --digest --cache D``: cold, then warm."""

    def one_round(traced):
        cache = run.path("cache")
        args = ["report", "full", "--seed", str(run.seed),
                "--scale", str(SIZES["full_scale"]), "--digest",
                "--cache", str(cache)]
        problems = not_empty(cache)
        cold = run.command(args, traced)
        warm = run.command(args, traced)
        cold_digests, warm_digests = digests(cold), digests(warm)
        if len(cold_digests) != 3:
            problems.append(f"cold run printed {len(cold_digests)} digests")
        if warm_digests != cold_digests:
            problems.append("warm digests differ from cold digests")
        run.check(problems, "report full (cold)")
        reused = CACHE_LINE.findall(warm.stdout())
        warm_problems = []
        if len(reused) != 2 or any(int(computed) for _, computed in reused):
            warm_problems.append(f"warm run did not reuse every analysis: "
                                 f"{reused}")
        run.check(warm_problems, "report full (warm)")
        return Round(cold, warm)

    return cli_workload(run, trace, "report_full", one_round,
                        run.import_setup)


def tiered_reference(run):
    """The digest of the same corpus generated fresh (untimed)."""
    child = run.command(["report", "intra", "--seed", str(run.seed),
                         "--scale", str(SIZES["tiered_scale"]), "--digest"])
    found = digests(child)
    run.check([] if len(found) == 1 else [f"printed {len(found)} digests"],
              "report intra reference")
    return found[0] if found else None


def report_tiered(run, trace):
    """A stored, compacted corpus read by ``report intra --store-dir``."""
    reference = tiered_reference(run)
    tiers = tuple(SIZES["tiered_tiers"])

    def one_round(traced):
        # Set-up is part of every round: each round reads the store its
        # own ``store init`` + ``store compact`` built.
        store = run.path("store")
        init = run.command(["store", "init", str(store), "--seed",
                            str(run.seed), "--scale",
                            str(SIZES["tiered_scale"])], traced)
        compact = run.command(["store", "compact", str(store),
                               "--keep-hot-years", "3"], traced)
        found = re.search(r"\((\d+) hot / (\d+) cold\)", compact.stdout())
        built = tuple(int(n) for n in found.groups()) if found else None
        run.check([] if built == tiers else
                  [f"{built} hot/cold partitions, expected {tiers}"],
                  "store compact")
        args = ["report", "intra", "--store-dir", str(store), "--digest"]
        cold = run.command(args, traced)
        warm = run.command(args, traced)
        for label, child in (("cold", cold), ("warm", warm)):
            found = digests(child)
            run.check([] if found == [reference] else
                      [f"digest {found} != fresh corpus {reference}"],
                      f"report intra --store-dir ({label})")
        return Round(cold, warm, setup_s=init.wall_s + compact.wall_s,
                     children=[init, compact])

    return cli_workload(run, trace, "report_tiered", one_round)


def grid_sweep(run, trace):
    """A 12-cell ``grid run`` with a cell cache: cold, then warm."""

    def one_round(traced):
        cache, out = run.path("grid-cache"), run.path("grid")
        args = ["grid", "run"]
        for axis in SIZES["grid_axes"]:
            args += ["--axes", axis]
        args += ["--seed", str(run.seed), "--cache", str(cache),
                 "--out", f"{out}.json"]
        cells = math.prod(len(axis.split("=", 1)[1].split(","))
                          for axis in SIZES["grid_axes"])
        problems = not_empty(cache)
        cold = run.command(args, traced)
        cold_summary = grid_summary(cold)
        warm = run.command(args, traced)
        warm_summary = grid_summary(warm)
        if cold_summary[1:] != (cells, 0, cells):
            problems.append(f"cold run: {cold_summary[1:]} (cells, cached, "
                            f"computed), expected {(cells, 0, cells)}")
        run.check(problems, "grid run (cold)")
        warm_problems = []
        if warm_summary[1:] != (cells, cells, 0):
            warm_problems.append(f"warm run: {warm_summary[1:]} (cells, "
                                 f"cached, computed), expected "
                                 f"{(cells, cells, 0)}")
        if warm_summary[0] is None or warm_summary[0] != cold_summary[0]:
            warm_problems.append("warm summary_digest differs from cold")
        with open(f"{out}.json") as fh:
            written = json.load(fh).get("summary_digest")
        if written != warm_summary[0]:
            warm_problems.append("--out report has another summary_digest")
        run.check(warm_problems, "grid run (warm)")
        return Round(cold, warm)

    return cli_workload(run, trace, "grid_sweep", one_round,
                        run.import_setup)


def grid_summary(child):
    text = child.stdout()
    digest = re.search(r"^summary_digest: ([0-9a-f]{64})$", text, re.M)
    counts = re.search(r"^\[grid\] (\d+) cells, (\d+) cached, (\d+) computed",
                       text, re.M)
    if digest is None or counts is None:
        return (None, None, None, None)
    return (digest.group(1),) + tuple(int(n) for n in counts.groups())


# -- serve_mixed -------------------------------------------------------


class Server:
    """A running ``repro serve`` child."""

    def __init__(self, proc, stem, spans, start):
        self.proc = proc
        self.stem = stem
        self.spans = spans
        self.start = start
        self.host = None
        self.port = None
        self.setup_s = None
        self.cold_s = None
        self.rss_mb = None
        self.wall_s = None
        self.lines = queue.Queue()
        self.pump = threading.Thread(target=self._pump, daemon=True)
        self.pump.start()

    def _pump(self):
        for raw in self.proc.stdout:
            self.lines.put(raw.decode(errors="replace"))
        self.lines.put(None)

    def stderr(self):
        return Path(f"{self.stem}.err").read_text(errors="replace")


def fresh_get(server, path, timeout=30):
    """One GET on a fresh connection, the way ``curl`` reads."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection(server.host, server.port,
                                      timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    return response.status, body, time.perf_counter() - start


def body_digest(body):
    found = BODY_DIGEST.findall(body)
    return found[-1].decode() if found else None


def check_read(run, path, study, status, body, reference):
    """Every read returns 200 and the study's reference digest."""
    if status != 200:
        run.fail(f"GET {path}: status {status}")
    elif body_digest(body) != reference[study]:
        run.fail(f"GET {path}: report_digest {body_digest(body)} != "
                 f"{reference[study]}")


def fresh_read(run, server, path, study, reference):
    """One checked read on a fresh connection; its seconds, or None."""
    run.attempt()
    try:
        status, body, took = fresh_get(server, path)
    except OSError as exc:
        run.fail(f"GET {path}: {exc}")
        return None
    check_read(run, path, study, status, body, reference)
    return took


def start_server(run, reference, traced):
    stem = run.path("serve")
    spans = run.path("spans") if traced else None
    args = ["serve", "--port", "0", "--seed", str(run.seed),
            "--backbone-seed", str(run.seed),
            "--scale", str(SIZES["serve_scale"]),
            "--data-dir", str(run.path("serve-data"))]
    start = time.perf_counter()
    proc = run.spawn(cli_argv(args, spans, unbuffered=True), stem,
                     stdout=subprocess.PIPE)
    server = Server(proc, stem, spans, start)
    run.attempt()
    bound = re.compile(r"serving on http://([^:\s]+):(\d+)")
    while server.host is None:
        try:
            line = server.lines.get(timeout=run.remaining())
        except queue.Empty:
            line = None
        if line is None:
            run.fail(f"server printed no URL: {server.stderr()[-300:]}")
            raise OperationFailed(args)
        found = bound.search(line)
        if found:
            server.host, server.port = found.group(1), int(found.group(2))
    while True:
        try:
            status, _, _ = fresh_get(server, "/healthz", timeout=5)
        except OSError:
            status = None
        if status == 200:
            break
        if time.monotonic() > run.deadline:
            run.fail("/healthz never returned 200")
            raise OperationFailed(args)
        time.sleep(0.01)
    server.setup_s = time.perf_counter() - start
    # Cold: from spawn until every read of the list has been answered
    # once, on a server no other client has touched yet.
    for path, study in READ_LIST:
        fresh_read(run, server, path, study, reference)
    server.cold_s = time.perf_counter() - start
    return server


def stop_server(run, server):
    """SIGINT, so ``app.stop()`` runs and the CLI exits with 130."""
    server.proc.send_signal(signal.SIGINT)
    end, code, rss_mb, timed_out = reap(server.proc, run.remaining(30))
    run.live.remove(server.proc)
    server.pump.join(timeout=5)
    server.proc.stdout.close()
    server.rss_mb = rss_mb
    server.wall_s = end - server.start
    run.attempt()
    if code != 130 or timed_out:
        run.fail(f"server exit {code}{' (timed out)' if timed_out else ''} "
                 f"after SIGINT, expected 130")


class Traffic:
    """Thread A (fresh connections) and thread B (keep-alive + jobs).

    Runs for at least ``seconds``, ``min_reads`` reads by thread A and
    ``min_jobs`` jobs by thread B.
    """

    def __init__(self, run, server, reference, seconds, min_reads, min_jobs):
        self.run = run
        self.server = server
        self.reference = reference
        self.seconds = seconds
        self.min_reads = min_reads
        self.min_jobs = min_jobs
        self.fresh_ms = []
        self.passes_s = []
        self.keepalive_ms = []
        self.jobs_s = []
        self.jobs = []
        self.stop = threading.Event()

    def thread_a(self):
        start = time.monotonic()
        limit = min(self.run.deadline - 25,
                    start + max(60, 4 * self.seconds))
        while True:
            began = time.perf_counter()
            for path, study in READ_LIST:
                took = fresh_read(self.run, self.server, path, study,
                                  self.reference)
                if took is not None:
                    self.fresh_ms.append(took * 1000)
            self.passes_s.append(time.perf_counter() - began)
            done = (time.monotonic() - start >= self.seconds
                    and len(self.fresh_ms) >= self.min_reads
                    and len(self.jobs_s) >= self.min_jobs)
            if done:
                break
            if time.monotonic() > limit:
                self.run.attempt()
                self.run.fail(f"traffic stopped at its time limit with "
                              f"{len(self.fresh_ms)} reads and "
                              f"{len(self.jobs_s)} jobs")
                break
        self.stop.set()

    def thread_b(self):
        conn = http.client.HTTPConnection(self.server.host, self.server.port,
                                          timeout=30)
        try:
            for count in itertools.count(1):
                if self.stop.is_set():
                    break
                path, study = READ_LIST[(count - 1) % len(READ_LIST)]
                self.run.attempt()
                try:
                    start = time.perf_counter()
                    conn.request("GET", path)
                    response = conn.getresponse()
                    body = response.read()
                    took = time.perf_counter() - start
                except (OSError, http.client.HTTPException) as exc:
                    self.run.fail(f"keep-alive GET {path}: {exc}")
                    conn.close()
                    continue
                self.keepalive_ms.append(took * 1000)
                check_read(self.run, path, study, response.status, body,
                           self.reference)
                if count % SIZES["job_every"] == 0:
                    self.job(conn)
        finally:
            conn.close()

    def job(self, conn):
        """POST one report job and poll it until it is done."""
        params = {"study": "intra", "seed": self.run.seed,
                  "scale": SIZES["serve_scale"]}
        self.run.attempt()
        start = time.perf_counter()
        try:
            conn.request("POST", "/jobs",
                         body=json.dumps({"kind": "report", "params": params}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            posted = json.loads(response.read())
            if response.status != 202:
                self.run.fail(f"POST /jobs: status {response.status}")
                return
            while time.perf_counter() - start < JOB_TIMEOUT_S:
                conn.request("GET", f"/jobs/{posted['id']}")
                response = conn.getresponse()
                job = json.loads(response.read())
                if response.status != 200:
                    self.run.fail(f"GET /jobs/{posted['id']}: "
                                  f"status {response.status}")
                    return
                if job["status"] in ("done", "failed"):
                    break
                time.sleep(0.02)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.run.fail(f"report job: {exc}")
            conn.close()
            return
        if job["status"] != "done":
            self.run.fail(f"report job ended {job['status']}: "
                          f"{job.get('error')}")
            return
        self.jobs_s.append(time.perf_counter() - start)
        self.jobs.append(job)

    def play(self):
        b = threading.Thread(target=self.thread_b, daemon=True)
        b.start()
        self.thread_a()
        b.join(timeout=JOB_TIMEOUT_S + 30)
        if b.is_alive():
            self.run.attempt()
            self.run.fail("keep-alive client did not finish")
        self.check_jobs()

    def check_jobs(self):
        """Every job published the same artifact: the reference report."""
        if not self.jobs:
            return
        self.run.attempt()
        problems = []
        if len({job["artifact_digest"] for job in self.jobs}) != 1:
            problems.append("job artifact digests differ")
        try:
            status, body, _ = fresh_get(
                self.server, f"/artifacts/{self.jobs[0]['artifact']}")
        except OSError as exc:
            status, body = str(exc), b""
        if status != 200 or body_digest(body) != self.reference["intra"]:
            problems.append(f"artifact: status {status}, report_digest "
                            f"{body_digest(body)} != {self.reference['intra']}")
        self.run.check(problems, "report jobs")


def serve_reference(run):
    """The three report digests the CLI prints for the served corpora."""
    child = run.command(["report", "full", "--seed", str(run.seed),
                         "--scale", str(SIZES["serve_scale"]), "--digest"])
    found = digests(child)
    run.check([] if len(found) == 3 else [f"printed {len(found)} digests"],
              "report full reference")
    return dict(zip(("intra", "backbone", "survivability"), found))


def serve_metrics(lives):
    """End-to-end metrics over ``(server, traffic)`` lives, reads pooled."""
    servers = [server for server, _ in lives]

    def pooled(name):
        return [value for _, traffic in lives
                for value in getattr(traffic, name)]

    fresh_ms, jobs_s = pooled("fresh_ms"), pooled("jobs_s")
    return {
        "setup_s": median([server.setup_s for server in servers]),
        "cold_s": median([server.cold_s for server in servers]),
        "warm_s": median(pooled("passes_s")),
        "peak_rss_mb": max(server.rss_mb for server in servers),
        "read_p50_ms": median(fresh_ms),
        "read_p99_ms": percentile(fresh_ms, 0.99),
        "keepalive_p50_ms": median(pooled("keepalive_ms")),
        "job_s": median(jobs_s) if jobs_s else None,
    }


def serve_life(run, reference, traced, seconds, share):
    """Start a server, read it cold, carry ``1/share`` of the traffic, stop.

    Spreading the traffic over several server lives spreads the samples
    over the whole run, so a few slow seconds of the machine weigh less.
    """
    server = start_server(run, reference, traced)
    traffic = Traffic(run, server, reference, seconds,
                      min_reads=math.ceil(SIZES["min_reads"] / share),
                      min_jobs=math.ceil(SIZES["min_jobs"] / share))
    try:
        traffic.play()
    finally:
        stop_server(run, server)
    return server, traffic


def serve_mixed(run, trace):
    """``repro serve`` under fresh-connection reads, keep-alive reads and
    report jobs, all closed loop."""
    reference = serve_reference(run)
    # The servers (children inherit the CPU set) and both client threads
    # share one CPU, so no request waits for the host to wake another
    # vCPU: in the same slow stretch of this shared host, reads with
    # server and client on separate CPUs slowed by 40-100% while reads
    # on one CPU did not move.  Unpinned, the job and request threads
    # also contend for the interpreter lock across cores.
    os.sched_setaffinity(0, {min(ALL_CPUS)})
    try:
        return serve_workload(run, trace, reference)
    finally:
        os.sched_setaffinity(0, ALL_CPUS)


def serve_workload(run, trace, reference):
    if not trace:
        # Each life carries traffic for half of --seconds.
        lives = SIZES["setups"]
        return serve_metrics([
            serve_life(run, reference, False, run.seconds / 2, lives)
            for _ in range(lives)])
    plain = serve_metrics([serve_life(run, reference, False, run.seconds, 1)])
    server, traffic = serve_life(run, reference, True, run.seconds, 1)
    traced = serve_metrics([(server, traffic)])
    trace = json.loads(Path(server.spans).read_text())
    out = layers.finish(
        layers.process_metrics(trace), wall_s=server.wall_s,
        import_s=trace["import_s"],
        import_scipy_s=layers.scipy_import_s(server.stderr()),
    )
    side = layers.serve_request_metrics(trace["spans"])
    out.update({
        "serve.handle_ms": side["handle_ms"],
        "serve.encode_ms": side["encode_ms"],
        "serve.transport_fresh_ms": traced["read_p50_ms"]
        - side["handle_fresh_ms"],
        "serve.transport_keepalive_ms": traced["keepalive_p50_ms"]
        - side["handle_keepalive_ms"],
        "serve.job_exec_s": side["job_exec_s"],
        "serve.job_wait_s": (traced["job_s"] or 0.0) - side["job_exec_s"],
        "serve.job_retries": sum(job["attempts"] - 1 for job in traffic.jobs),
    })
    return with_overhead(out, traced, plain)


WORKLOADS = {
    "report_full": report_full,
    "report_tiered": report_tiered,
    "grid_sweep": grid_sweep,
    "serve_mixed": serve_mixed,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        log(f"no repro sources under {SRC}; run from a repository checkout")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    run = Run(args.seed, args.seconds, tmp)
    metrics = {}
    try:
        # Byte-compile first, so no timed import pays for it.
        run.child([sys.executable, "-m", "compileall", "-q", str(SRC)])
        metrics = WORKLOADS[args.workload](run, bool(args.trace))
    except OperationFailed:
        pass
    finally:
        run.close()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    missing = [m["name"] for m in declared if metrics.get(m["name"]) is None]
    if missing and not run.failed:
        run.attempt()
        run.fail(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared if metrics.get(m["name"]) is not None
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
