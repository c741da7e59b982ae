"""The differential-testing oracle.

The runtime's core correctness claim is that its planned path — SQL on
every SQLite shard, column batches everywhere else, pooled at
``jobs > 1`` — answers every analysis bit-identically to the per-row
reference fold.  The oracle re-asserts that claim *under an active
fault plan*: the fault-free reference fold fixes a baseline digest,
then the plan runs at ``jobs`` and at ``jobs=1`` with injection
enabled, and each run must either reproduce the baseline exactly (the
recovery paths absorbed every fault) or die with a typed
:class:`FaultToleranceError` — never a silently different answer,
never a raw injected exception leaking through a path that claims to
tolerate it.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.faultline import hooks
from repro.faultline.plan import (
    FaultPlan,
    FaultToleranceError,
    InjectedFault,
)

__all__ = [
    "OracleReport",
    "PlanRun",
    "report_digest",
    "run_differential",
]


def _canonical(obj) -> str:
    """A canonical rendering under which ``a == b`` implies equal text.

    Dataclass equality ignores dict insertion order (SQL fills build
    their counts in SQL-result order, folds in record order), so a
    plain ``repr`` distinguishes reports that compare equal.
    Canonicalization sorts dict items and set members, renders
    dataclasses field by field, and round-trips floats through
    ``repr`` — bitwise-different values stay different.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        body = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({body})"
    if isinstance(obj, dict):
        items = sorted(
            (_canonical(k), _canonical(v)) for k, v in obj.items()
        )
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(x) for x in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(x) for x in obj)) + "}"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    return repr(obj)


def report_digest(report) -> str:
    """A stable content hash of a report dataclass.

    Equal reports — on any execution path, in any process — digest
    equally; any bitwise difference in any field digests differently.
    """
    return hashlib.sha256(_canonical(report).encode()).hexdigest()


@dataclass(frozen=True)
class PlanRun:
    """One planned run's answer under the fault plan."""

    jobs: int
    digest: str

    @property
    def label(self) -> str:
        return f"plan@jobs={self.jobs}"


@dataclass
class OracleReport:
    """What the oracle observed: all identical, provably."""

    seed: int
    scale: float
    baseline_digest: str
    runs: List[PlanRun] = field(default_factory=list)
    fault_log_digest: str = ""
    faults_fired: int = 0

    @property
    def identical(self) -> bool:
        return all(r.digest == self.baseline_digest for r in self.runs)

    def summary(self) -> dict:
        """JSON-able record for the chaos fault report."""
        return {
            "seed": self.seed,
            "scale": self.scale,
            "baseline_digest": self.baseline_digest,
            "runs": [
                {"run": r.label, "digest": r.digest} for r in self.runs
            ],
            "fault_log_digest": self.fault_log_digest,
            "faults_fired": self.faults_fired,
            "identical": self.identical,
        }


def run_differential(
    seed: int = 1,
    scale: float = 0.25,
    plan: Optional[FaultPlan] = None,
    jobs: int = 2,
    cache_dir=None,
) -> OracleReport:
    """Hold the planned intra report against the reference under ``plan``.

    The corpus is laid out as a tiered store whose newest years stay
    hot (answered by SQL) and whose oldest years are compacted cold
    (folded as 32-row column batches — small enough that even a quick
    corpus frames several — shipped to the shared pool at
    ``jobs > 1``), so both halves of the plan run.
    The baseline is the fault-free per-row reference fold over the
    monolithic store.  Returns an :class:`OracleReport` whose runs all
    match it, or raises :class:`FaultToleranceError` — on divergence,
    or on an injected fault escaping a recovery path.  ``cache_dir``
    routes every run through one shared on-disk
    :class:`~repro.runtime.cache.ResultCache`, putting the
    ``cache.store``/``cache.lookup`` fault sites in play: the second
    run reads back what the first one wrote.
    """
    import tempfile
    from pathlib import Path

    from repro.runtime import (
        Executor,
        ResultCache,
        RunContext,
        intra_report_analyses,
        intra_report_from,
        reference_fold,
    )
    from repro.simulation.generator import IntraSimulator
    from repro.simulation.scenarios import paper_scenario
    from repro.storage import PartitionedSEVStore

    scenario = paper_scenario(seed=seed, scale=scale)
    runs: List[PlanRun] = []
    with tempfile.TemporaryDirectory() as tmp:
        with IntraSimulator(scenario).run() as store:
            baseline_digest = report_digest(intra_report_from(
                reference_fold(
                    intra_report_analyses(),
                    RunContext(store=store, fleet=scenario.fleet,
                               corpus_seed=scenario.seed),
                )
            ))
            tiered = PartitionedSEVStore.init(Path(tmp) / "sev")
            tiered.ingest(store.all_reports())
        years = tiered.years()
        tiered.compact(keep_hot_years=max(1, len(years) // 2))
        context = RunContext(store=tiered, fleet=scenario.fleet,
                             corpus_seed=scenario.seed)
        with hooks.injected(plan):
            for run_jobs in (jobs, 1):
                # Each run gets a fresh cache *instance* over the shared
                # directory, so disk entries (and their injected tears)
                # actually get read back instead of hitting memory.
                cache = (ResultCache(cache_dir) if cache_dir is not None
                         else None)
                executor = Executor(jobs=run_jobs, cache=cache,
                                    batch_size=32)
                try:
                    report = intra_report_from(
                        executor.run(intra_report_analyses(), context)
                    )
                except InjectedFault as exc:
                    raise FaultToleranceError(
                        f"the plan at jobs={run_jobs} died on an injected "
                        f"fault its recovery path should have absorbed: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
                runs.append(PlanRun(run_jobs, report_digest(report)))

    result = OracleReport(
        seed=seed,
        scale=scale,
        baseline_digest=baseline_digest,
        runs=runs,
        fault_log_digest=plan.log_digest() if plan is not None else "",
        faults_fired=plan.fired() if plan is not None else 0,
    )
    if not result.identical:
        divergent = [
            f"{r.label}={r.digest[:12]}" for r in runs
            if r.digest != baseline_digest
        ]
        raise FaultToleranceError(
            "the plan diverged from the reference under the fault plan: "
            f"baseline={baseline_digest[:12]} vs {', '.join(divergent)} "
            f"(seed={seed}, fault log {result.fault_log_digest[:12]})"
        )
    return result
