"""Deterministic, seedable fault plans.

A :class:`FaultPlan` decides, site by site and draw by draw, whether a
named injection point fires.  Every decision comes from a per-site
RNG derived from ``(seed, site)`` alone, so a failure run is
replayable from its seed: the same workload under the same plan makes
the same draws in the same order and fires the same faults.  Fired
events are recorded in :attr:`FaultPlan.log`, and
:meth:`FaultPlan.log_digest` hashes the log so two runs can be
compared with one string.

The injection *sites* are the runtime's hot failure surfaces
(:data:`SITES`); the instrumented production modules consult the
active plan through :mod:`repro.faultline.hooks`, which is a no-op
when no plan is active.  This layer injects *component* faults into
the analytics runtime; topology-level device failures are the job of
:mod:`repro.drtest`.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "SITES",
    "CheckpointKilled",
    "ColumnFoldCrash",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultToleranceError",
    "FaultlineError",
    "GridCellCrash",
    "InjectedFault",
    "JobWorkerCrash",
    "PartitionLost",
    "ShardWorkerCrash",
    "SurvivabilitySweepCrash",
]

#: Every named injection point, with the layer it lives in.
SITES = (
    # repro.io.read_records, the JSONL reader: the line is torn before
    # it is parsed.
    "io.jsonl.line",
    # ResultCache.lookup: the on-disk pickle is torn before the read.
    "cache.lookup",
    # ResultCache.store: the write tears mid-pickle; nothing published.
    "cache.store",
    # stream.checkpoint.save_checkpoint: killed between the tmp write
    # and the atomic rename.
    "checkpoint.save",
    # SEVStore write batches: transient sqlite3.OperationalError.
    "store.insert",
    # runtime.executor pooled column shards: a shard worker crashes.
    "executor.shard",
    # runtime.executor column batches: a column-batch fold raises
    # mid-batch; the executor falls back to the per-row reference
    # fold over the batch's records.
    "runtime.fold",
    # serve.jobs worker threads: a job crashes mid-execution.
    "serve.worker",
    # serve.jobs checkpoint: the jobs.json write tears mid-JSON;
    # nothing is published, the previous checkpoint survives.
    "serve.checkpoint",
    # repro.storage partition reads: the shard file vanishes (a lost
    # disk, an interrupted rsync) and the read raises PartitionLost.
    "storage.shard",
    # repro.storage manifest saves: the manifest.json write tears
    # mid-JSON, leaving a checksum-failing file behind.
    "storage.manifest",
    # repro.scenarios grid runner: one lattice cell crashes before its
    # result is produced; the runner retries it from a fresh
    # simulation.
    "grid.cell",
    # repro.survivability trial generation: one (design, trial) sweep
    # crashes before its records are produced; the generator retries
    # that trial once under suppression.
    "survivability.sweep",
)


class FaultlineError(RuntimeError):
    """Base class for everything repro.faultline raises."""


class InjectedFault(FaultlineError):
    """A simulated component failure raised at an injection site."""


class CheckpointKilled(InjectedFault):
    """Simulated process kill between checkpoint tmp-write and rename."""


class ShardWorkerCrash(InjectedFault):
    """Simulated crash of one pooled column-shard worker."""


class JobWorkerCrash(InjectedFault):
    """Simulated crash of one job-queue worker in repro.serve."""


class ColumnFoldCrash(InjectedFault):
    """Simulated failure of one columnar batch fold mid-batch."""


class GridCellCrash(InjectedFault):
    """Simulated crash of one what-if grid cell mid-execution."""


class SurvivabilitySweepCrash(InjectedFault):
    """Simulated crash of one survivability trial sweep mid-trial."""


class PartitionLost(InjectedFault):
    """Simulated loss of one partition shard in a tiered store.

    Carries the ``(year, region)`` key of the lost partition so the
    recovery path (:meth:`repro.storage.PartitionedSEVStore.restore`)
    knows which rows to re-ingest.
    """

    def __init__(self, message: str, key=None) -> None:
        super().__init__(message)
        self.key = key


class FaultToleranceError(FaultlineError):
    """The differential oracle's typed failure.

    Raised when a planned run diverges from the reference under an
    active fault plan, or dies on an injected fault its recovery path
    should have absorbed — never silently.
    """


@dataclass(frozen=True)
class FaultSpec:
    """How one site misbehaves.

    ``probability`` is the per-draw fire chance; ``max_fires`` bounds
    the total number of injections (``None`` = unbounded); ``skip``
    lets the first N draws through untouched, which pins a fault to a
    chosen point in the workload (e.g. "kill the *second* checkpoint
    save").
    """

    site: str
    probability: float = 1.0
    max_fires: Optional[int] = None
    skip: int = 0

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.max_fires is not None and self.max_fires < 0:
            raise ValueError("max_fires must be non-negative")
        if self.skip < 0:
            raise ValueError("skip must be non-negative")


@dataclass(frozen=True)
class FaultEvent:
    """One fired injection: which site, on which of its draws."""

    site: str
    draw: int


class FaultPlan:
    """Seeded decisions for a set of fault sites.

    Determinism contract: each site owns an RNG seeded by
    ``(seed, site)``, advanced only by that site's eligible draws, so
    a site's decision sequence depends on nothing but the plan seed
    and how often the workload reaches that site — never on what other
    sites did.
    """

    def __init__(self, seed: int, specs: Iterable[FaultSpec]) -> None:
        self.seed = seed
        self._specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site in self._specs:
                raise ValueError(f"duplicate spec for site {spec.site!r}")
            self._specs[spec.site] = spec
        self._rngs = {
            site: random.Random(f"faultline:{seed}:{site}")
            for site in self._specs
        }
        self._draws: Dict[str, int] = {site: 0 for site in self._specs}
        self._fired: Dict[str, int] = {site: 0 for site in self._specs}
        self._suppressed: Dict[str, int] = {}
        #: Every fired injection, in firing order.
        self.log: List[FaultEvent] = []

    @classmethod
    def default(
        cls,
        seed: int,
        sites: Optional[Sequence[str]] = None,
        probability: float = 0.25,
        max_fires: Optional[int] = 3,
    ) -> "FaultPlan":
        """A plan covering ``sites`` (default: all) uniformly."""
        chosen = tuple(sites) if sites is not None else SITES
        return cls(seed, [
            FaultSpec(site, probability=probability, max_fires=max_fires)
            for site in chosen
        ])

    @property
    def sites(self) -> List[str]:
        return sorted(self._specs)

    def should_fire(self, site: str) -> bool:
        """One draw at ``site``; True means the fault fires now."""
        spec = self._specs.get(site)
        if spec is None or self._suppressed.get(site, 0) > 0:
            return False
        draw = self._draws[site]
        self._draws[site] = draw + 1
        if draw < spec.skip:
            return False
        if spec.max_fires is not None and self._fired[site] >= spec.max_fires:
            return False
        fired = self._rngs[site].random() < spec.probability
        if fired:
            self._fired[site] += 1
            self.log.append(FaultEvent(site, draw))
        return fired

    def suppress(self, site: str) -> None:
        """Disable a site (re-entrant); recovery fallbacks use this so
        a retried code path cannot be re-broken by its own fault."""
        self._suppressed[site] = self._suppressed.get(site, 0) + 1

    def unsuppress(self, site: str) -> None:
        count = self._suppressed.get(site, 0)
        if count <= 0:
            raise ValueError(f"site {site!r} is not suppressed")
        self._suppressed[site] = count - 1

    def fired(self, site: Optional[str] = None) -> int:
        """How many injections fired (at one site, or overall)."""
        if site is not None:
            return self._fired.get(site, 0)
        return len(self.log)

    def draws(self, site: str) -> int:
        return self._draws.get(site, 0)

    def log_digest(self) -> str:
        """SHA-256 over the ordered fault log; equal digests mean two
        runs fired exactly the same faults at the same points."""
        payload = "\n".join(f"{e.site}:{e.draw}" for e in self.log)
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict:
        """JSON-able description of the plan and what it did."""
        return {
            "seed": self.seed,
            "specs": [
                {
                    "site": spec.site,
                    "probability": spec.probability,
                    "max_fires": spec.max_fires,
                    "skip": spec.skip,
                }
                for _, spec in sorted(self._specs.items())
            ],
            "fired": {site: self._fired[site] for site in sorted(self._specs)
                      if self._fired[site]},
            "log": [{"site": e.site, "draw": e.draw} for e in self.log],
            "log_digest": self.log_digest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultPlan seed={self.seed} sites={self.sites} "
                f"fired={len(self.log)}>")
