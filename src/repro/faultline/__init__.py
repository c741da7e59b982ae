"""repro.faultline — deterministic fault injection + differential testing.

Three layers:

:mod:`~repro.faultline.plan`
    :class:`FaultPlan`/:class:`FaultSpec` — seedable, replayable
    decisions about which named injection site fires on which draw,
    with a hashable fault log.
:mod:`~repro.faultline.hooks`
    the registry the instrumented production modules consult (a no-op
    when no plan is active) plus the :func:`~repro.faultline.hooks.injected`
    activation context manager.
:mod:`~repro.faultline.oracle` / :mod:`~repro.faultline.drills`
    the differential-testing oracle (the planned path == the per-row
    reference fold under an active plan, or a typed
    :class:`FaultToleranceError`) and the
    ``python -m repro chaos`` drill suite built on it.

``plan`` and ``hooks`` import only the standard library, so every
runtime layer can depend on them without cycles; the oracle and drills
(which import the runtime) load lazily via module ``__getattr__``.
"""

from repro.faultline.hooks import active_plan, fire, injected, suppressed
from repro.faultline.plan import (
    SITES,
    CheckpointKilled,
    FaultEvent,
    FaultPlan,
    FaultSpec,
    FaultToleranceError,
    FaultlineError,
    GridCellCrash,
    InjectedFault,
    JobWorkerCrash,
    PartitionLost,
    ShardWorkerCrash,
    SurvivabilitySweepCrash,
)

__all__ = [
    "SITES",
    "CheckpointKilled",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultToleranceError",
    "FaultlineError",
    "GridCellCrash",
    "InjectedFault",
    "JobWorkerCrash",
    "OracleReport",
    "PartitionLost",
    "PlanRun",
    "ShardWorkerCrash",
    "SurvivabilitySweepCrash",
    "active_plan",
    "chaos_suite",
    "fire",
    "injected",
    "report_digest",
    "run_differential",
    "suppressed",
]

_LAZY = {
    "OracleReport": "repro.faultline.oracle",
    "PlanRun": "repro.faultline.oracle",
    "report_digest": "repro.faultline.oracle",
    "run_differential": "repro.faultline.oracle",
    "chaos_suite": "repro.faultline.drills",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
