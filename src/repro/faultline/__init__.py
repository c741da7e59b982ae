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
runtime layer can depend on them without cycles.  Like every ``repro``
package, this one imports nothing until an export is first read (see
:mod:`repro._lazy`), so the oracle and drills, which import the
runtime, load only when asked for.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.faultline.hooks": ("active_plan", "fire", "injected", "suppressed"),
    "repro.faultline.plan": (
        "SITES", "CheckpointKilled", "FaultEvent", "FaultPlan", "FaultSpec",
        "FaultToleranceError", "FaultlineError", "GridCellCrash",
        "InjectedFault", "JobWorkerCrash", "PartitionLost", "ShardWorkerCrash",
        "SurvivabilitySweepCrash",
    ),
    "repro.faultline.oracle": (
        "OracleReport", "PlanRun", "report_digest", "run_differential",
    ),
    "repro.faultline.drills": ("chaos_suite",),
})
