"""Fault injection and disaster recovery testing.

Section 5.7: "At Facebook, we run periodical tests, including both
fault injection testing and disaster recovery testing, to exercise the
reliability of our production systems by simulating different types of
network failures, such as device outages and disconnection of an
entire data center."

This package implements that test harness over the topology and
service-impact substrates: single-device fault injection sweeps,
correlated-failure storms, and the full drain-a-datacenter drill.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.drtest.injector": ("FaultInjector", "InjectionResult"),
    "repro.drtest.drills": (
        "DatacenterDrainDrill", "DrillOutcome", "StormDrill",
    ),
})
