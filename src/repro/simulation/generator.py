"""The intra data center corpus generator.

Turns an :class:`~repro.simulation.scenarios.IntraScenario` into a
seven-year SEV corpus by way of the same substrates the production
pipeline uses: incidents are authored through the SEV workflow into
the store the caller passes (a SQLite
:class:`~repro.incidents.store.SEVStore`, or the in-memory
:class:`~repro.incidents.memory.ReportSink` a generated corpus is
folded from), and (in engine-coupled mode) raw device issues pass
through the automated remediation engine first, with only the
escalations becoming SEVs — exactly the filtering described in
section 4.1.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.incidents.sev import RootCause, Severity, SEVReport, hours_of_year
from repro.incidents.store import SEVStore
from repro.incidents.workflow import SEVAuthoringWorkflow, SEVDraft
from repro.remediation.engine import DeviceIssue, RemediationEngine
from repro.simulation.clock import HOURS_PER_YEAR, SimClock
from repro.simulation.failures import (
    deterministic_times,
    interleave_categories,
    largest_remainder_allocation,
)
from repro.simulation.scenarios import IntraScenario
from repro.topology.devices import DeviceType

_IMPACTS = {
    Severity.SEV3: "Redundant systems contained the failure; minimal "
                   "customer impact.",
    Severity.SEV2: "Regional network impairment; a feature degraded while "
                   "traffic shifted to alternate devices.",
    Severity.SEV1: "Widespread outage; major portions of the site were "
                   "unavailable until traffic was rerouted.",
}

#: Several report phrasings per cause: real postmortems do not share a
#: template, and the root-cause label audit should not be trivially
#: keyed to one sentence.
_DESCRIPTIONS = {
    RootCause.MAINTENANCE: (
        "Maintenance window went wrong while upgrading device "
        "software/firmware.",
        "A firmware update during a scheduled maintenance left the "
        "device in a bad state.",
        "Operators began a drain for routine maintenance and traffic "
        "shifted before the drain completed.",
    ),
    RootCause.HARDWARE: (
        "Faulty hardware module caused traffic to drop.",
        "A failing memory module corrupted forwarding state.",
        "A degraded optic flapped until the faulty port was replaced.",
    ),
    RootCause.CONFIGURATION: (
        "An unintended routing configuration blocked production traffic.",
        "A config change shipped a routing rule that dropped production "
        "prefixes.",
        "A load balancing policy concentrated traffic after a "
        "misconfigured update.",
    ),
    RootCause.BUG: (
        "A logical error in the switching software triggered a crash.",
        "A firmware bug caused a crash when the software disabled a "
        "port (hardware counter allocation failed).",
        "A race condition in the agent caused a crash under churn.",
    ),
    RootCause.ACCIDENTS: (
        "The wrong network device was power cycled during an operation.",
        "A technician accidentally disconnected the wrong device while "
        "recabling.",
        "An unintended action during a rack move took the device down.",
    ),
    RootCause.CAPACITY: (
        "Load exceeded provisioned capacity after a shift in traffic.",
        "Insufficient capacity planning left the device overloaded at "
        "peak; congestion followed.",
        "Web tier exhausted headroom when traffic shifted; high load "
        "persisted until capacity was added.",
    ),
    RootCause.UNDETERMINED: (
        "Transient, isolated incident; engineers reported on symptoms "
        "only.",
        "Symptoms cleared before a cause could be established.",
        "Brief connectivity blip; investigation was inconclusive.",
    ),
}


@dataclass
class RemediationMonthResult:
    """Outcome of a one-month remediation simulation (section 4.1.2/3)."""

    year: int
    month: int
    engine: RemediationEngine
    issues_per_type: Dict[DeviceType, int]

    def repair_ratio(self, device_type: DeviceType) -> float:
        return self.engine.stats(device_type).repair_ratio

    def escalation_one_in(self, device_type: DeviceType) -> float:
        return self.engine.stats(device_type).escalation_one_in


class IntraSimulator:
    """Generates the seven-year intra data center SEV corpus."""

    def __init__(self, scenario: IntraScenario) -> None:
        self._scenario = scenario
        self._rng = random.Random(scenario.seed)

    # -- corpus generation -------------------------------------------------

    def run(self, store: Optional[SEVStore] = None) -> SEVStore:
        """Generate the calibrated corpus: counts are exact.

        Every (year, type) cell of the scenario becomes exactly that
        many SEVs, with severities and root causes apportioned by
        largest remainder so the published mixes are met exactly up to
        integer rounding.  The reports are published into ``store``
        (a fresh in-memory :class:`SEVStore` when None; the workflow
        reads only its ``len()`` and ``insert_many``, so a
        :class:`~repro.incidents.memory.ReportSink` serves too), which
        is returned.
        """
        # ``is None``, not truthiness: an empty caller-built store
        # (e.g. a thread-shared one from repro.serve) has len() == 0
        # and must not be silently replaced.
        store = SEVStore() if store is None else store
        workflow = SEVAuthoringWorkflow(store)
        for year in self._scenario.years:
            for device_type in sorted(
                self._scenario.incident_counts[year],
                key=lambda t: t.value,
            ):
                count = self._scenario.incident_counts[year][device_type]
                self._emit_type_year(workflow, year, device_type, count)
        return store

    def run_with_engine(
        self,
        engine: RemediationEngine,
        store: Optional[SEVStore] = None,
    ) -> SEVStore:
        """Generate the corpus with remediation in the loop.

        For device types covered by automated repair (from the
        scenario's ``automated_repair_year`` on), the generator emits
        *raw issues* at the rate implied by the published repair
        ratios and lets the engine decide which escalate into SEVs.
        Disabling the engine therefore reproduces the pre-automation
        world where every issue needs a human — the ablation for the
        section 5.6 claim.
        """
        # ``is None``, not truthiness: an empty caller-built store
        # (e.g. a thread-shared one from repro.serve) has len() == 0
        # and must not be silently replaced.
        store = SEVStore() if store is None else store
        workflow = SEVAuthoringWorkflow(store)
        issue_seq = 0
        for year in self._scenario.years:
            for device_type in sorted(
                self._scenario.incident_counts[year],
                key=lambda t: t.value,
            ):
                count = self._scenario.incident_counts[year][device_type]
                success = self._scenario.repair_success.get(device_type)
                automated = (
                    success is not None
                    and year >= self._scenario.automated_repair_year
                    and device_type.supports_automated_repair
                )
                if not automated:
                    self._emit_type_year(workflow, year, device_type, count)
                    continue
                raw = int(round(count / max(1.0 - success, 1e-6)))
                times = deterministic_times(
                    raw, hours_of_year(year),
                    hours_of_year(year) + HOURS_PER_YEAR, self._rng,
                )
                escalated_times = []
                for t in times:
                    issue = DeviceIssue(
                        issue_id=f"iss-{issue_seq:07d}",
                        device_name=self._device_name(device_type, year),
                        device_type=device_type,
                        raised_at_h=t,
                        kind=engine.sample_issue_kind(),
                    )
                    issue_seq += 1
                    if not engine.handle(issue):
                        escalated_times.append(t)
                self._emit_at_times(
                    workflow, year, device_type, escalated_times
                )
        return store

    # -- the April 2018 remediation month (Table 1) --------------------------

    def simulate_remediation_month(
        self,
        engine: Optional[RemediationEngine] = None,
        year: int = 2018,
        month: int = 4,
        issues_per_type: Optional[Dict[DeviceType, int]] = None,
    ) -> RemediationMonthResult:
        """Run one month of raw issues through the remediation engine.

        Default volumes give every type enough issues for the Table 1
        ratios to resolve (RSW escalates ~1 in 397, so thousands of
        RSW issues are needed to observe the ratio).
        """
        engine = engine or RemediationEngine(
            success_ratio=self._scenario.repair_success or None,
            seed=self._scenario.seed,
        )
        issues_per_type = issues_per_type or {
            DeviceType.RSW: 4000,
            DeviceType.FSW: 2200,
            DeviceType.CORE: 400,
        }
        start_h, end_h = SimClock.month_window(year, month)
        issue_seq = 0
        for device_type in sorted(issues_per_type, key=lambda t: t.value):
            count = issues_per_type[device_type]
            for t in deterministic_times(count, start_h, end_h, self._rng):
                engine.submit(
                    DeviceIssue(
                        issue_id=f"month-{issue_seq:07d}",
                        device_name=self._device_name(device_type, year),
                        device_type=device_type,
                        raised_at_h=t,
                        kind=engine.sample_issue_kind(),
                    )
                )
                issue_seq += 1
        engine.drain()
        return RemediationMonthResult(
            year=year, month=month, engine=engine,
            issues_per_type=dict(issues_per_type),
        )

    # -- internals -----------------------------------------------------------

    def _emit_type_year(
        self,
        workflow: SEVAuthoringWorkflow,
        year: int,
        device_type: DeviceType,
        count: int,
    ) -> None:
        times = deterministic_times(
            count, hours_of_year(year),
            hours_of_year(year) + HOURS_PER_YEAR, self._rng,
        )
        self._emit_at_times(workflow, year, device_type, times)

    def _emit_at_times(
        self,
        workflow: SEVAuthoringWorkflow,
        year: int,
        device_type: DeviceType,
        times: List[float],
    ) -> None:
        drafts = [
            SEVDraft(severity=severity, device_name=name, opened_at_h=t,
                     resolved_at_h=end, root_causes=[cause],
                     description=text, service_impact=_IMPACTS[severity])
            for severity, cause, name, t, end, text in _draw_incidents(
                self._rng, self._scenario, year, device_type, times
            )
        ]
        # One commit per (year, device type) cell.
        if drafts:
            workflow.publish_many(drafts)

    def _device_name(self, device_type: DeviceType, year: int) -> str:
        return _random_device_name(
            self._rng, device_type, year, self._scenario.fabric_year
        )


def _draw_incidents(
    rng: random.Random,
    scenario: IntraScenario,
    year: int,
    device_type: DeviceType,
    times: List[float],
) -> Iterator[tuple]:
    """The draws of one (year, device type) cell, one incident at a time.

    Severities and root causes are apportioned by largest remainder
    and interleaved; then each incident draws a lognormal duration, a
    device name and a description, in that order.  Yields ``(severity,
    cause, device name, opened at, resolved at, description)``; an
    empty cell draws nothing.
    """
    if not times:
        return
    count = len(times)
    severities = interleave_categories(
        largest_remainder_allocation(
            count, scenario.severity_mix[device_type]
        ),
        rng,
    )
    causes = interleave_categories(
        largest_remainder_allocation(count, scenario.root_cause_mix),
        rng,
    )
    mu = scenario.irt_mu(year)
    for t, severity, cause in zip(times, severities, causes):
        # Cap pathological tail draws at a year: the paper notes
        # occasional months-long recoveries, not multi-year ones.
        duration = min(
            math.exp(rng.gauss(mu, scenario.irt_sigma)), HOURS_PER_YEAR
        )
        name = _random_device_name(
            rng, device_type, year, scenario.fabric_year
        )
        yield (severity, cause, name, t, t + duration,
               rng.choice(_DESCRIPTIONS[cause]))


def _random_device_name(
    rng: random.Random, device_type: DeviceType, year: int, fabric_year: int
) -> str:
    if device_type.is_fabric or (
        device_type is DeviceType.RSW
        and year >= fabric_year
        and rng.random() < 0.5
    ):
        unit = f"pod{rng.randrange(16)}"
    elif device_type is DeviceType.CORE:
        unit = "plane"
    else:
        unit = f"cluster{rng.randrange(16)}"
    dc = f"dc{rng.randrange(1, 13)}"
    region = f"region{rng.choice('abcdefgh')}"
    index = rng.randrange(1000)
    return f"{device_type.value}.{index:03d}.{unit}.{dc}.{region}"


# ---------------------------------------------------------------------------
# Per-cell streaming generation (repro.stream)
# ---------------------------------------------------------------------------
#
# The batch generator above consumes one RNG sequentially across the
# whole corpus, so its output cannot be partitioned across workers
# without changing.  The streaming/sharded path instead derives an
# independent RNG per (year, device type) cell from the scenario seed,
# which makes every cell reproducible in isolation: a shard can
# generate any subset of cells and the union is always the same
# corpus, regardless of how many workers produced it.  Cell counts,
# severity mixes, and root-cause mixes are identical to the batch
# generator's (both are largest-remainder exact), so count-based
# analyses agree exactly between the two corpora.


def cell_seed(seed: int, year: int, device_type: DeviceType) -> int:
    """A stable per-cell RNG seed (independent of PYTHONHASHSEED)."""
    key = f"{seed}:{year}:{device_type.value}".encode()
    return int.from_bytes(
        hashlib.blake2s(key, digest_size=8).digest(), "big"
    )


def cell_reports(
    scenario: IntraScenario, year: int, device_type: DeviceType
) -> List[SEVReport]:
    """Generate one (year, device type) cell of the corpus.

    Deterministic given (scenario.seed, year, device_type) alone, so
    cells can be generated in any order, in any process, and merged.
    Reports come back sorted by ``opened_at_h``.
    """
    count = scenario.incident_counts.get(year, {}).get(device_type, 0)
    if count == 0:
        return []
    rng = random.Random(cell_seed(scenario.seed, year, device_type))
    start_h = hours_of_year(year)
    times = deterministic_times(
        count, start_h, start_h + HOURS_PER_YEAR, rng
    )
    return [
        SEVReport(
            sev_id=f"strm-{year}-{device_type.value}-{sequence:05d}",
            severity=severity, device_name=name, opened_at_h=t,
            resolved_at_h=end, root_causes=(cause,), description=text,
            service_impact=_IMPACTS[severity],
        )
        for sequence, (severity, cause, name, t, end, text) in enumerate(
            _draw_incidents(rng, scenario, year, device_type, times)
        )
    ]


def scenario_cells(scenario: IntraScenario) -> List[tuple]:
    """All non-empty (year, device type) cells, in a canonical order."""
    return [
        (year, device_type)
        for year in scenario.years
        for device_type in sorted(
            scenario.incident_counts[year], key=lambda t: t.value
        )
        if scenario.incident_counts[year][device_type] > 0
    ]


def iter_scenario_reports(scenario: IntraScenario) -> Iterator[SEVReport]:
    """The whole streaming corpus as one chronological event feed.

    This is the "live feed" of the streaming runtime: SEVs arrive in
    ``opened_at_h`` order, exactly as a subscriber tailing the SEV
    database would see them.
    """
    streams = [
        iter(cell_reports(scenario, year, device_type))
        for year, device_type in scenario_cells(scenario)
    ]
    return heapq.merge(
        *streams, key=lambda r: (r.opened_at_h, r.sev_id)
    )
