"""Whole-system lifecycle test.

Follows one failure end to end across every substrate, the way the
production stack of the paper wires them together:

firmware bug -> agent crash -> skipped heartbeat -> health alarm ->
remediation issue -> escalation -> technician ticket -> SEV authored
through the workflow -> visible to the analysis pipeline -> service
impact assessed over the topology.
"""

import pytest

from repro.incidents.query import SEVQuery
from repro.incidents.sev import RootCause, Severity
from repro.incidents.store import SEVStore
from repro.incidents.workflow import SEVAuthoringWorkflow, SEVDraft
from repro.remediation.engine import RemediationEngine
from repro.runtime import Executor, RunContext
from repro.runtime.analyses import RootCausesAnalysis
from repro.services.catalog import reference_catalog
from repro.services.impact import ImpactModel
from repro.services.placement import place_uniform
from repro.switchagent.agent import AgentCrash, SwitchAgent
from repro.switchagent.firmware import FirmwareBug, fboss_image
from repro.switchagent.monitor import HealthMonitor
from repro.topology.devices import DeviceType
from repro.topology.fabric import build_fabric_network
from repro.topology.graph import build_graph


@pytest.fixture()
def network():
    # Enough racks for the reference catalog's widest service (64
    # frontend-web replicas).
    return build_fabric_network("dc1", "ra", pods=2, racks_per_pod=36,
                                ssws=4, esws=2, cores=2)


def test_firmware_crash_to_sev_to_analysis(network):
    # 1. A fabric switch runs firmware with the port-disable crash bug.
    victim = next(network.devices_of_type(DeviceType.FSW)).name
    agent = SwitchAgent(
        device_name=victim,
        firmware=fboss_image(bugs=frozenset(
            {FirmwareBug.PORT_DISABLE_CRASH}
        )),
    )
    agent.enable_port(7)

    # 2. An engineer's port-disable triggers the crash (the 4.2 SEV3).
    with pytest.raises(AgentCrash):
        agent.disable_port(7)

    # 3. The central monitor notices the skipped heartbeat.
    monitor = HealthMonitor(heartbeat_timeout_h=0.5)
    alarms = monitor.scan([agent], now_h=1.0)
    assert len(alarms) == 1

    # 4. The alarm enters the remediation engine.  Force escalation
    #    (zero automated success) to model the pre-fix recurrences that
    #    make this a reportable incident rather than a masked blip.
    engine = RemediationEngine(
        success_ratio={DeviceType.FSW: 0.0}, seed=1
    )
    monitor.submit_alarm(engine, alarms[0], issue_id="iss-000001")
    engine.drain()
    stats = engine.stats(DeviceType.FSW)
    assert stats.escalated == 1
    assert len(engine.tickets) == 1

    # 5. The responding engineer authors a SEV through the workflow.
    store = SEVStore()
    workflow = SEVAuthoringWorkflow(store)
    ticket = list(engine.tickets)[0]
    report = workflow.author_and_publish(SEVDraft(
        severity=Severity.SEV3,
        device_name=ticket.device_name,
        opened_at_h=ticket.opened_at_h,
        resolved_at_h=ticket.opened_at_h + 120.0,
        root_causes=[RootCause.BUG],
        description="Switch crash from software bug: hardware counter "
                    "allocation failed while disabling a port.",
        service_impact="Contained by fabric path diversity.",
    ))

    # 6. The analysis pipeline sees the incident with the right shape.
    query = SEVQuery(store)
    assert query.count_by_type()[DeviceType.FSW] == 1
    breakdown = Executor().run(
        [RootCausesAnalysis()], RunContext(store=store)
    )["root_causes"]
    assert breakdown.counts[RootCause.BUG] == 1
    assert store.get(report.sev_id).device_type is DeviceType.FSW

    # 7. The service layer confirms the published masking story: one
    #    FSW crash never surfaces to services.
    catalog = reference_catalog()
    placement = place_uniform(catalog, network)
    impact = ImpactModel(catalog, placement, build_graph(network))
    assessment = impact.assess([victim])
    assert assessment.fully_masked

    # 8. And the fix: upgrading firmware removes the crash path.
    agent.restart(now_h=2.0)
    agent.upgrade_firmware(fboss_image((1, 0, 1)), now_h=2.0)
    agent.enable_port(7)
    agent.disable_port(7)
    assert agent.ports_enabled[7] is False
    store.close()


def test_settings_drift_repaired_without_incident(network):
    """The masked path: drift -> alarm -> automated repair, no SEV."""
    victim = next(network.devices_of_type(DeviceType.RSW)).name
    expected = {"bgp": "v2", "mtu": "9000"}
    agent = SwitchAgent(device_name=victim, firmware=fboss_image())
    agent.settings.update({"bgp": "v1", "mtu": "9000"})

    monitor = HealthMonitor(expected_settings=expected,
                            golden_settings=expected)
    alarms = monitor.scan([agent], now_h=1.0)
    assert len(alarms) == 1

    assert monitor.repair(agent, alarms[0], now_h=1.0)
    assert agent.settings_consistent(expected)
    # A clean follow-up sweep: nothing to report, no incident — the
    # vast majority of issues end here (section 4.1.1).
    assert monitor.scan([agent], now_h=1.1) == []
