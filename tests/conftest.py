"""Shared fixtures.

The calibrated corpora are expensive enough to build once per session;
tests that mutate state build their own objects.
"""

from __future__ import annotations

import pytest

from repro.backbone.monitor import BackboneMonitor
from repro.core.backbone_reliability import reliability_from_outages
from repro.fleet.employees import paper_employees
from repro.fleet.population import paper_fleet
from repro.runtime import RunContext, run_intra_report
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario


@pytest.fixture(scope="session")
def fleet():
    return paper_fleet()


@pytest.fixture(scope="session")
def employees():
    return paper_employees()


@pytest.fixture(scope="session")
def paper_store():
    """The calibrated seven-year SEV corpus."""
    return IntraSimulator(paper_scenario()).run()


@pytest.fixture(scope="session")
def paper_context(paper_store, fleet):
    return RunContext(store=paper_store, fleet=fleet)


@pytest.fixture(scope="session")
def paper_report(paper_context):
    """Every intra artifact of the calibrated corpus, one executor run."""
    return run_intra_report(paper_context)


@pytest.fixture(scope="session")
def backbone_corpus():
    """The calibrated eighteen-month backbone corpus."""
    return BackboneSimulator(paper_backbone_scenario()).run()


@pytest.fixture(scope="session")
def backbone_monitor(backbone_corpus):
    return BackboneMonitor(backbone_corpus.topology, backbone_corpus.tickets)


@pytest.fixture(scope="session")
def reliability(backbone_corpus, backbone_monitor):
    return reliability_from_outages(
        backbone_monitor.failures_by_edge(),
        backbone_monitor.outages_by_vendor(),
        backbone_corpus.window_h,
    )
