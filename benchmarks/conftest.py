"""Benchmark fixtures.

Every bench regenerates one of the paper's tables or figures from the
calibrated synthetic corpus, times the analysis with pytest-benchmark,
asserts the published shape, and writes the rendered artifact to
``benchmarks/out/`` for side-by-side comparison with the paper.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.backbone.monitor import BackboneMonitor
from repro.core.backbone_reliability import reliability_from_outages
from repro.fleet.employees import paper_employees
from repro.fleet.population import paper_fleet
from repro.runtime import RunContext
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def fleet():
    return paper_fleet()


@pytest.fixture(scope="session")
def employees():
    return paper_employees()


@pytest.fixture(scope="session")
def paper_store():
    return IntraSimulator(paper_scenario()).run()


@pytest.fixture(scope="session")
def paper_context(paper_store, fleet):
    return RunContext(store=paper_store, fleet=fleet)


@pytest.fixture(scope="session")
def backbone_corpus():
    return BackboneSimulator(paper_backbone_scenario()).run()


@pytest.fixture(scope="session")
def backbone_context(backbone_corpus):
    return RunContext(
        tickets=backbone_corpus.tickets, topology=backbone_corpus.topology,
        window_h=backbone_corpus.window_h,
    )


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


@pytest.fixture(scope="session")
def emit():
    """Write a rendered artifact under benchmarks/out/ and echo it."""
    OUT_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n[{name}]\n{text}")

    return _emit
