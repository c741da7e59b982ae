"""Pipeline throughput at corpus scale.

Not a paper artifact — an engineering benchmark: how fast the full
generate-and-analyze pipeline runs as the corpus scales, so regressions
in the substrates (workflow, SQLite store, SQL analysis) are visible.
"""

import pytest

from repro.runtime import Executor, RunContext
from repro.runtime.analyses import (
    RootCausesAnalysis,
    SwitchReliabilityAnalysis,
)
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario


def generate_and_analyze(scale: float):
    scenario = paper_scenario(seed=2, scale=scale)
    store = IntraSimulator(scenario).run()
    results = Executor().run(
        [RootCausesAnalysis(), SwitchReliabilityAnalysis()],
        RunContext(store=store, fleet=scenario.fleet),
    )
    return store, results["root_causes"], results["switch_reliability"]


@pytest.mark.parametrize("scale", [0.25, 1.0])
def test_scaling(benchmark, scale):
    store, breakdown, reliability = benchmark.pedantic(
        generate_and_analyze, args=(scale,), rounds=3, iterations=1,
    )
    assert len(store) == pytest.approx(2240 * scale, rel=0.05)
    assert breakdown.total_attributions == len(store)
    assert 2017 in reliability.mtbi_h
