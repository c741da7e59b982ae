"""Ablation — shifting the fabric rollout year (section 5.5).

The Figure 9/10 inflection tracks the deployment: moving the rollout
from 2015 to 2016 moves the first fabric incidents, and the cluster
series keeps its shape.

Both rollout years are cells of one declarative what-if grid (the
``fabric_year`` axis over the paper preset) rather than bespoke
scenario constructors, so the bench exercises the same expansion,
digesting, and caching path as ``python -m repro grid run``.
"""

from repro.runtime import Executor, RunContext
from repro.runtime.analyses import DesignComparisonAnalysis
from repro.scenarios import GridRunner, GridSpec, preset
from repro.simulation.generator import IntraSimulator
from repro.topology.devices import NetworkDesign
from repro.viz.tables import format_table

GRID = GridSpec(
    base=preset("paper").with_updates(seed=8),
    axes={"fabric_year": [2015, 2016]},
)


def run_grid():
    return GridRunner().run(GRID)


def test_ablation_fabric_rollout(benchmark, emit):
    report = benchmark(run_grid)

    by_year = {
        cell["params"]["fabric_year"]: cell for cell in report["cells"]
    }
    assert set(by_year) == {2015, 2016}
    assert (by_year[2015]["report_digest"]
            != by_year[2016]["report_digest"])

    comparison = {}
    for cell in GRID.cells():
        scenario = cell.spec.materialize()
        store = IntraSimulator(scenario).run()
        comparison[int(cell.spec.fabric_year)] = Executor().run(
            [DesignComparisonAnalysis()],
            RunContext(store=store, fleet=scenario.fleet),
        )["design_comparison"]
    baseline = comparison[2015]
    shifted = comparison[2016]

    rows = [
        [year,
         shifted.count(year, NetworkDesign.CLUSTER),
         shifted.count(year, NetworkDesign.FABRIC)]
        for year in shifted.years
    ]
    emit("ablation_fabric_rollout", format_table(
        ["Year", "Cluster incidents", "Fabric incidents"],
        rows,
        title="Ablation: fabric rollout shifted from 2015 to 2016",
    ))

    # No fabric incidents before the shifted rollout year.
    for year in (2011, 2012, 2013, 2014, 2015):
        assert shifted.count(year, NetworkDesign.FABRIC) == 0
    assert shifted.count(2016, NetworkDesign.FABRIC) > 0
    # The first-year fabric volume matches the original rollout's
    # first year (the trajectory shifts rather than rescales).
    assert (shifted.count(2016, NetworkDesign.FABRIC)
            == baseline.count(2015, NetworkDesign.FABRIC))
