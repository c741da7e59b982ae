"""Ablation — the 2015 drain-before-maintenance practice (section 5.6).

"These operational improvements increased CSA MTBI by two orders of
magnitude between 2014 and 2016."  Without the practice, CSA incidents
keep scaling with the 2014 per-device rate and the MTBI improvement
disappears.

Both arms are cells of one declarative what-if grid (the
``drain_policy`` axis over the paper preset) rather than bespoke
scenario constructors, so the bench exercises the same expansion,
digesting, and caching path as ``python -m repro grid run``.
"""

from repro.runtime import Executor, RunContext
from repro.runtime.analyses import SwitchReliabilityAnalysis
from repro.scenarios import GridRunner, GridSpec, preset
from repro.simulation.generator import IntraSimulator
from repro.topology.devices import DeviceType
from repro.viz.tables import format_table

GRID = GridSpec(
    base=preset("paper").with_updates(seed=8),
    axes={"drain_policy": [True, False]},
)


def run_grid():
    return GridRunner().run(GRID)


def test_ablation_drain_policy(benchmark, emit):
    report = benchmark(run_grid)

    # The grid's two cells are the ablation's two arms; their reports
    # must differ (the knob is live) under one shared summary digest.
    by_drain = {
        cell["params"]["drain_policy"]: cell for cell in report["cells"]
    }
    assert set(by_drain) == {True, False}
    assert (by_drain[True]["report_digest"]
            != by_drain[False]["report_digest"])

    reliability = {}
    for cell in GRID.cells():
        scenario = cell.spec.materialize()
        store = IntraSimulator(scenario).run()
        reliability[cell.spec.drain_policy] = Executor().run(
            [SwitchReliabilityAnalysis()],
            RunContext(store=store, fleet=scenario.fleet),
        )["switch_reliability"]
    with_drain = reliability[True]
    without_drain = reliability[False]

    rows = []
    for year in (2014, 2015, 2016, 2017):
        rows.append([
            year,
            f"{with_drain.mtbi(year, DeviceType.CSA):.3g}",
            f"{without_drain.mtbi(year, DeviceType.CSA):.3g}",
        ])
    emit("ablation_drain_policy", format_table(
        ["Year", "CSA MTBI with drain policy (h)",
         "CSA MTBI without (h)"],
        rows,
        title="Ablation: drain-before-maintenance practice (2015)",
    ))

    # With the practice: an order-of-magnitude-plus MTBI improvement.
    improvement = (with_drain.mtbi(2016, DeviceType.CSA)
                   / with_drain.mtbi(2014, DeviceType.CSA))
    assert improvement > 10
    # Without it: the improvement largely disappears.
    stagnation = (without_drain.mtbi(2016, DeviceType.CSA)
                  / without_drain.mtbi(2014, DeviceType.CSA))
    assert stagnation < improvement / 5
