"""Tests for the what-if grid runner (:mod:`repro.scenarios.grid`).

The acceptance contract: a grid cell's report digest is bit-identical
to running the same spec standalone on every execution path; a warm re-run
is pure cell-cache hits with an unchanged summary digest; a crashed
cell retries once and converges; and the CLI / serve surfaces expose
the same expansion.
"""

import json

import pytest

from repro.cli import main
from repro.faultline import FaultPlan, FaultSpec, GridCellCrash, hooks
from repro.faultline.oracle import report_digest
from repro.runtime import (
    Executor,
    ResultCache,
    RunContext,
    intra_report_analyses,
    intra_report_from,
    reference_fold,
    run_intra_report,
)
from repro.scenarios import (
    GridRunner,
    GridSpec,
    ScenarioError,
    grid_diff,
    preset,
    spec_from_dict,
)
from repro.simulation.generator import IntraSimulator

BASE = preset("paper").with_updates(seed=4, scale=0.1)
AXES = {"fabric_year": [2015, 2016], "hazard.CORE": [1.0, 1.5]}


def small_grid():
    return GridSpec(base=BASE, axes=AXES)


class TestExpansion:
    def test_cell_count_and_order(self):
        grid = small_grid()
        assert grid.cell_count() == 4
        cells = grid.cells()
        assert [c.index for c in cells] == [0, 1, 2, 3]
        # sorted-path-major: fabric_year varies slowest.
        assert [c.overrides["fabric_year"] for c in cells] == [
            2015, 2015, 2016, 2016,
        ]

    def test_cells_carry_distinct_digests(self):
        digests = {c.spec.digest() for c in small_grid().cells()}
        assert len(digests) == 4

    def test_dotted_path_reaches_nested_knob(self):
        cell = small_grid().cells()[1]
        assert cell.spec.hazard["CORE"] == 1.5

    def test_grid_digest_stable(self):
        assert small_grid().digest() == small_grid().digest()

    def test_empty_axes_rejected(self):
        with pytest.raises(ScenarioError):
            GridSpec(base=BASE, axes={})
        with pytest.raises(ScenarioError):
            GridSpec(base=BASE, axes={"fabric_year": []})

    def test_invalid_cell_value_rejected_at_expansion(self):
        with pytest.raises(ScenarioError):
            GridSpec(base=BASE, axes={"scale": [-1.0]})


def _columnar_report(context):
    return intra_report_from(Executor(batch_size=64).run(
        intra_report_analyses(), context,
        source=context.store.all_reports(),
    ))


#: Standalone runs a grid cell must reproduce: the plan's SQL
#: ("batch"), the per-row reference fold ("stream"), the plan at two
#: jobs ("sharded"), and the store's rows as column batches
#: ("columnar").
STANDALONE = {
    "batch": run_intra_report,
    "stream": lambda context: intra_report_from(
        reference_fold(intra_report_analyses(), context)
    ),
    "sharded": lambda context: run_intra_report(context, jobs=2),
    "columnar": _columnar_report,
}


class TestRunner:
    @pytest.mark.parametrize(
        "backend,kwargs",
        [
            ("batch", {}),
            ("stream", {}),
            ("sharded", {"jobs": 2}),
            ("columnar", {}),
        ],
    )
    def test_cell_equals_standalone(self, backend, kwargs):
        grid = GridSpec(base=BASE, axes={"fabric_year": [2015, 2016]})
        report = GridRunner(**kwargs).run(grid)
        for cell in grid.cells():
            scenario = cell.spec.materialize()
            standalone = report_digest(STANDALONE[backend](
                RunContext(
                    store=IntraSimulator(scenario).run(),
                    fleet=scenario.fleet,
                    corpus_seed=scenario.seed,
                    scenario_digest=scenario.spec_digest,
                ),
            ))
            assert (report["cells"][cell.index]["report_digest"]
                    == standalone)

    def test_summary_digest_identical_across_backends(self):
        # Across worker counts: the plan at one and two jobs.
        grid = small_grid()
        digests = {
            GridRunner(jobs=jobs).run(grid)["summary_digest"]
            for jobs in (1, 2)
        }
        assert len(digests) == 1

    def test_warm_rerun_is_all_cache_hits(self):
        grid = small_grid()
        cache = ResultCache()
        first = GridRunner(cache=cache).run(grid)
        runner = GridRunner(cache=cache)
        second = runner.run(grid)
        assert runner.cell_hits == grid.cell_count()
        assert runner.cell_misses == 0
        assert second["summary_digest"] == first["summary_digest"]

    def test_overlapping_grids_share_cells(self):
        cache = ResultCache()
        GridRunner(cache=cache).run(
            GridSpec(base=BASE, axes={"fabric_year": [2015, 2016]})
        )
        runner = GridRunner(cache=cache)
        runner.run(
            GridSpec(base=BASE, axes={"fabric_year": [2016, 2017]})
        )
        assert runner.cell_hits == 1
        assert runner.cell_misses == 1

    def test_crashed_cell_retries_and_converges(self):
        grid = GridSpec(base=BASE, axes={"fabric_year": [2015, 2016]})
        baseline = GridRunner().run(grid)
        plan = FaultPlan(11, [
            FaultSpec("grid.cell", probability=1.0, max_fires=2),
        ])
        runner = GridRunner()
        with hooks.injected(plan):
            faulted = runner.run(grid)
        assert plan.fired() == 2
        assert runner.cell_retries == 2
        assert faulted["summary_digest"] == baseline["summary_digest"]

    def test_grid_cell_crash_is_injected_fault(self):
        from repro.faultline.plan import InjectedFault

        assert issubclass(GridCellCrash, InjectedFault)

    def test_backbone_grid(self):
        base = preset("paper_backbone").with_updates(seed=9)
        grid = GridSpec(base=base, axes={"links_per_edge": [3, 4]})
        report = GridRunner().run(grid)
        assert len(report["cells"]) == 2
        links = [c["metrics"]["links"] for c in report["cells"]]
        assert links[0] < links[1]


class TestDiff:
    def test_identical(self):
        grid = small_grid()
        left = GridRunner().run(grid)
        right = GridRunner(jobs=2).run(grid)
        diff = grid_diff(left, right)
        assert diff["identical"]
        assert not diff["changed"]

    def test_changed_and_disjoint_cells(self):
        left = GridRunner().run(
            GridSpec(base=BASE, axes={"fabric_year": [2015, 2016]})
        )
        right = GridRunner().run(
            GridSpec(
                base=BASE.with_updates(growth=1.2),
                axes={"fabric_year": [2015, 2017]},
            )
        )
        diff = grid_diff(left, right)
        assert not diff["identical"]
        assert diff["only_left"] and diff["only_right"]


class TestVizTables:
    def test_grid_table_lists_every_cell(self):
        from repro.viz import grid_table

        report = GridRunner().run(small_grid())
        text = grid_table(report)
        assert "fabric_year" in text
        assert text.count("\n") >= 4 + 2

    def test_axis_table_pivots(self):
        from repro.viz import axis_table

        report = GridRunner().run(small_grid())
        text = axis_table(report, "fabric_year", "fabric_incidents")
        assert "2015" in text and "2016" in text
        assert "hazard.CORE=1.0" in text

    def test_axis_table_unknown_axis(self):
        from repro.viz import axis_table

        report = GridRunner().run(small_grid())
        with pytest.raises(ValueError):
            axis_table(report, "nope", "rows")


class TestChaosDrill:
    def test_grid_drill_registered_and_passes(self):
        from repro.faultline.drills import chaos_suite

        suite = chaos_suite(seed=3, quick=True, sites=["grid.cell"])
        by_name = {d["name"]: d for d in suite["drills"]}
        assert "grid" in by_name
        drill = by_name["grid"]
        assert drill["passed"]
        assert drill["detail"]["converged"]
        assert drill["detail"]["retries_match_fires"]


class TestServeGridJobs:
    def test_grid_job_publishes_cell_artifacts(self, tmp_path):
        from repro.serve import JobQueue

        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        job = queue.submit("grid", {
            "preset": "paper", "seed": 4, "scale": 0.05,
            "axes": {"fabric_year": [2015, 2016]},
        })
        queue.join(timeout=300)
        queue.stop()
        done = queue.get(job.id)
        assert done.status == "done"
        report = json.loads(queue.read_artifact(job.id))
        assert report["summary_digest"]
        for index in range(2):
            cell = json.loads(
                queue.read_artifact(f"{job.id}-cell{index:03d}")
            )
            assert cell["cell"] == index

    def test_grid_job_requires_axes(self, tmp_path):
        from repro.serve import JobQueue

        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        job = queue.submit("grid", {"preset": "paper"})
        queue.join(timeout=300)
        queue.stop()
        assert queue.get(job.id).status == "failed"


class TestCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "paper" in out and "no_drain_policy" in out

    def test_scenario_show(self, capsys):
        assert main(["scenario", "show", "paper"]) == 0
        out = capsys.readouterr().out
        assert '"name": "paper"' in out
        assert "digest:" in out

    def test_scenario_validate(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            spec_from_dict({"name": "mine"}).to_dict()
        ))
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "turbo": true}')
        assert main(["scenario", "validate", str(good)]) == 0
        assert "[OK]" in capsys.readouterr().out
        assert main(["scenario", "validate", str(bad)]) == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_grid_expand(self, capsys):
        assert main([
            "grid", "expand", "--axes", "fabric_year=2015..2017",
            "--scale", "0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 cells" in out

    def test_grid_run_and_diff(self, tmp_path, capsys):
        args = [
            "grid", "run", "--seed", "4", "--scale", "0.05",
            "--axes", "fabric_year=2015,2016",
            "--cache", str(tmp_path / "cache"),
            "--out", str(tmp_path / "grid.json"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "summary_digest:" in first
        assert "2 computed" in first

        args[-1] = str(tmp_path / "again.json")
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 computed" in second

        assert main([
            "grid", "diff", str(tmp_path / "grid.json"),
            str(tmp_path / "again.json"),
        ]) == 0
        assert '"identical": true' in capsys.readouterr().out

    def test_grid_run_rejects_malformed_axis(self):
        with pytest.raises(SystemExit):
            main(["grid", "run", "--axes", "fabric_year"])
