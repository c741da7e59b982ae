"""Tests of the benchmark itself, with every workload at a tiny size.

    python3 -m pytest perfbench -q

Each workload runs untraced and traced; every metric BENCHMARK.json
declares must be printed with its unit, a planted digest mismatch must
be counted as a failed operation, and a directory holding only the
benchmark must make it fail without printing a result.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402

TINY = {
    "setups": 1,
    "min_rounds": {"report_full": 1, "report_tiered": 1, "grid_sweep": 1},
    "full_scale": 0.25,
    "tiered_scale": 1,
    "grid_axes": ["fabric_year=2015,2016", "correlated.power_domain_size=1,4"],
    "serve_scale": 0.25,
    "min_reads": 30,
    "min_jobs": 1,
    "job_every": 5,
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, seed=3):
    """Run one workload in-process at the tiny size; returns (code, result)."""
    saved = dict(run.SIZES)
    run.SIZES.update(TINY)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", str(seed),
                             "--seconds", "1", "--trace", str(trace)])
    finally:
        run.SIZES.clear()
        run.SIZES.update(saved)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class WorkloadTest(unittest.TestCase):

    def assert_complete(self, workload, trace):
        code, result = bench(workload, trace)
        self.assertEqual(code, 0, result)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(result["metrics"]),
                         [metric["name"] for metric in declared])
        for metric in declared:
            printed = result["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))
            self.assertTrue(math.isfinite(printed["value"]))
            if not trace:
                self.assertGreater(printed["value"], 0, metric["name"])
        return result["metrics"]

    def assert_accounted(self, metrics):
        """Layer self times plus cli.self_s add up to the traced wall."""
        total = sum(metrics[name]["value"] for name in layers.SELF_TIME)
        total += metrics["cli.self_s"]["value"]
        wall = metrics["cli.wall_s"]["value"]
        self.assertGreater(metrics["cli.self_s"]["value"], 0)
        self.assertLess(abs(total - wall), 0.05 * wall)

    def test_report_full(self):
        self.assert_complete("report_full", 0)
        metrics = self.assert_complete("report_full", 1)
        self.assert_accounted(metrics)
        self.assertGreater(metrics["simulation.backbone_s"]["value"], 0)
        self.assertEqual(metrics["runtime.cache_hit_ratio"]["value"], 0.5)

    def test_report_tiered(self):
        self.assert_complete("report_tiered", 0)
        metrics = self.assert_complete("report_tiered", 1)
        self.assert_accounted(metrics)
        self.assertGreater(metrics["storage.scan_s"]["value"], 0)
        self.assertGreater(metrics["storage.partitions_scanned"]["value"], 0)

    def test_grid_sweep(self):
        self.assert_complete("grid_sweep", 0)
        metrics = self.assert_complete("grid_sweep", 1)
        self.assert_accounted(metrics)
        self.assertEqual(metrics["scenarios.cells"]["value"], 8)
        self.assertEqual(metrics["scenarios.cell_hit_ratio"]["value"], 0.5)

    def test_serve_mixed(self):
        self.assert_complete("serve_mixed", 0)
        metrics = self.assert_complete("serve_mixed", 1)
        self.assertGreater(metrics["serve.handle_ms"]["value"], 0)
        self.assertGreater(metrics["serve.job_exec_s"]["value"], 0)
        self.assertGreater(metrics["faultline.digests"]["value"], 0)


class FailureTest(unittest.TestCase):

    def test_digest_mismatch_is_a_failed_operation(self):
        planted = "0" * 64
        original = run.tiered_reference
        run.tiered_reference = lambda _run: planted
        try:
            code, result = bench("report_tiered", 0)
        finally:
            run.tiered_reference = original
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        # The cold and the warm read each fail their digest check.
        self.assertEqual(result["failed"], 2)
        self.assertGreater(result["attempted"], result["failed"])

    def test_refuses_a_directory_without_the_program(self):
        tmp_root = run.ROOT / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(dir=tmp_root))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                SPEC["command"] + ["--workload", "report_full", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
            with contextlib.suppress(OSError):
                tmp_root.rmdir()
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


class LayersTest(unittest.TestCase):

    def test_scipy_import_counts_outermost_scipy_modules_once(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |       numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |       scipy._lib",
            "import time:       400 |        450 |     scipy",
            "import time:       500 |        500 |       scipy.stats._x",
            "import time:       600 |       1100 |     scipy.stats",
            "import time:        10 |       1860 |   repro.stats",
        ])
        self.assertAlmostEqual(layers.scipy_import_s(text), 1550e-6)

    def test_self_times_exclude_children(self):
        # [id, name, start, end, parent, thread, self_s, attrs]
        trace = {"spans": [
            [2, "incidents.insert", 1.0, 1.5, 1, "MainThread", 0.5,
             {"rows": 3}],
            [1, "simulation.intra", 0.0, 2.0, 0, "MainThread", 1.5,
             {"rows": 3}],
        ]}
        metrics = layers.process_metrics(trace)
        self.assertEqual(metrics["simulation.intra_s"], 1.5)
        self.assertEqual(metrics["incidents.insert_s"], 0.5)
        self.assertEqual(metrics["main_thread_spans_s"], 2.0)
        out = layers.finish(metrics, wall_s=3.0, import_s=1.0,
                            import_scipy_s=0.5)
        self.assertEqual(out["cli.self_s"], 1.0)
        self.assertEqual(out["incidents.rows_inserted"], 3)


if __name__ == "__main__":
    unittest.main()
