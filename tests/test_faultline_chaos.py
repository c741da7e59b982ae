"""The chaos drill suite and its CLI surface.

``python -m repro chaos --seed N`` must be deterministic: two runs
with one seed produce byte-identical fault reports — identical fault
logs, identical digests — so a failed run replays exactly from the
seed printed in its report.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.faultline import chaos_suite
from repro.faultline.drills import REPORT_FORMAT, report_json
from repro.faultline.plan import SITES

SEEDS = (1, 7, 13)


class TestChaosSuite:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_deterministic_in_the_seed(self, seed):
        first = chaos_suite(seed=seed, quick=True)
        second = chaos_suite(seed=seed, quick=True)
        assert report_json(first) == report_json(second)
        assert first["report_digest"] == second["report_digest"]
        # A drill that selects a site must exercise it: every
        # selected site fired at least once at this seed.
        for drill in first["drills"]:
            fired = drill["detail"]["fired_per_site"]
            assert sorted(fired) == sorted(drill["detail"]["sites"])
            assert all(n >= 1 for n in fired.values()), (
                drill["name"], fired
            )

    def test_all_drills_pass(self):
        report = chaos_suite(seed=7, quick=True)
        assert report["passed"]
        assert [d["name"] for d in report["drills"]] == [
            "differential", "checkpoint", "jsonl", "ingest", "serve_jobs",
            "storage", "columnar", "grid", "survivability",
        ]
        assert all(d["passed"] for d in report["drills"])

    def test_report_shape(self):
        report = chaos_suite(seed=7, quick=True)
        assert report["format"] == REPORT_FORMAT
        assert report["seed"] == 7
        assert report["quick"] is True
        assert report["sites"] == list(SITES)
        # Deterministic by construction: JSON-serializable, and free
        # of timestamps and host paths.
        text = report_json(report)
        assert json.loads(text) == report
        assert "/tmp" not in text

    def test_site_filter(self):
        report = chaos_suite(seed=7, quick=True, sites=["io.jsonl.line"])
        assert report["sites"] == ["io.jsonl.line"]
        by_name = {d["name"]: d for d in report["drills"]}
        # Drills whose sites were filtered out run fault-free and pass.
        assert by_name["differential"]["detail"]["sites"] == []
        assert by_name["differential"]["detail"]["faults_fired"] == 0
        assert by_name["jsonl"]["detail"]["sites"] == ["io.jsonl.line"]
        assert report["passed"]

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault sites"):
            chaos_suite(seed=7, sites=["no.such.site"])


class TestChaosCLI:
    def test_chaos_command_passes(self, capsys):
        assert main(["chaos", "--quick", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 9
        assert "[FAIL]" not in out
        assert "report digest" in out

    def test_chaos_writes_report_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--seed", "7",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["format"] == REPORT_FORMAT
        assert report["passed"] is True

    def test_chaos_reports_are_byte_identical(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["chaos", "--quick", "--seed", "13",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_chaos_sites_flag(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--seed", "7",
                     "--sites", "io.jsonl.line,store.insert",
                     "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["sites"] == ["io.jsonl.line", "store.insert"]

    def test_chaos_rejects_unknown_site(self, capsys):
        with pytest.raises(ValueError, match="unknown fault sites"):
            main(["chaos", "--quick", "--sites", "bogus.site"])
