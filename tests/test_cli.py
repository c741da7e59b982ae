"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main


class TestReport:
    def test_intra_report(self, capsys):
        assert main(["report", "intra", "--scale", "0.1", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "maintenance" in out
        assert "Figure 12" in out

    def test_backbone_report(self, capsys):
        assert main(["report", "backbone", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "edge MTBF" in out
        assert "Table 4" in out
        assert "north_america" in out

    def test_full_report(self, capsys):
        assert main(["report", "full", "--scale", "0.2",
                     "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figures 15-18" in out
        assert "Growth (Figure 8)" in out

    def test_intra_report_backend_flag(self, capsys):
        # One planned path: the old --backend flag is an error.
        with pytest.raises(SystemExit):
            main(["report", "intra", "--scale", "0.1", "--seed", "4",
                  "--backend", "sharded"])
        assert "--backend" in capsys.readouterr().err

    def test_full_report_cache_reuses_analyses(self, tmp_path, capsys):
        args = ["report", "full", "--scale", "0.2", "--seed", "4",
                "--cache", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[cache]" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "[cache] 8 analyses reused, 0 computed" in second

    def test_backbone_backends_agree(self, capsys):
        # The acceptance criterion: every worker count prints the
        # identical backbone report (jobs="auto" included).
        outputs = set()
        for extra in ([], ["--jobs", "auto"], ["--jobs", "3"]):
            assert main(["report", "backbone", "--seed", "4"] + extra) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

    def test_backbone_report_includes_ticket_artifacts(self, capsys):
        assert main(["report", "backbone", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "Vendor scorecards" in out
        assert "Repair durations" in out

    @pytest.mark.parametrize("study, analyses",
                             [("backbone", 5), ("intra", 9)])
    def test_backbone_cache_reuses_analyses(self, tmp_path, capsys,
                                            study, analyses):
        args = ["report", study, "--seed", "4",
                "--cache", str(tmp_path / "cache")]
        if study == "intra":
            args += ["--scale", "0.1"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "[cache]" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert f"[cache] {analyses} analyses reused, 0 computed" in second
        # The [cache] line follows the tables and the digest line.
        assert second.rstrip().splitlines()[-1].startswith("[cache]")

    @pytest.mark.parametrize("digest", [[], ["--digest"]],
                             ids=["plain", "digest"])
    def test_intra_report_runs_the_executor_once(self, tmp_path, capsys,
                                                 monkeypatch, digest):
        # One run answers the tables and the digest line alike, over
        # a generated corpus and over a stored one.
        from repro.runtime.executor import Executor

        store = str(tmp_path / "store")
        assert main(["store", "init", store, "--scale", "0.1"]) == 0
        runs = []
        run = Executor.run

        def counted(self, *args, **kwargs):
            runs.append(args)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(Executor, "run", counted)
        for source in (["--scale", "0.1"], ["--store-dir", store]):
            runs.clear()
            assert main(["report", "intra"] + source + digest) == 0
            assert len(runs) == 1, source
        capsys.readouterr()


class TestVerify:
    def test_verify_passes_on_default_seeds(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "anchors reproduced" in out


class TestExportAnalyze:
    def test_sev_csv_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "sevs.csv")
        assert main(["export", "sevs", path, "--seed", "4"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_sev_json(self, tmp_path, capsys):
        path = str(tmp_path / "sevs.json")
        assert main(["export", "sevs", path, "--seed", "4"]) == 0
        assert main(["analyze", path]) == 0

    def test_ticket_export(self, tmp_path, capsys):
        path = str(tmp_path / "tickets.csv")
        assert main(["export", "tickets", path, "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "tickets" in out

    def test_sev_export_honors_scale(self, tmp_path, capsys):
        small = str(tmp_path / "small.csv")
        full = str(tmp_path / "full.csv")
        assert main(["export", "sevs", small, "--seed", "4",
                     "--scale", "0.1"]) == 0
        assert main(["export", "sevs", full, "--seed", "4"]) == 0
        capsys.readouterr()
        with open(small) as handle:
            small_rows = len(handle.readlines())
        with open(full) as handle:
            full_rows = len(handle.readlines())
        assert small_rows < full_rows / 5

    def test_sev_jsonl_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "sevs.jsonl")
        assert main(["export", "sevs", path, "--seed", "4",
                     "--scale", "0.2"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["stream", "--replay", path]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out

    @pytest.mark.parametrize("suffix", ["csv", "json", "jsonl"])
    def test_analyze_accepts_every_export_format(self, tmp_path, capsys,
                                                 suffix):
        # analyze must round-trip every format export can emit.
        path = str(tmp_path / f"sevs.{suffix}")
        assert main(["export", "sevs", path, "--seed", "4",
                     "--scale", "0.2"]) == 0
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Figure 4" in out

    @pytest.mark.parametrize("suffix", ["csv", "json", "jsonl"])
    def test_analyze_accepts_every_ticket_format(self, tmp_path, capsys,
                                                 suffix):
        # Ticket exports dispatch through the same analyze entry point.
        path = str(tmp_path / f"tickets.{suffix}")
        assert main(["export", "tickets", path, "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "Vendor scorecards" in out
        assert "Repair durations" in out

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_analyze_fabric_only_export_skips_fleet_figures(
        self, tmp_path, capsys, seed
    ):
        # Without cluster devices the population-normalized figures
        # have no denominator; analyze prints the rest and says so.
        full, fabric = tmp_path / "sevs.jsonl", tmp_path / "fabric.jsonl"
        assert main(["export", "sevs", str(full), "--seed", str(seed),
                     "--scale", "0.25"]) == 0
        with open(full) as src, open(fabric, "w") as dst:
            for line in src:
                device = json.loads(line)["device_name"].split(".")[0]
                if device in ("fsw", "ssw", "esw", "rsw"):
                    dst.write(line)
        capsys.readouterr()
        assert main(["analyze", str(fabric)]) == 0
        out = capsys.readouterr().out
        assert "Figure 7: incidents by device type" in out
        assert out.rstrip().splitlines()[-1] == (
            "(no fleet model for this corpus; skipping "
            "population-normalized figures)"
        )


    @pytest.mark.parametrize("dataset", ["sevs", "tickets"])
    @pytest.mark.parametrize("suffix", [".csv.gz", ".json.gz", ".txt"])
    def test_unsupported_suffix_refused(self, tmp_path, dataset, suffix):
        # Only what analyze and stream --replay read can be exported.
        from repro.io import CODECS

        path = tmp_path / f"{dataset}{suffix}"
        message = (f"{path}: unsupported dataset format "
                   "(expected .csv, .json, .jsonl or .jsonl.gz)")
        with pytest.raises(SystemExit) as exc:
            main(["export", dataset, str(path), "--seed", "4"])
        assert exc.value.code == message
        assert not path.exists()
        # The uncompressed file an older export wrote under that name.
        path.write_text(",".join(CODECS[dataset].fields) + "\n")
        for argv in (["analyze", str(path)],
                     ["stream", "--replay", str(path)]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == message

    def test_unsupported_suffix_exits_with_one_line(self, tmp_path):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = tmp_path / "sevs.csv.gz"
        probe = subprocess.run(
            [sys.executable, "-m", "repro", "export", "sevs", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=120,
        )
        assert probe.returncode == 1
        assert probe.stdout == ""
        assert probe.stderr.splitlines() == [
            f"{path}: unsupported dataset format "
            "(expected .csv, .json, .jsonl or .jsonl.gz)"
        ]
        assert not path.exists()


class TestStream:
    def test_generate_with_jobs(self, capsys):
        assert main(["stream", "--seed", "4", "--scale", "0.1",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Incidents per year" in out
        assert "Root causes" in out
        assert "MTBI" in out

    def test_jobs_do_not_change_output(self, capsys):
        assert main(["stream", "--seed", "4", "--scale", "0.1"]) == 0
        serial = capsys.readouterr().out
        assert main(["stream", "--seed", "4", "--scale", "0.1",
                     "--jobs", "3"]) == 0
        parallel = capsys.readouterr().out
        # Identical dashboards modulo the worker-count banner line.
        strip = lambda text: [line for line in text.splitlines()
                              if "worker" not in line]
        assert strip(serial) == strip(parallel)

    def test_replay_checkpoint_resume(self, tmp_path, capsys):
        corpus = str(tmp_path / "sevs.csv")
        snapshot = str(tmp_path / "stream.ckpt.json")
        assert main(["export", "sevs", corpus, "--seed", "4",
                     "--scale", "0.1"]) == 0
        assert main(["stream", "--replay", corpus,
                     "--checkpoint", snapshot]) == 0
        first = capsys.readouterr().out
        assert "ingested" in first
        assert main(["stream", "--replay", corpus,
                     "--checkpoint", snapshot]) == 0
        second = capsys.readouterr().out
        assert "resumed from" in second
        assert "ingested 0 new events" in second

    def test_generate_tickets(self, capsys):
        assert main(["stream", "--seed", "4",
                     "--dataset", "tickets"]) == 0
        out = capsys.readouterr().out
        assert "generated" in out
        assert "Vendor scorecards" in out
        assert "Repair durations" in out

    def test_replay_tickets(self, tmp_path, capsys):
        corpus = str(tmp_path / "tickets.jsonl")
        assert main(["export", "tickets", corpus, "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["stream", "--replay", corpus]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "Vendor scorecards" in out

    def test_ticket_replay_ignores_checkpoint(self, tmp_path, capsys):
        corpus = str(tmp_path / "tickets.jsonl")
        snapshot = str(tmp_path / "t.ckpt.json")
        assert main(["export", "tickets", corpus, "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["stream", "--replay", corpus,
                     "--checkpoint", snapshot]) == 0
        out = capsys.readouterr().out
        assert "checkpointing is SEV-only" in out
        assert "Vendor scorecards" in out


class TestParsing:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_study(self):
        with pytest.raises(SystemExit):
            main(["report", "everything"])

    def test_missing_args(self):
        with pytest.raises(SystemExit):
            main(["export", "sevs"])


class TestImportCost:
    def test_reports_grids_stores_and_serving_load_no_networkx(
        self, tmp_path, fresh_python
    ):
        """networkx is loaded only by a function that walks a graph.

        Every command below runs in one fresh interpreter, so modules
        this suite has already imported cannot hide an eager import.
        """
        script = textwrap.dedent(f"""
            import sys

            from repro.cli import main

            tmp = {str(tmp_path)!r}
            for argv in (
                ["report", "full", "--scale", "0.1", "--digest",
                 "--cache", tmp + "/cache"],
                ["grid", "run", "--scale", "0.1",
                 "--axes", "correlated.power_domain_size=1,4"],
                ["store", "init", tmp + "/store", "--scale", "0.1"],
                ["store", "compact", tmp + "/store"],
                ["report", "intra", "--store-dir", tmp + "/store",
                 "--digest"],
            ):
                assert main(argv) == 0, argv
            # The report commands build their contexts without the
            # serving layer (or its HTTP server) coming along.
            served = [m for m in ("http.server", "repro.serve")
                      if m in sys.modules]
            assert not served, served
            from repro.serve import ServeApp

            with ServeApp(seed=1, scale=0.1, prewarm=True):
                pass
            print(sorted(m for m in sys.modules
                         if m.split(".")[0] == "networkx"))
        """)
        assert fresh_python(script)[-1] == "[]"
