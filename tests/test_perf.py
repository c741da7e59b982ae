"""Tests for the repro.perf measurement toolkit."""

import json

import pytest

from repro.perf import (
    BenchRecord,
    bench_backbone,
    bench_fold_matrix,
    bench_ingest,
    bench_stream_throughput,
    environment,
    events_per_second,
    load_record,
    write_record,
)


class TestTimers:
    def test_events_per_second_never_divides_by_zero(self):
        assert events_per_second(100, 0.0) == 0.0
        assert events_per_second(100, 2.0) == 50.0


class TestRecords:
    def test_json_round_trip(self, tmp_path):
        record = BenchRecord(
            name="demo",
            params={"scale": 1.0},
            metrics={"events_per_s": 123.4},
            phases=[{"name": "run", "seconds": 0.5}],
        )
        path = write_record(record, tmp_path)
        assert path.name == "demo.json"
        loaded = load_record(path)
        assert loaded == record

    def test_environment_captured(self):
        env = environment()
        assert env["cpu_count"] >= 1
        assert env["python"]

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="perf record"):
            load_record(path)


class TestBenchSuite:
    def test_stream_throughput_record(self):
        record = bench_stream_throughput(
            seed=4, scale=0.1, jobs_list=(1, 2, "auto"), rounds=1
        )
        assert record.name == "stream_throughput"
        assert record.metrics["digests_identical"] is True
        per_jobs = {e["jobs"]: e for e in record.metrics["per_jobs"]}
        assert per_jobs[1]["events"] == per_jobs[2]["events"] > 0
        assert per_jobs["auto"]["resolved_jobs"] >= 1
        assert "speedup_jobs2" in record.metrics

    def test_ingest_record_shows_bulk_win(self):
        record = bench_ingest(seed=4, scale=0.25)
        assert record.name == "ingest_bulk_load"
        methods = [e["method"] for e in record.metrics["variants"]]
        assert methods == ["insert_rowwise", "insert_many", "bulk_load",
                           "partitioned_ingest"]
        assert record.metrics["rows"] > 0
        assert record.metrics["digests_identical"] is True
        # Even at a tiny scale, skipping a transaction per row wins
        # comfortably on durable storage.
        assert record.metrics["bulk_speedup_vs_rowwise"] > 1.0

    def test_backbone_record_covers_every_strategy(self):
        record = bench_backbone(seed=4, rounds=1)
        assert record.name == "backbone_report"
        strategies = [e["strategy"] for e in record.metrics["per_strategy"]]
        assert strategies == [
            "reference", "planned", "planned_jobs2", "cached",
        ]
        assert record.metrics["digests_identical"] is True
        assert record.metrics["tickets"] > 0
        assert all(
            e["tickets"] == record.metrics["tickets"]
            for e in record.metrics["per_strategy"]
        )
        assert record.metrics["fastest_serial"] in ("reference", "planned")
        assert record.metrics["cache_speedup_vs_fastest_serial"] > 0.0

    def test_fold_matrix_quotes_honest_speedups(self):
        record = bench_fold_matrix(seed=4, scale=0.1, jobs=2, rounds=1)
        metrics = record.metrics
        assert metrics["digests_identical"] is True
        assert [e["strategy"] for e in metrics["per_variant"]] == [
            "reference", "planned", "planned_jobs2",
        ] * 2
        for layout in ("monolithic", "partitioned"):
            quoted = metrics["layouts"][layout]
            fastest = [e for e in metrics["per_variant"]
                       if e["layout"] == layout
                       and e["strategy"] == quoted["fastest_serial"]]
            assert fastest[0]["speedup_vs_fastest_serial"] == 1.0
            if metrics["cores"] < 2:
                assert quoted["parallel_speedup_vs_serial"] is None
                assert quoted["parallel_reason"]
            else:
                assert quoted["parallel_speedup_vs_serial"] > 0.0
        planned = {e["layout"]: e["seconds"] for e in metrics["per_variant"]
                   if e["strategy"] == "planned"}
        assert metrics["partitioned_overhead"] == (
            planned["partitioned"] / planned["monolithic"]
        )


class TestBenchCLI:
    def test_bench_quick_writes_records(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "records"
        assert main(["bench", "--quick", "--out", str(out),
                     "--seed", "4"]) == 0
        printed = capsys.readouterr().out
        for title in ("Streaming generation throughput", "SEV store ingest",
                      "Fold matrix", "Backbone report, reference vs planned"):
            assert printed.count(title) == 1, title
        rules = [line for line in printed.splitlines()
                 if line and set(line) <= {"-", "+"}]
        assert len(rules) == 4  # one header rule per table
        names = ["stream_throughput", "ingest_bulk_load", "fold_matrix",
                 "backbone_report"]
        assert sorted(p.stem for p in out.iterdir()) == sorted(names)
        for name in names:
            record = load_record(out / f"{name}.json")
            assert record.metrics["digests_identical"] is True, name
        fold = load_record(out / "fold_matrix.json")
        assert fold.metrics["partitioned_overhead"] > 0.0
