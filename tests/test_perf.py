"""Tests for the repro.perf measurement toolkit."""

import json

import pytest

from repro.perf import (
    BenchRecord,
    PhaseTimer,
    bench_backbone,
    bench_ingest,
    bench_serve,
    bench_stream_throughput,
    environment,
    events_per_second,
    load_record,
    write_record,
)


class TestTimers:
    def test_phase_records_duration_and_rate(self):
        timer = PhaseTimer()
        with timer.phase("work") as phase:
            phase.events = 1000
        assert timer["work"].seconds >= 0.0
        assert timer["work"].events == 1000
        assert timer.total_events == 1000
        assert timer.total_seconds == timer["work"].seconds

    def test_phase_recorded_even_on_error(self):
        timer = PhaseTimer()
        with pytest.raises(RuntimeError):
            with timer.phase("broken"):
                raise RuntimeError("boom")
        assert timer.get("broken") is not None

    def test_missing_phase_raises(self):
        timer = PhaseTimer()
        with pytest.raises(KeyError):
            timer["nope"]
        assert timer.get("nope") is None

    def test_events_per_second_never_divides_by_zero(self):
        assert events_per_second(100, 0.0) == 0.0
        assert events_per_second(100, 2.0) == 50.0

    def test_as_dicts_shape(self):
        timer = PhaseTimer()
        with timer.phase("a") as phase:
            phase.events = 10
        with timer.phase("b"):
            pass
        dicts = timer.as_dicts()
        assert dicts[0]["name"] == "a"
        assert "events_per_s" in dicts[0]
        assert "events" not in dicts[1]  # no events -> no rate keys


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
        from repro.perf.bench import bench_fold_matrix

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


    def test_serve_record_measures_concurrent_load(self):
        record = bench_serve(scale=0.1, readers=4, requests_per_reader=6,
                             writer_jobs=1)
        assert record.name == "serve_latency"
        assert record.metrics["errors"] == 0, record.metrics["error_samples"]
        assert record.metrics["requests"] == 4 * 6
        assert record.metrics["requests_per_s"] > 0.0
        assert record.metrics["p99_ms"] >= record.metrics["p50_ms"] > 0.0
        per_endpoint = record.metrics["per_endpoint"]
        assert "/reports/intra" in per_endpoint
        assert sum(e["requests"] for e in per_endpoint.values()) == 24
        # The warmed cache took every read; the writer's job ran.
        assert record.metrics["cache"]["hits"] > 0
        assert record.metrics["jobs"]["done"] == 1


class TestBenchCLI:
    def test_bench_quick_writes_records(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "records"
        assert main(["bench", "--quick", "--out", str(out),
                     "--seed", "4"]) == 0
        printed = capsys.readouterr().out
        assert "Streaming generation throughput" in printed
        assert "SEV store ingest" in printed
        assert "Backbone report, reference vs planned" in printed
        assert "Serve latency" in printed
        stream = load_record(out / "stream_throughput.json")
        ingest = load_record(out / "ingest_bulk_load.json")
        backbone = load_record(out / "backbone_report.json")
        serve = load_record(out / "serve_latency.json")
        assert stream.metrics["digests_identical"] is True
        assert ingest.metrics["bulk_speedup_vs_rowwise"] > 0.0
        assert backbone.metrics["digests_identical"] is True
        assert serve.metrics["errors"] == 0