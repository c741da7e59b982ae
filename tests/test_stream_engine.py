"""Tests for the streaming runtime plumbing.

The engine lifecycle (ingest, limits, checkpoint cadence), the
checkpoint format and the resume contract, the source adapters, and
the cell sharding helpers.
"""

import json

import pytest

from repro.simulation.generator import (
    cell_reports,
    cell_seed,
    iter_scenario_reports,
    scenario_cells,
)
from repro.simulation.scenarios import paper_scenario
from repro.stream import (
    StreamAggregates,
    StreamEngine,
    live_feed,
    load_checkpoint,
    save_checkpoint,
    shard_cells,
)
from repro.incidents.store import SEVStore
from repro.io import read_records, write_records
from repro.topology.devices import DeviceType


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(seed=5, scale=0.2)


@pytest.fixture(scope="module")
def reports(scenario):
    return list(iter_scenario_reports(scenario))


class TestEngine:
    def test_run_consumes_everything(self, scenario, reports):
        engine = StreamEngine()
        assert engine.run(live_feed(scenario)) == len(reports)
        assert engine.events_ingested == len(reports)
        assert engine.aggregates.events == len(reports)

    def test_limit_bounds_consumption(self, reports):
        engine = StreamEngine()
        assert engine.run(reports, limit=10) == 10
        assert engine.events_ingested == 10
        # The next drain picks up exactly where the limit stopped.
        assert engine.run(reports) == len(reports) - 10

    def test_negative_limit_rejected(self, reports):
        with pytest.raises(ValueError, match="limit"):
            StreamEngine().run(reports, limit=-1)

    def test_from_start_false_does_not_skip(self, reports):
        engine = StreamEngine()
        engine.run(reports, limit=10)
        engine.run(reports[10:20], from_start=False)
        assert engine.events_ingested == 20

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            StreamEngine(checkpoint_every=5)

    def test_negative_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-negative"):
            StreamEngine(
                checkpoint_path=tmp_path / "c.json", checkpoint_every=-1
            )


class TestCheckpoint:
    def test_roundtrip(self, reports, tmp_path):
        aggregates = StreamAggregates()
        aggregates.ingest_many(reports[:50])
        path = tmp_path / "snap.json"
        save_checkpoint(path, aggregates, 50)
        loaded, events = load_checkpoint(path)
        assert events == 50
        assert loaded == aggregates
        assert loaded.digest() == aggregates.digest()

    def test_rejects_foreign_payload(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_resume_matches_uninterrupted_run(
        self, scenario, reports, tmp_path
    ):
        one_shot = StreamEngine()
        one_shot.run(live_feed(scenario))

        snapshot = tmp_path / "mid.json"
        first = StreamEngine(checkpoint_path=snapshot)
        first.run(live_feed(scenario), limit=len(reports) // 3)
        assert snapshot.exists()

        resumed = StreamEngine.resume(snapshot)
        assert resumed.events_ingested == len(reports) // 3
        resumed.run(live_feed(scenario))
        assert resumed.events_ingested == len(reports)
        assert resumed.aggregates.digest() == one_shot.aggregates.digest()

    def test_periodic_cadence_writes_snapshots(self, reports, tmp_path):
        snapshot = tmp_path / "cadence.json"
        engine = StreamEngine(
            checkpoint_path=snapshot, checkpoint_every=7
        )
        engine.run(reports, limit=7)
        _, events = load_checkpoint(snapshot)
        assert events == 7

    def test_save_without_path_rejected(self):
        with pytest.raises(ValueError, match="path"):
            StreamEngine().save_checkpoint()


class TestSources:
    def test_replay_store_matches_live(self, scenario, reports):
        store = SEVStore()
        store.insert_many(reports)
        streamed = StreamAggregates()
        streamed.ingest_many(store.all_reports())
        live = StreamAggregates()
        live.ingest_many(live_feed(scenario))
        assert streamed.digest() == live.digest()

    @pytest.mark.parametrize("suffix", [".csv", ".json", ".jsonl",
                                        ".jsonl.gz"])
    def test_exported_file_replays_like_live(
        self, scenario, reports, tmp_path, suffix
    ):
        store = SEVStore()
        store.insert_many(reports)
        path = tmp_path / f"sevs{suffix}"
        assert write_records(store.all_reports(), path, "sevs") \
            == len(reports)
        replayed = StreamAggregates()
        assert replayed.ingest_many(read_records(path, "sevs")) \
            == len(reports)
        live = StreamAggregates()
        live.ingest_many(live_feed(scenario))
        assert replayed.digest() == live.digest()

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "sevs.xml"
        path.write_text("<nope/>")
        with pytest.raises(ValueError, match="xml"):
            list(read_records(path, "sevs"))


class TestCellGeneration:
    def test_cell_seeds_are_distinct(self):
        seeds = {
            cell_seed(1, year, device_type)
            for year in range(2011, 2018)
            for device_type in DeviceType
        }
        assert len(seeds) == 7 * len(DeviceType)

    def test_cell_reports_deterministic(self, scenario):
        first = cell_reports(scenario, 2017, DeviceType.RSW)
        second = cell_reports(scenario, 2017, DeviceType.RSW)
        assert [r.sev_id for r in first] == [r.sev_id for r in second]
        assert [r.opened_at_h for r in first] == [
            r.opened_at_h for r in second
        ]

    def test_feed_is_chronological(self, reports):
        keys = [(r.opened_at_h, r.sev_id) for r in reports]
        assert keys == sorted(keys)

    def test_shard_cells_round_robin(self):
        cells = [(2011, t) for t in list(DeviceType)[:5]]
        shards = shard_cells(cells, 2)
        assert [len(s) for s in shards] == [3, 2]
        key = lambda cell: (cell[0], cell[1].value)
        assert sorted(
            (cell for shard in shards for cell in shard), key=key
        ) == sorted(cells, key=key)

    def test_shard_cells_drops_empties(self):
        cells = [(2011, DeviceType.RSW)]
        assert shard_cells(cells, 8) == [[(2011, DeviceType.RSW)]]

    def test_shard_cells_rejects_zero_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            shard_cells([], 0)

    def test_scenario_cells_cover_the_feed(self, scenario, reports):
        total = sum(
            len(cell_reports(scenario, year, device_type))
            for year, device_type in scenario_cells(scenario)
        )
        assert total == len(reports)
