"""Tests for the tiered, partitioned stores (repro.storage.partitioned)."""

import dataclasses
import gzip
import json
import re
import sqlite3

import pytest

from repro.faultline import hooks
from repro.faultline.plan import FaultPlan, FaultSpec
from repro.runtime.cache import corpus_fingerprint, ticket_fingerprint
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario
from repro.storage import (
    Manifest,
    ManifestError,
    PartitionedSEVStore,
    PartitionedTicketStore,
    StorageError,
)


@pytest.fixture(scope="module")
def mono_store():
    return IntraSimulator(paper_scenario(seed=5, scale=0.1)).run()


@pytest.fixture()
def sev_store(tmp_path, mono_store):
    store = PartitionedSEVStore.init(tmp_path / "sev",
                                     meta={"seed": 5, "scale": 0.1})
    store.ingest(mono_store.all_reports())
    return store


@pytest.fixture(scope="module")
def ticket_corpus():
    return BackboneSimulator(paper_backbone_scenario(seed=7)).run()


@pytest.fixture()
def ticket_store(tmp_path, ticket_corpus):
    store = PartitionedTicketStore.init(tmp_path / "tickets",
                                        meta={"seed": 7})
    store.ingest(ticket_corpus.tickets.completed())
    return store


def _sqlite_commits(path):
    """The SQLite file change counter: header bytes 24-27, big-endian.

    Every committed write transaction bumps it by one.
    """
    with open(path, "rb") as handle:
        return int.from_bytes(handle.read(28)[24:28], "big")


class TestPartitionedSEVStore:
    def test_scan_order_equals_monolithic(self, sev_store, mono_store):
        partitioned = [r.sev_id for r in sev_store.all_reports()]
        monolithic = [r.sev_id for r in mono_store.all_reports()]
        assert partitioned == monolithic

    def test_len_years_match(self, sev_store, mono_store):
        assert len(sev_store) == len(mono_store)
        assert sev_store.years() == mono_store.years()

    def test_fingerprint_stable_across_layouts(self, sev_store, mono_store):
        # The cache-key invariant: same rows, same fingerprint, no
        # matter how the bytes are laid out on disk.
        assert corpus_fingerprint(sev_store, 5) \
            == corpus_fingerprint(mono_store, 5)

    def test_partition_holds_single_key(self, sev_store):
        for key in sev_store.partition_keys():
            records = sev_store.partition_records(key)
            assert {sev_store.partition_key(r) for r in records} == {key}

    def test_init_refuses_existing_store(self, sev_store):
        with pytest.raises(StorageError):
            PartitionedSEVStore.init(sev_store.root)

    def test_open_checks_domain(self, sev_store):
        with pytest.raises(StorageError):
            PartitionedTicketStore.open(sev_store.root)

    def test_reopen_reads_same_rows(self, sev_store):
        reopened = PartitionedSEVStore.open(sev_store.root)
        assert len(reopened) == len(sev_store)
        assert reopened.manifest.meta == {"seed": 5, "scale": 0.1}


class TestTiering:
    def test_demote_promote_round_trip(self, sev_store):
        key = sev_store.partition_keys()[0]
        before = [r.sev_id for r in sev_store.partition_records(key)]
        entry = sev_store.demote(key)
        assert entry.tier == "cold"
        assert entry.path.endswith(".jsonl.gz")
        assert [r.sev_id
                for r in sev_store.partition_records(key)] == before
        entry = sev_store.promote(key)
        assert entry.tier == "hot"
        assert entry.path.endswith(".db")
        assert [r.sev_id
                for r in sev_store.partition_records(key)] == before

    def test_compact_demotes_old_years(self, sev_store):
        newest = max(sev_store.years())
        demoted = sev_store.compact(keep_hot_years=1)
        assert demoted
        for entry in sev_store.manifest.partitions():
            expected = "hot" if entry.year == newest else "cold"
            assert entry.tier == expected
        assert sev_store.verify() == {}

    def test_scan_spans_tiers(self, sev_store, mono_store):
        sev_store.compact(keep_hot_years=2)
        assert [r.sev_id for r in sev_store.all_reports()] \
            == [r.sev_id for r in mono_store.all_reports()]

    def test_retention_drops_old_partitions(self, sev_store):
        cutoff = sev_store.years()[1]
        dropped = sev_store.apply_retention(cutoff)
        assert dropped
        assert min(sev_store.years()) >= cutoff
        assert all(key[0] < cutoff for key in dropped)
        assert sev_store.verify() == {}

    def test_ingest_into_cold_partition_promotes(self, sev_store,
                                                 mono_store):
        key = sev_store.partition_keys()[0]
        records = sev_store.partition_records(key)
        sev_store.demote(key)
        extra = records[0]
        renamed = type(extra)(
            sev_id="zz-reingest", severity=extra.severity,
            device_name=extra.device_name, opened_at_h=extra.opened_at_h,
            resolved_at_h=extra.resolved_at_h,
            root_causes=extra.root_causes,
        )
        sev_store.ingest([renamed])
        entry = sev_store.manifest.get(key)
        assert entry.tier == "hot"
        assert entry.rows == len(records) + 1
        assert sev_store.verify() == {}


class TestRecovery:
    def test_verify_flags_missing_and_tampered(self, sev_store):
        keys = sev_store.partition_keys()
        (sev_store.root / sev_store.manifest.get(keys[0]).path).unlink()
        problems = sev_store.verify()
        assert keys[0] in problems
        assert "missing" in problems[keys[0]]

    def test_recover_rebuilds_manifest(self, sev_store, mono_store):
        manifest_path = sev_store.root / "manifest.json"
        manifest_path.write_text("garbage")
        with pytest.raises(ManifestError):
            PartitionedSEVStore.open(sev_store.root)
        rebuilt = PartitionedSEVStore.recover(sev_store.root)
        assert len(rebuilt) == len(mono_store)
        assert [r.sev_id for r in rebuilt.all_reports()] \
            == [r.sev_id for r in mono_store.all_reports()]

    def test_restore_refuses_wrong_source(self, sev_store, mono_store):
        key = sev_store.partition_keys()[0]
        other = IntraSimulator(paper_scenario(seed=6, scale=0.1)).run()
        path = sev_store.root / sev_store.manifest.get(key).path
        path.unlink()
        with pytest.raises(StorageError, match="digest"):
            sev_store.restore(key, other.all_reports())
        # Refused before anything was written.
        assert not path.exists()
        assert not list(sev_store.root.glob("*.tmp"))
        assert sev_store.restore(key, mono_store.all_reports()) > 0
        assert sev_store.verify() == {}


class TestPartitionedTicketStore:
    @pytest.fixture()
    def corpus(self, ticket_corpus):
        return ticket_corpus

    def test_completed_matches_database_rows(self, ticket_store, corpus):
        stored = {t.ticket_id for t in ticket_store.completed()}
        original = {t.ticket_id for t in corpus.tickets.completed()}
        assert stored == original

    def test_ticket_fingerprint_stable(self, ticket_store, corpus):
        assert ticket_fingerprint(ticket_store, 7) \
            == ticket_fingerprint(corpus.tickets, 7)

    def test_tiering_round_trip(self, ticket_store):
        before = [t.ticket_id for t in ticket_store.completed()]
        ticket_store.compact(keep_hot_years=1)
        assert [t.ticket_id for t in ticket_store.completed()] == before
        assert ticket_store.verify() == {}


class TestSafeRewrites:
    """A partition file is replaced only by a complete, checked one."""

    @staticmethod
    def _domain(request, domain):
        store = request.getfixturevalue(f"{domain}_store")
        key = store.partition_keys()[0]
        extra = dataclasses.replace(
            store.partition_records(key)[0],
            **{"sev_id" if domain == "sev" else "ticket_id": "zz-extra"},
        )
        return store, key, extra

    @pytest.mark.parametrize("domain", ["sev", "ticket"])
    def test_failed_append_keeps_the_old_partition(self, request,
                                                   monkeypatch, domain):
        store, _, extra = self._domain(request, domain)
        before = list(store.records())
        if domain == "sev":
            with hooks.injected(FaultPlan(
                    1, [FaultSpec("store.insert", probability=1.0)])):
                with pytest.raises(sqlite3.OperationalError):
                    store.ingest([extra])
        else:
            encode = PartitionedTicketStore._record_row
            calls = []

            def encode_once(self, record):
                calls.append(record)
                if len(calls) > 1:
                    raise RuntimeError("encoder died mid-partition")
                return encode(self, record)

            monkeypatch.setattr(PartitionedTicketStore, "_record_row",
                                encode_once)
            with pytest.raises(RuntimeError, match="mid-partition"):
                store.ingest([extra])
            monkeypatch.undo()
        assert store.verify() == {}
        assert list(store.records()) == before
        assert not list(store.root.glob("*.tmp"))
        reopened = type(store).open(store.root)
        assert reopened.verify() == {}
        assert list(reopened.records()) == before

    def test_stale_tmp_is_replaced(self, sev_store):
        key = sev_store.partition_keys()[0]
        path = sev_store.root / sev_store.manifest.get(key).path
        stale = path.with_name(path.name + ".tmp")
        stale.write_bytes(b"a crashed write left this behind")
        records = sev_store.partition_records(key)
        sev_store.ingest([dataclasses.replace(records[0], sev_id="zz-x")])
        assert not stale.exists()
        assert sev_store.manifest.get(key).rows == len(records) + 1
        assert sev_store.verify() == {}

    @pytest.mark.parametrize("domain", ["sev", "ticket"])
    def test_lossy_move_is_refused(self, request, domain):
        store, key, _ = self._domain(request, domain)
        entry = store.manifest.get(key)
        path = store.root / entry.path
        if domain == "sev":
            with sqlite3.connect(path) as conn:
                conn.execute("UPDATE sevs SET description = 'tampered' "
                             "WHERE rowid = 1")
            conn.close()
        else:
            lines = path.read_text().splitlines()
            row = json.loads(lines[0])
            row["vendor"] = "tampered"
            lines[0] = json.dumps(row, sort_keys=True)
            path.write_text("\n".join(lines) + "\n")
        tampered = path.read_bytes()
        for move in (lambda: store.demote(key),
                     lambda: store.compact(keep_hot_years=1)):
            with pytest.raises(StorageError, match=re.escape(
                    f"partition {key!r} would change its digest")):
                move()
            assert store.manifest.get(key) == entry
            assert Manifest.load(store.root).get(key) == entry
            assert path.read_bytes() == tampered
            assert not list(store.root.glob("*.jsonl.gz"))
            assert not list(store.root.glob("*.tmp"))

    def test_failed_compact_publishes_the_moves_it_made(self, sev_store):
        keys = sev_store.partition_keys()
        newest = max(sev_store.years())
        victim = [k for k in keys if k[0] < newest][-1]
        path = sev_store.root / sev_store.manifest.get(victim).path
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE sevs SET description = 'tampered'")
        conn.close()
        with pytest.raises(StorageError, match="lossy"):
            sev_store.compact(keep_hot_years=1)
        reopened = PartitionedSEVStore.open(sev_store.root)
        assert reopened.verify() == {victim: "content digest mismatch"}
        assert reopened.manifest.get(keys[0]).tier == "cold"


class TestOneWritePerPartition:
    """A partition is encoded and written once per ingest or restore."""

    @pytest.fixture()
    def five(self, tmp_path, mono_store):
        """A store holding one 5-row partition, and those 5 reports."""
        by_key = {}
        for report in mono_store.all_reports():
            by_key.setdefault(
                (report.opened_year, report.region), []).append(report)
        reports = next(group for group in by_key.values()
                       if len(group) >= 5)[:5]
        store = PartitionedSEVStore.init(tmp_path / "five")
        store.ingest(reports)
        (key,) = store.partition_keys()
        return store, key, reports

    @staticmethod
    def _extra(reports):
        return dataclasses.replace(reports[0], sev_id="zz-extra")

    def test_ingest_into_cold_writes_the_shard_once(self, five,
                                                    monkeypatch):
        store, key, reports = five
        store.demote(key)
        write = PartitionedSEVStore._write_hot
        calls = []

        def spy(self, path, records, *args, **kwargs):
            calls.append(len(records))
            return write(self, path, records, *args, **kwargs)

        monkeypatch.setattr(PartitionedSEVStore, "_write_hot", spy)
        store.ingest([self._extra(reports)])
        assert calls == [6]
        entry = store.manifest.get(key)
        assert (entry.tier, entry.rows) == ("hot", 6)
        assert [p.name for p in store.root.iterdir()
                if p.name != "manifest.json"] == [entry.path]
        assert store.verify() == {}

    def test_tampered_cold_file_refuses_the_ingest(self, five):
        store, key, reports = five
        cold = store.demote(key)
        path = store.root / cold.path
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        row = json.loads(lines[0])
        row["description"] = "tampered"
        lines[0] = json.dumps(row, sort_keys=True)
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        tampered = path.read_bytes()
        with pytest.raises(StorageError, match="lossy"):
            store.ingest([self._extra(reports)])
        assert store.manifest.get(key) == cold
        assert Manifest.load(store.root).get(key) == cold
        assert path.read_bytes() == tampered
        assert sorted(p.name for p in store.root.iterdir()) == sorted(
            ["manifest.json", cold.path])

    def test_intact_cold_file_in_other_bytes_takes_the_ingest(self, five):
        # Same rows, other lines: verify() and promote() accept the
        # file, and so does an ingest.
        store, key, reports = five
        cold = store.demote(key)
        path = store.root / cold.path
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        compact = [json.dumps(json.loads(line), separators=(",", ":"))
                   for line in reversed(lines)]
        path.write_bytes(gzip.compress(("\n".join(compact) + "\n").encode()))
        assert store.verify() == {}
        assert store.ingest([self._extra(reports)]) == 1
        entry = store.manifest.get(key)
        assert (entry.tier, entry.rows) == ("hot", 6)
        assert store.verify() == {}

    @pytest.mark.parametrize("tier", ["hot", "cold"])
    def test_restore_encodes_each_row_once(self, five, monkeypatch, tier):
        store, key, reports = five
        if tier == "cold":
            store.demote(key)
        entry = store.manifest.get(key)
        (store.root / entry.path).unlink()
        encode = PartitionedSEVStore._record_row
        calls = []

        def counted(self, record):
            calls.append(record.sev_id)
            return encode(self, record)

        monkeypatch.setattr(PartitionedSEVStore, "_record_row", counted)
        assert store.restore(key, iter(reports)) == 5
        assert len(calls) == 5
        monkeypatch.undo()
        assert store.manifest.get(key) == entry
        assert store.verify() == {}


class TestShardCommits:
    def test_fresh_shard_takes_three_commits(self, tmp_path, mono_store):
        # Tables, indexes, then one bulk load that drops, loads and
        # rebuilds the indexes: three write transactions in all.
        store = PartitionedSEVStore.init(tmp_path / "sev")
        store.ingest(mono_store.all_reports())
        for entry in store.manifest.partitions():
            assert _sqlite_commits(store.root / entry.path) <= 3, entry.key
