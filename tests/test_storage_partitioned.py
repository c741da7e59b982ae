"""Tests for the tiered, partitioned stores (repro.storage.partitioned)."""

import pytest

from repro.runtime.cache import corpus_fingerprint, ticket_fingerprint
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario
from repro.storage import (
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
        (sev_store.root / sev_store.manifest.get(key).path).unlink()
        with pytest.raises(StorageError, match="digest"):
            sev_store.restore(key, other.all_reports())
        assert sev_store.restore(key, mono_store.all_reports()) > 0
        assert sev_store.verify() == {}


class TestPartitionedTicketStore:
    @pytest.fixture(scope="class")
    def corpus(self):
        return BackboneSimulator(paper_backbone_scenario(seed=7)).run()

    @pytest.fixture()
    def ticket_store(self, tmp_path, corpus):
        store = PartitionedTicketStore.init(tmp_path / "tickets",
                                            meta={"seed": 7})
        store.ingest(corpus.tickets.completed())
        return store

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
