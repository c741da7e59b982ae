"""Transparent ``.jsonl.gz`` interchange (repro.io.compression)."""

import gzip

import pytest

from repro.backbone.tickets import TicketDatabase, TicketType
from repro.incidents.sev import RootCause, SEVReport, Severity
from repro.incidents.store import SEVStore
from repro.io import (
    is_gzip_path,
    open_text,
    read_records,
    sniff_dataset,
    strip_gz_suffix,
    write_records,
)


@pytest.fixture()
def small_store():
    store = SEVStore()
    store.insert(SEVReport(
        sev_id="s0", severity=Severity.SEV2,
        device_name="csw.001.c0.dc1.ra",
        opened_at_h=10.0, resolved_at_h=15.5,
        root_causes=(RootCause.HARDWARE, RootCause.MAINTENANCE),
    ))
    store.insert(SEVReport(
        sev_id="s1", severity=Severity.SEV3,
        device_name="rsw.002.pod1.dc2.rb",
        opened_at_h=100.0, resolved_at_h=101.0,
        root_causes=(RootCause.BUG,),
    ))
    yield store
    store.close()


@pytest.fixture()
def small_db():
    db = TicketDatabase()
    db.add_completed("fbl-1", "v0", 0.0, 5.0, location="Europe")
    db.add_completed("fbl-2", "v1", 10.0, 12.0,
                     ticket_type=TicketType.MAINTENANCE)
    return db


class TestHelpers:
    def test_is_gzip_path(self):
        assert is_gzip_path("corpus.jsonl.gz")
        assert is_gzip_path("CORPUS.JSONL.GZ")
        assert not is_gzip_path("corpus.jsonl")

    def test_strip_gz_suffix(self):
        assert strip_gz_suffix("corpus.jsonl.gz") == "corpus.jsonl"
        assert strip_gz_suffix("corpus.jsonl") == "corpus.jsonl"

    def test_open_text_writes_real_gzip(self, tmp_path):
        path = tmp_path / "x.jsonl.gz"
        with open_text(path, "w") as handle:
            handle.write("hello\n")
        with gzip.open(path, "rt", encoding="utf-8") as handle:
            assert handle.read() == "hello\n"


class TestSevRoundTrip:
    def test_export_import_gz(self, small_store, tmp_path):
        path = tmp_path / "sevs.jsonl.gz"
        assert write_records(small_store.all_reports(), path, "sevs") == 2
        # The bytes on disk really are compressed, not plain text.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        with SEVStore() as loaded:
            loaded.bulk_load(read_records(path, "sevs"))
            assert [r.sev_id for r in loaded.all_reports()] == ["s0", "s1"]

    def test_gz_equals_plain(self, small_store, tmp_path):
        for name in ("a.jsonl", "b.jsonl.gz"):
            write_records(small_store.all_reports(), tmp_path / name, "sevs")
        plain = (tmp_path / "a.jsonl").read_text()
        with gzip.open(tmp_path / "b.jsonl.gz", "rt",
                       encoding="utf-8") as handle:
            assert handle.read() == plain

    def test_replay_file_gz(self, small_store, tmp_path):
        path = tmp_path / "sevs.jsonl.gz"
        write_records(small_store.all_reports(), path, "sevs")
        assert [r.sev_id for r in read_records(path, "sevs")] \
            == ["s0", "s1"]


class TestTicketRoundTrip:
    def test_export_import_gz(self, small_db, tmp_path):
        path = tmp_path / "tickets.jsonl.gz"
        assert write_records(small_db.completed(), path, "tickets") == 2
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = list(read_records(path, "tickets"))
        assert len(loaded) == 2
        assert sorted({t.vendor for t in loaded}) == ["v0", "v1"]

    def test_replay_tickets_file_gz(self, small_db, tmp_path):
        path = tmp_path / "tickets.jsonl.gz"
        write_records(small_db.completed(), path, "tickets")
        key = lambda t: (t.started_at_h, t.vendor, t.completed_at_h)
        assert sorted(map(key, read_records(path, "tickets"))) \
            == sorted(map(key, small_db.completed()))


class TestSniff:
    def test_sniffs_compressed_jsonl(self, small_store, small_db, tmp_path):
        write_records(small_store.all_reports(), tmp_path / "s.jsonl.gz",
                      "sevs")
        write_records(small_db.completed(), tmp_path / "t.jsonl.gz",
                      "tickets")
        assert sniff_dataset(tmp_path / "s.jsonl.gz") == "sevs"
        assert sniff_dataset(tmp_path / "t.jsonl.gz") == "tickets"

    def test_only_jsonl_gz_supported(self, tmp_path):
        path = tmp_path / "s.csv.gz"
        path.write_bytes(gzip.compress(b"sev_id\n"))
        with pytest.raises(ValueError, match="jsonl.gz"):
            sniff_dataset(path)

    def test_replay_rejects_unknown_gz_suffix(self, tmp_path):
        for dataset in ("sevs", "tickets"):
            with pytest.raises(ValueError, match="jsonl"):
                read_records(tmp_path / "s.txt.gz", dataset)
