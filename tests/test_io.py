"""Tests for dataset interchange: the record codecs, the one suffix
rule, the writer and the streaming reader."""

import csv
import gzip
import json

import pytest

from repro.backbone.tickets import TicketDatabase, TicketType
from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.incidents.sev import RootCause, SEVReport, Severity
from repro.incidents.store import SEVStore
from repro.io import (
    CODECS,
    TICKET_CODEC,
    ReadErrors,
    data_format,
    open_text,
    read_records,
    sniff_dataset,
    write_records,
)

DATASETS = ("sevs", "tickets")
SUFFIXES = (".csv", ".json", ".jsonl", ".jsonl.gz")
BAD_SUFFIXES = (".csv.gz", ".json.gz", ".txt")


@pytest.fixture()
def small_store():
    store = SEVStore()
    store.insert(SEVReport(
        sev_id="s0", severity=Severity.SEV2,
        device_name="csw.001.c0.dc1.ra",
        opened_at_h=10.0, resolved_at_h=15.5,
        root_causes=(RootCause.HARDWARE, RootCause.MAINTENANCE),
        description="desc, with comma", service_impact="2.4% failed",
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


@pytest.fixture()
def corpora(small_store, small_db):
    """Each dataset's records, in the order its exporter writes them."""
    return {"sevs": list(small_store.all_reports()),
            "tickets": small_db.completed()}


def reports(store):
    return sorted(
        ((r.sev_id, r.severity, r.device_name, r.opened_at_h,
          r.resolved_at_h, tuple(sorted(c.value for c in r.root_causes)))
         for r in store.all_reports())
    )


def load_sevs(path, **kwargs) -> SEVStore:
    """A SEV file into a store, the way ``analyze`` loads one."""
    store = SEVStore()
    store.bulk_load(read_records(path, "sevs", **kwargs))
    return store


def load_tickets(path) -> TicketDatabase:
    """A ticket file into a database, renumbered, as ``analyze`` does."""
    db = TicketDatabase()
    for t in read_records(path, "tickets"):
        db.add_completed(t.link_id, t.vendor, t.started_at_h,
                         t.completed_at_h, t.ticket_type, t.location)
    return db


class TestSevRoundTrip:
    def test_csv(self, small_store, tmp_path):
        path = tmp_path / "sevs.csv"
        assert write_records(small_store.all_reports(), path, "sevs") == 2
        assert reports(load_sevs(path)) == reports(small_store)

    def test_json(self, small_store, tmp_path):
        path = tmp_path / "sevs.json"
        assert write_records(small_store.all_reports(), path, "sevs") == 2
        assert reports(load_sevs(path)) == reports(small_store)

    def test_multi_cause_preserved(self, small_store, tmp_path):
        path = tmp_path / "sevs.csv"
        write_records(small_store.all_reports(), path, "sevs")
        assert len(load_sevs(path).get("s0").root_causes) == 2

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"nope": []}')
        with pytest.raises(ValueError, match="missing"):
            load_sevs(path)

    def test_paper_corpus_round_trips(self, paper_store, tmp_path):
        path = tmp_path / "full.csv"
        count = write_records(paper_store.all_reports(), path, "sevs")
        assert count == len(paper_store)
        assert len(load_sevs(path)) == len(paper_store)


class TestTicketRoundTrip:
    def test_csv(self, small_db, tmp_path):
        path = tmp_path / "tickets.csv"
        assert write_records(small_db.completed(), path, "tickets") == 2
        loaded = load_tickets(path)
        assert len(loaded) == 2
        (a, b) = sorted(loaded, key=lambda t: t.started_at_h)
        assert a.vendor == "v0" and a.location == "Europe"
        assert b.ticket_type is TicketType.MAINTENANCE

    def test_json(self, small_db, tmp_path):
        path = tmp_path / "tickets.json"
        assert write_records(small_db.completed(), path, "tickets") == 2
        assert load_tickets(path).vendors() == ["v0", "v1"]

    def test_open_ticket_rejected(self, tmp_path):
        from repro.backbone.emails import format_start_email, parse_vendor_email

        db = TicketDatabase()
        db.ingest(parse_vendor_email(
            format_start_email("fbl-9", "v", 1.0)
        ))
        # Open tickets are excluded from completed() and so export 0.
        assert write_records(db.completed(), tmp_path / "t.csv",
                             "tickets") == 0

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"wrong": 1}')
        with pytest.raises(ValueError, match="missing"):
            load_tickets(path)

    def test_jsonl(self, small_db, tmp_path):
        path = tmp_path / "tickets.jsonl"
        assert write_records(small_db.completed(), path, "tickets") == 2
        loaded = load_tickets(path)
        assert len(loaded) == 2
        assert loaded.vendors() == ["v0", "v1"]
        (a, b) = sorted(loaded, key=lambda t: t.started_at_h)
        assert a.location == "Europe"
        assert b.ticket_type is TicketType.MAINTENANCE


class TestTicketStreaming:
    def test_iterators_agree_across_formats(self, small_db, tmp_path):
        key = lambda t: (t.started_at_h, t.link_id, t.vendor,
                         t.ticket_type, t.completed_at_h, t.location)
        expected = sorted(map(key, small_db.completed()))
        for suffix in (".jsonl", ".csv", ".json"):
            path = tmp_path / f"t{suffix}"
            write_records(small_db.completed(), path, "tickets")
            assert sorted(map(key, read_records(path, "tickets"))) \
                == expected

    def test_json_iterator_rejects_sev_export(self, small_store, tmp_path):
        write_records(small_store.all_reports(), tmp_path / "sevs.json",
                      "sevs")
        with pytest.raises(ValueError, match="not a 'tickets' export"):
            list(read_records(tmp_path / "sevs.json", "tickets"))


class TestSniffDataset:
    def test_every_export_identified(self, corpora, tmp_path):
        for dataset, records in corpora.items():
            for suffix in SUFFIXES:
                path = tmp_path / f"{dataset}{suffix}"
                write_records(records, path, dataset)
                assert sniff_dataset(path) == dataset, path

    def test_unknown_suffix_rejected(self, tmp_path):
        path = tmp_path / "data.xml"
        path.write_text("<data/>")
        with pytest.raises(ValueError, match="unsupported dataset format"):
            sniff_dataset(path)

    def test_unrecognized_content_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="neither a SEV nor a ticket"):
            sniff_dataset(path)


class TestSuffixRule:
    @pytest.mark.parametrize("name, fmt", [
        ("a.csv", "csv"), ("a.json", "json"), ("a.jsonl", "jsonl"),
        ("a.jsonl.gz", "jsonl"), ("A.JSONL.GZ", "jsonl"), ("A.CSV", "csv"),
    ])
    def test_accepted(self, name, fmt):
        assert data_format(name) == fmt

    @pytest.mark.parametrize("suffix", BAD_SUFFIXES + (".xml", ""))
    def test_refused_naming_the_accepted_suffixes(self, suffix):
        with pytest.raises(ValueError) as exc:
            data_format(f"a{suffix}")
        assert str(exc.value) == (
            f"a{suffix}: unsupported dataset format "
            "(expected .csv, .json, .jsonl or .jsonl.gz)"
        )


@pytest.mark.parametrize("dataset", DATASETS)
class TestCodec:
    """Each dataset through each suffix, and the JSONL reader's modes."""

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_round_trip_returns_equal_records(self, corpora, tmp_path,
                                              dataset, suffix):
        path = tmp_path / f"{dataset}{suffix}"
        assert write_records(corpora[dataset], path, dataset) == 2
        assert list(read_records(path, dataset)) == corpora[dataset]

    def test_csv_header_is_the_field_list(self, corpora, tmp_path, dataset):
        path = tmp_path / f"{dataset}.csv"
        write_records(corpora[dataset], path, dataset)
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert tuple(header) == CODECS[dataset].fields
        assert list(CODECS[dataset].to_row(corpora[dataset][0])) == header

    def test_jsonl_gz_is_gzip_on_disk(self, corpora, tmp_path, dataset):
        plain, packed = tmp_path / "a.jsonl", tmp_path / "b.jsonl.gz"
        write_records(corpora[dataset], plain, dataset)
        write_records(corpora[dataset], packed, dataset)
        assert packed.read_bytes()[:2] == b"\x1f\x8b"
        assert gzip.decompress(packed.read_bytes()) == plain.read_bytes()

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_strict_jsonl_raises_with_file_and_line(self, corpora, tmp_path,
                                                    dataset, suffix):
        path = tmp_path / f"torn{suffix}"
        write_records(corpora[dataset], path, dataset)
        with open_text(path) as handle:
            first, second = handle.read().splitlines()
        with open_text(path, "w") as handle:
            handle.write(first + "\n" + second[:-10] + "\n")
        reader = read_records(path, dataset)
        assert next(reader) == corpora[dataset][0]
        with pytest.raises(ValueError,
                           match=rf"{path.name}:2: malformed JSONL row"):
            next(reader)

    def test_tolerant_jsonl_counts_every_skipped_line(self, corpora,
                                                      tmp_path, dataset):
        path = tmp_path / "feed.jsonl"
        write_records(corpora[dataset], path, dataset)
        good = path.read_text().splitlines()
        path.write_text("\n".join([
            "", good[0], "{torn", json.dumps({"foreign": 1}), "[1, 2]",
            good[1], good[1][:5],
        ]) + "\n")
        errors = ReadErrors()
        records = list(read_records(path, dataset, strict=False,
                                    errors=errors))
        assert records == corpora[dataset]
        assert [line for line, _ in errors.lines] == [3, 4, 5, 7]
        assert errors.skipped == 4

    def test_fault_site_tears_lines(self, tmp_path, dataset, paper_store,
                                    backbone_corpus):
        records = {"sevs": list(paper_store.all_reports()),
                   "tickets": backbone_corpus.tickets.completed()}[dataset]
        path = tmp_path / "feed.jsonl"
        total = write_records(records[:200], path, dataset)
        plan = lambda: FaultPlan(
            5, [FaultSpec("io.jsonl.line", probability=0.2)])
        tolerant, errors = plan(), ReadErrors()
        with hooks.injected(tolerant):
            survivors = sum(1 for _ in read_records(
                path, dataset, strict=False, errors=errors))
        assert tolerant.fired() > 0
        assert errors.skipped == tolerant.fired()
        assert survivors + errors.skipped == total
        # The same plan tears the same first line under a strict read.
        with hooks.injected(plan()):
            with pytest.raises(ValueError, match="malformed JSONL row"):
                list(read_records(path, dataset))

    def test_json_without_its_key_refused(self, corpora, tmp_path, dataset):
        other = "tickets" if dataset == "sevs" else "sevs"
        path = tmp_path / "other.json"
        write_records(corpora[other], path, other)
        with pytest.raises(ValueError,
                           match=f"missing '{dataset}' key"):
            list(read_records(path, dataset))

    @pytest.mark.parametrize("suffix", BAD_SUFFIXES)
    def test_unsupported_suffix_writes_nothing(self, corpora, tmp_path,
                                               dataset, suffix):
        path = tmp_path / f"out{suffix}"
        with pytest.raises(ValueError, match=r"expected \.csv"):
            write_records(corpora[dataset], path, dataset)
        assert not path.exists()
        path.write_text("x")
        with pytest.raises(ValueError, match=r"expected \.csv"):
            read_records(path, dataset)


@pytest.mark.parametrize("suffix", SUFFIXES)
def test_ticket_import_renumbers(small_db, tmp_path, suffix):
    # Tickets written under ids the database would not give them.
    tickets = [TICKET_CODEC.from_row(dict(TICKET_CODEC.to_row(t),
                                          ticket_id=f"ext-{n}"))
               for n, t in enumerate(small_db.completed())]
    path = tmp_path / f"t{suffix}"
    write_records(tickets, path, "tickets")
    loaded = load_tickets(path).completed()
    assert [t.ticket_id for t in loaded] == ["fib-000000", "fib-000001"]
    fields = lambda t: dict(TICKET_CODEC.to_row(t), ticket_id=None)
    assert list(map(fields, loaded)) == list(map(fields, tickets))


class TestTicketCodec:
    def test_exporting_an_open_ticket_is_refused(self, tmp_path):
        from repro.backbone.emails import format_start_email, parse_vendor_email

        db = TicketDatabase()
        ticket = db.ingest(parse_vendor_email(
            format_start_email("fbl-9", "v", 1.0)
        ))
        with pytest.raises(ValueError, match="cannot export open ticket"):
            write_records([ticket], tmp_path / "t.jsonl", "tickets")

    def test_ticket_fingerprint_is_pinned(self):
        """The ticket field list is hashed into ticket cache keys."""
        from repro import BackboneSimulator, paper_backbone_scenario
        from repro.runtime.cache import ticket_fingerprint

        scenario = paper_backbone_scenario(seed=7)
        db = BackboneSimulator(scenario).run().tickets
        assert len(db.completed()) == 4054
        assert ticket_fingerprint(
            db, seed=7, scenario=scenario.spec_digest
        ) == ("0d2bbb12ca4990d6e4d826e8c13b0cac"
              "720718ce9e6b9dc7b5a57b79cf1d72d8")
