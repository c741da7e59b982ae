"""Adversarial inputs for sniff_dataset and the JSONL reader.

Satellite coverage: every way a data file can be damaged — empty,
blank lines only, a torn final line, a wrong schema — must produce
either a plain :class:`ValueError` naming the file (strict) or a
counted skip (``strict=False``), never a raw decoder traceback or a
silent wrong answer.
"""

from __future__ import annotations

import json

import pytest

from repro.faultline import FaultPlan, FaultSpec, hooks
from repro.incidents.store import SEVStore
from repro.io import ReadErrors, read_records, sniff_dataset, write_records
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario


@pytest.fixture(scope="module")
def corpus():
    return IntraSimulator(paper_scenario(seed=5, scale=0.05)).run()


@pytest.fixture
def jsonl(tmp_path, corpus):
    path = tmp_path / "sevs.jsonl"
    total = write_records(corpus.all_reports(), path, "sevs")
    return path, total


class TestSniffAdversarial:
    def test_empty_files(self, tmp_path):
        for name in ("empty.csv", "empty.json", "empty.jsonl"):
            path = tmp_path / name
            path.write_text("")
            with pytest.raises(ValueError, match="empty dataset file"):
                sniff_dataset(path)

    def test_blank_lines_only_jsonl(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n   \n\t\n")
        with pytest.raises(ValueError, match="empty dataset file"):
            sniff_dataset(path)

    def test_torn_first_row_jsonl(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"sev_id": "SEV-1", "sev')
        with pytest.raises(ValueError, match="invalid JSONL first row"):
            sniff_dataset(path)

    def test_invalid_json_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="invalid JSON"):
            sniff_dataset(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps({"user_id": 1, "name": "x"}) + "\n")
        with pytest.raises(ValueError,
                           match="neither a SEV nor a ticket export"):
            sniff_dataset(path)
        doc = tmp_path / "foreign.json"
        doc.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError):
            sniff_dataset(doc)

    def test_non_dict_jsonl_row(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError,
                           match="neither a SEV nor a ticket export"):
            sniff_dataset(path)

    def test_unsupported_suffix(self, tmp_path):
        path = tmp_path / "data.parquet"
        path.write_text("x")
        with pytest.raises(ValueError, match="unsupported dataset format"):
            sniff_dataset(path)

    def test_healthy_files_still_sniff(self, jsonl):
        path, _ = jsonl
        assert sniff_dataset(path) == "sevs"


class TestStrictReader:
    def test_torn_final_line_raises_with_location(self, jsonl):
        """strict=True names the file and the 1-based line number."""
        path, total = jsonl
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 20] + "\n")
        with pytest.raises(ValueError, match=rf"{path.name}:{total}:"):
            list(read_records(path, "sevs"))

    def test_wrong_schema_row_raises(self, tmp_path, jsonl):
        path, _ = jsonl
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            path.read_text().splitlines()[0] + "\n"
            + json.dumps({"user_id": 1}) + "\n"
        )
        with pytest.raises(ValueError, match="malformed JSONL row"):
            list(read_records(bad, "sevs"))

    def test_tickets_reader_same_contract(self, tmp_path):
        bad = tmp_path / "tickets.jsonl"
        bad.write_text('{"ticket_id": ')
        with pytest.raises(ValueError, match="malformed JSONL row"):
            list(read_records(bad, "tickets"))


class TestTolerantReader:
    def test_torn_final_line_skipped_and_counted(self, jsonl):
        path, total = jsonl
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 20] + "\n")
        errors = ReadErrors()
        reports = list(read_records(path, "sevs", strict=False,
                                    errors=errors))
        assert len(reports) == total - 1
        assert errors.skipped == 1
        (line_no, reason) = errors.lines[0]
        assert line_no == total
        assert reason
        assert bool(errors)

    def test_blank_lines_are_not_errors(self, tmp_path, jsonl):
        path, total = jsonl
        padded = tmp_path / "padded.jsonl"
        padded.write_text("\n" + path.read_text() + "\n\n")
        errors = ReadErrors()
        reports = list(read_records(padded, "sevs", strict=False,
                                    errors=errors))
        assert len(reports) == total
        assert errors.skipped == 0
        assert not errors

    def test_every_line_accounted_under_injected_tears(self, jsonl):
        """yielded + skipped == total, even with io.jsonl.line firing."""
        path, total = jsonl
        plan = FaultPlan(5, [FaultSpec("io.jsonl.line", probability=0.2)])
        errors = ReadErrors()
        with hooks.injected(plan):
            survivors = sum(
                1 for _ in read_records(path, "sevs", strict=False,
                                        errors=errors)
            )
        assert plan.fired() > 0
        assert errors.skipped == plan.fired()
        assert survivors + errors.skipped == total

    def test_import_tolerant_loads_survivors(self, jsonl):
        path, total = jsonl
        text = path.read_text().rstrip("\n")
        path.write_text(text[: len(text) - 20] + "\n")
        errors = ReadErrors()
        store = SEVStore()
        store.bulk_load(read_records(path, "sevs", strict=False,
                                     errors=errors))
        assert len(store) == total - 1
        assert errors.skipped == 1
