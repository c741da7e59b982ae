"""CLI surface of the tiered store: store init/compact/status,
report/stream --store-dir, --cache-prune, and compressed exports."""

import json

import pytest

from repro.cli import main
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.storage import PartitionedSEVStore


def _digest(out):
    for line in out.splitlines():
        if line.startswith("report_digest:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no report_digest line in output:\n{out}")


@pytest.fixture(scope="module")
def sev_store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-store") / "sev"
    assert main(["store", "init", str(path),
                 "--seed", "4", "--scale", "0.05"]) == 0
    return str(path)


@pytest.fixture(scope="module")
def ticket_store_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-store") / "tickets"
    assert main(["store", "init", str(path),
                 "--dataset", "tickets", "--seed", "4"]) == 0
    return str(path)


class TestStoreCommands:
    def test_init_reports_partitions(self, tmp_path, capsys):
        path = tmp_path / "st"
        assert main(["store", "init", str(path),
                     "--seed", "2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "initialized sev store" in out
        assert "partitions" in out

    def test_status_prints_manifest_json(self, sev_store_dir, capsys):
        assert main(["store", "status", sev_store_dir]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["domain"] == "sev"
        assert status["rows"] > 0
        assert set(status["tiers"]) == {"hot", "cold"}

    def test_compact_demotes_old_years(self, tmp_path, capsys):
        path = tmp_path / "st"
        assert main(["store", "init", str(path),
                     "--seed", "2", "--scale", "0.02"]) == 0
        capsys.readouterr()
        assert main(["store", "compact", str(path),
                     "--keep-hot-years", "1"]) == 0
        out = capsys.readouterr().out
        assert "compacted:" in out
        assert main(["store", "status", str(path)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["tiers"]["cold"] > 0


    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_init_builds_the_store_ingest_builds(self, tmp_path, seed):
        # ``store init`` generates into partition shards directly; the
        # manifest (every partition's rows, digest, tier and file) must
        # be byte-identical to ingesting the generated monolithic
        # store's scan, before and after compaction.
        fresh, old_way = tmp_path / "init", tmp_path / "ingest"
        assert main(["store", "init", str(fresh), "--seed", str(seed),
                     "--scale", "0.25"]) == 0
        scenario = paper_scenario(seed=seed, scale=0.25)
        PartitionedSEVStore.init(old_way, meta={
            "dataset": "sevs", "seed": seed, "scale": 0.25,
        }).ingest(IntraSimulator(scenario).run().all_reports())

        def same_manifest():
            return ((fresh / "manifest.json").read_bytes()
                    == (old_way / "manifest.json").read_bytes())

        assert same_manifest()
        for path in (fresh, old_way):
            assert main(["store", "compact", str(path),
                         "--keep-hot-years", "3"]) == 0
        assert same_manifest()


class TestReportOverStore:
    def test_backends_match_generated_digest(self, sev_store_dir, capsys):
        assert main(["report", "intra", "--seed", "4", "--scale", "0.05",
                     "--digest"]) == 0
        expected = _digest(capsys.readouterr().out)
        for extra in ([], ["--jobs", "2"], ["--jobs", "auto"]):
            assert main(["report", "intra", "--store-dir", sev_store_dir,
                         "--digest"] + extra) == 0
            assert _digest(capsys.readouterr().out) == expected

    def test_compacted_store_keeps_digest(self, sev_store_dir, capsys):
        assert main(["report", "intra", "--store-dir", sev_store_dir,
                     "--digest"]) == 0
        before = _digest(capsys.readouterr().out)
        assert main(["store", "compact", sev_store_dir,
                     "--keep-hot-years", "1"]) == 0
        capsys.readouterr()
        assert main(["report", "intra", "--store-dir", sev_store_dir,
                     "--digest"]) == 0
        assert _digest(capsys.readouterr().out) == before

    def test_backbone_store_matches_generated(self, ticket_store_dir,
                                              capsys):
        assert main(["report", "backbone", "--seed", "4",
                     "--digest"]) == 0
        expected = _digest(capsys.readouterr().out)
        assert main(["report", "backbone", "--store-dir",
                     ticket_store_dir, "--digest"]) == 0
        assert _digest(capsys.readouterr().out) == expected

    @pytest.mark.parametrize("study, store, held, needs", [
        ("intra", "ticket_store_dir", "ticket", "SEV"),
        ("backbone", "sev_store_dir", "sev", "ticket"),
    ], ids=["intra", "backbone"])
    def test_store_of_the_other_domain_is_refused(self, request, study,
                                                  store, held, needs):
        path = request.getfixturevalue(store)
        with pytest.raises(SystemExit) as exc:
            main(["report", study, "--store-dir", path])
        assert exc.value.code == (
            f"{path} holds a {held!r} store; "
            f"'report {study}' needs a {needs} store"
        )

    def test_full_refuses_store_dir(self, sev_store_dir):
        with pytest.raises(SystemExit):
            main(["report", "full", "--store-dir", sev_store_dir])


class TestStreamOverStore:
    def test_sev_store_replay(self, sev_store_dir, capsys):
        assert main(["stream", "--store-dir", sev_store_dir]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out
        assert "partitions" in out

    def test_ticket_store_replay(self, ticket_store_dir, capsys):
        assert main(["stream", "--store-dir", ticket_store_dir]) == 0
        out = capsys.readouterr().out
        assert "tickets" in out


class TestCachePrune:
    def test_requires_cache_dir(self):
        with pytest.raises(SystemExit):
            main(["report", "intra", "--seed", "4", "--scale", "0.05",
                  "--cache-prune", "1k"])

    def test_prunes_after_report(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        args = ["report", "intra", "--seed", "4", "--scale", "0.05",
                "--cache", cache]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--cache-prune", "0"]) == 0
        out = capsys.readouterr().out
        assert "[cache] pruned" in out
        assert "0 bytes on disk" in out

    def test_size_suffixes(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["report", "intra", "--seed", "4", "--scale", "0.05",
                     "--cache", cache, "--cache-prune", "1g"]) == 0
        out = capsys.readouterr().out
        assert "pruned 0 entries" in out


class TestCompressedExports:
    def test_export_analyze_gz(self, tmp_path, capsys):
        path = tmp_path / "sevs.jsonl.gz"
        assert main(["export", "sevs", str(path),
                     "--seed", "4", "--scale", "0.05"]) == 0
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_export_analyze_tickets_gz(self, tmp_path, capsys):
        path = tmp_path / "tickets.jsonl.gz"
        assert main(["export", "tickets", str(path), "--seed", "4"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        assert "completed tickets" in capsys.readouterr().out
