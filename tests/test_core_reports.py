"""Tests for the full-study report composer."""

import pytest

from repro.incidents.store import SEVStore
from repro.runtime import RunContext, run_backbone_report, run_intra_report
from repro.topology.devices import DeviceType


@pytest.fixture(scope="module")
def backbone_report(backbone_corpus):
    return run_backbone_report(RunContext(
        tickets=backbone_corpus.tickets, topology=backbone_corpus.topology,
        window_h=backbone_corpus.window_h,
    ))


class TestIntraStudyReport:
    def test_composes_all_analyses(self, paper_report):
        assert paper_report.last_year == 2017
        assert paper_report.growth == pytest.approx(9.4, abs=0.2)
        assert paper_report.root_causes.total_attributions > 2000
        assert paper_report.rates.rate(2013, DeviceType.CSA) > 1.0

    def test_render_contains_artifacts(self, paper_report):
        text = paper_report.render()
        assert "Table 2" in text
        assert "Figure 4" in text
        assert "Figures 3/7/12" in text
        assert "cluster inflection" in text
        assert "maintenance" in text

    def test_explicit_year(self, paper_store, fleet):
        report = run_intra_report(
            RunContext(store=paper_store, fleet=fleet, year=2015)
        )
        assert report.last_year == 2015

    def test_pre_fabric_year_renders(self, paper_store, fleet):
        # 2013 has no fabric incidents at all; the report must still
        # render (fabric/cluster ratio is simply 0%).
        report = run_intra_report(
            RunContext(store=paper_store, fleet=fleet, year=2013)
        )
        text = report.render()
        assert "2013" in text
        assert "fabric/cluster 2013: 0%" in text

    def test_empty_store_rejected(self, fleet):
        with SEVStore() as empty:
            with pytest.raises(ValueError, match="empty"):
                run_intra_report(RunContext(store=empty, fleet=fleet))


class TestBackboneStudyReport:
    def test_composes(self, backbone_report):
        assert backbone_report.reliability.edge_mtbf.p50 > 1000
        assert len(backbone_report.continents) == 6

    def test_render(self, backbone_report):
        text = backbone_report.render()
        assert "Figures 15-18" in text
        assert "Table 4" in text
        assert "north_america" in text
        assert "exp(" in text
