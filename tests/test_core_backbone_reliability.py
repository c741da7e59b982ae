"""Tests for Figures 15-18 and Table 4 analyses (section 6)."""

import pytest

from repro.core.backbone_reliability import (
    continent_rows_from_failures,
    reliability_from_outages,
)
from repro.topology.backbone import Continent


@pytest.fixture(scope="module")
def table4(backbone_monitor, backbone_corpus):
    return continent_rows_from_failures(
        backbone_monitor.failures_by_edge(), backbone_corpus.topology,
        backbone_corpus.window_h,
    )


class TestFigure15EdgeMTBF:
    def test_p50_matches_paper(self, reliability):
        # 50% of edges fail less than once every ~1710 hours.
        assert reliability.edge_mtbf.p50 == pytest.approx(1710, rel=0.15)

    def test_p90_matches_paper(self, reliability):
        # 90% fail less than once every ~3521 hours.
        assert reliability.edge_mtbf.p90 == pytest.approx(3521, rel=0.25)

    def test_model_constants(self, reliability):
        model = reliability.edge_mtbf_model()
        # Paper: 462.88 * exp(2.3408 p), R^2 = 0.94.
        assert model.a == pytest.approx(462.88, rel=0.25)
        assert model.b == pytest.approx(2.3408, rel=0.15)
        assert model.r2 > 0.85

    def test_failure_scale_weeks_to_months(self, reliability):
        # Edges typically fail on the order of weeks to months.
        assert 24 * 7 < reliability.edge_mtbf.p50 < 24 * 150


class TestFigure16EdgeMTTR:
    def test_p50_matches_paper(self, reliability):
        # 50% of edges recover within ~10 hours.
        assert reliability.edge_mttr.p50 == pytest.approx(10, rel=0.35)

    def test_p90_matches_paper(self, reliability):
        # 90% within ~71 hours.
        assert reliability.edge_mttr.p90 == pytest.approx(71, rel=0.4)

    def test_slow_outlier_exists(self, reliability):
        # Some edges take days: the remote-island effect.
        assert reliability.edge_mttr.max > 200

    def test_model_shape(self, reliability):
        model = reliability.edge_mttr_model()
        assert model.a == pytest.approx(1.513, rel=0.5)
        assert model.b == pytest.approx(4.256, rel=0.15)
        assert model.r2 > 0.85


class TestFigure17VendorMTBF:
    def test_exponential_spread(self, reliability):
        curve = reliability.vendor_mtbf
        # Orders of magnitude between the extremes (section 6.2).
        assert curve.max / curve.min > 50

    def test_flaky_vendor_at_bottom(self, reliability):
        assert reliability.vendor_mtbf.entities[0] == "vendor-flaky"
        assert reliability.vendor_mtbf.min < 100

    def test_model_fits(self, reliability):
        assert reliability.vendor_mtbf_model().r2 > 0.6


class TestFigure18VendorMTTR:
    def test_p50_matches_paper(self, reliability):
        # 50% of vendors repair within ~13 hours.
        assert reliability.vendor_mttr.p50 == pytest.approx(13, rel=0.4)

    def test_model_shape(self, reliability):
        model = reliability.vendor_mttr_model()
        assert model.b == pytest.approx(4.77, rel=0.4)
        assert model.r2 > 0.8


class TestTable4:
    def test_all_continents_present(self, table4):
        assert {r.continent for r in table4} == set(Continent)

    def test_shares(self, table4):
        rows = {r.continent: r for r in table4}
        assert rows[Continent.NORTH_AMERICA].share == pytest.approx(0.37)
        assert rows[Continent.AUSTRALIA].share == pytest.approx(0.02)

    def test_africa_most_reliable(self, table4):
        rows = {r.continent: r for r in table4}
        # Table 4: Africa's MTBF (5400 h) is the outlier high.
        others = [
            r.mtbf_h for c, r in rows.items()
            if c is not Continent.AFRICA and r.mtbf_h
        ]
        assert rows[Continent.AFRICA].mtbf_h > max(others)

    def test_australia_fastest_recovery(self, table4):
        rows = {r.continent: r for r in table4}
        # Table 4: Australian edges recover in ~2 hours, the fastest.
        others = [
            r.mttr_h for c, r in rows.items()
            if c is not Continent.AUSTRALIA and r.mttr_h
        ]
        assert rows[Continent.AUSTRALIA].mttr_h < min(others)

    def test_all_recover_within_days(self, table4):
        # Across continents, edges recover within ~1 day on average
        # (the outlier edge stretches its continent somewhat).
        for row in table4:
            assert row.mttr_h is None or row.mttr_h < 72


class TestValidation:
    def test_empty_corpus_rejected(self, backbone_corpus):
        from repro.backbone.monitor import BackboneMonitor
        from repro.backbone.tickets import TicketDatabase

        empty = BackboneMonitor(backbone_corpus.topology, TicketDatabase())
        with pytest.raises(ValueError):
            reliability_from_outages(
                empty.failures_by_edge(), empty.outages_by_vendor(),
                backbone_corpus.window_h,
            )

    def test_bad_window_rejected(self, backbone_monitor):
        with pytest.raises(ValueError):
            reliability_from_outages(
                backbone_monitor.failures_by_edge(),
                backbone_monitor.outages_by_vendor(), 0.0,
            )
