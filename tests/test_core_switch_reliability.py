"""Tests for Figures 12-14 analyses (section 5.6)."""

import math

import pytest

from repro.core.switch_reliability import (
    irt_fleet_correlation,
    irt_vs_fleet_size,
)
from repro.topology.devices import DeviceType, NetworkDesign


@pytest.fixture(scope="module")
def reliability_intra(paper_report):
    return paper_report.switches


class TestFigure12:
    def test_2017_mtbi_anchors(self, reliability_intra):
        # Cores: 39,495 device-hours; RSWs: 9,958,828 device-hours.
        assert reliability_intra.mtbi(2017, DeviceType.CORE) == pytest.approx(
            39_495, rel=0.02
        )
        assert reliability_intra.mtbi(2017, DeviceType.RSW) == pytest.approx(
            9_958_828, rel=0.02
        )

    def test_design_averages(self, reliability_intra):
        fabric = reliability_intra.design_mtbi(2017, NetworkDesign.FABRIC)
        cluster = reliability_intra.design_mtbi(2017, NetworkDesign.CLUSTER)
        assert fabric == pytest.approx(2_636_818, rel=0.03)
        assert cluster == pytest.approx(822_518, rel=0.03)

    def test_fabric_fails_3x_less(self, reliability_intra):
        assert reliability_intra.fabric_advantage(2017) == pytest.approx(
            3.2, abs=0.15
        )

    def test_spread_spans_orders_of_magnitude(self, reliability_intra):
        assert reliability_intra.mtbi_spread_orders(2017) > 2.0

    def test_csa_mtbi_improves_by_orders_2014_to_2016(self, reliability_intra):
        # Section 5.6: CSA operational improvements raised MTBI by two
        # orders of magnitude between 2014 and 2016.
        before = reliability_intra.mtbi(2014, DeviceType.CSA)
        after = reliability_intra.mtbi(2016, DeviceType.CSA)
        assert after / before > 10

    def test_mtbi_stable_within_10x_for_most_types(self, reliability_intra):
        # Over seven years MTBI changed less than 10x per type, except
        # CSAs (section 5.6).
        for t in (DeviceType.CORE, DeviceType.RSW):
            series = [
                reliability_intra.mtbi(y, t)
                for y in range(2011, 2018)
                if t in reliability_intra.mtbi_h.get(y, {})
            ]
            finite = [v for v in series if math.isfinite(v)]
            assert max(finite) / min(finite) < 10

    def test_missing_lookup_raises(self, reliability_intra):
        with pytest.raises(KeyError):
            reliability_intra.mtbi(2012, DeviceType.FSW)
        with pytest.raises(KeyError):
            reliability_intra.p75_irt(1999, DeviceType.RSW)


class TestFigure13:
    def test_p75_irt_grows_over_time(self, reliability_intra):
        # Section 5.6: p75IRT increased similarly across switch types.
        for t in (DeviceType.CORE, DeviceType.RSW, DeviceType.CSW):
            first = reliability_intra.p75_irt(2011, t)
            last = reliability_intra.p75_irt(2017, t)
            assert last > 20 * first

    def test_p75_magnitudes(self, reliability_intra):
        assert reliability_intra.p75_irt(2011, DeviceType.RSW) < 10
        assert 100 < reliability_intra.p75_irt(2017, DeviceType.RSW) < 1000


class TestFigure14:
    def test_positive_correlation(self, paper_store, fleet):
        assert irt_fleet_correlation(paper_store, fleet) > 0.7

    def test_points_shape(self, paper_store, fleet):
        points = irt_vs_fleet_size(paper_store, fleet)
        assert len(points) == 7
        for irt, norm in points:
            assert irt > 0
            assert 0 < norm <= 1.0

    def test_correlation_needs_points(self, fleet):
        from repro.incidents.store import SEVStore

        with SEVStore() as empty:
            with pytest.raises(ValueError):
                irt_fleet_correlation(empty, fleet)
