"""Tests for Figures 9-11 analyses (section 5.5)."""

import pytest

from repro.core.design_comparison import population_breakdown
from repro.topology.devices import DeviceType, NetworkDesign


@pytest.fixture(scope="module")
def comparison(paper_report):
    return paper_report.designs


class TestFigure9:
    def test_fabric_half_of_cluster_2017(self, comparison):
        assert comparison.fabric_to_cluster_ratio(2017) == pytest.approx(
            0.5, abs=0.05
        )

    def test_cluster_inflection_2015(self, comparison):
        assert comparison.cluster_inflection_year() == 2015

    def test_no_fabric_incidents_before_deployment(self, comparison):
        for year in (2011, 2012, 2013, 2014):
            assert comparison.count(year, NetworkDesign.FABRIC) == 0

    def test_normalized_to_2017_baseline(self, comparison):
        # Figure 9 normalizes to the 2017 design-incident total.
        total_2017 = (comparison.count(2017, NetworkDesign.CLUSTER)
                      + comparison.count(2017, NetworkDesign.FABRIC))
        assert comparison.normalized(2017, NetworkDesign.CLUSTER) == (
            pytest.approx(
                comparison.count(2017, NetworkDesign.CLUSTER) / total_2017
            )
        )


class TestFigure10:
    def test_fabric_lower_per_device(self, comparison):
        # Since introduction, fabric has fewer incidents per device.
        for year in (2015, 2016, 2017):
            assert comparison.per_device(year, NetworkDesign.FABRIC) < (
                comparison.per_device(year, NetworkDesign.CLUSTER)
            )

    def test_cluster_rate_peaks_by_2014(self, comparison):
        rates = {
            y: comparison.per_device(y, NetworkDesign.CLUSTER)
            for y in comparison.years
        }
        peak = max(rates, key=rates.get)
        assert peak in (2013, 2014)

    def test_absent_design_rate_zero(self, comparison):
        assert comparison.per_device(2012, NetworkDesign.FABRIC) == 0.0


class TestFigure11:
    def test_population_fractions(self, fleet):
        breakdown = population_breakdown(fleet)
        for year, per_type in breakdown.items():
            assert sum(per_type.values()) == pytest.approx(1.0)

    def test_fabric_types_missing_before_2015(self, fleet):
        breakdown = population_breakdown(fleet)
        assert DeviceType.FSW not in breakdown[2014]
        assert DeviceType.FSW in breakdown[2015]

    def test_rsw_fraction_dominates(self, fleet):
        breakdown = population_breakdown(fleet)
        for year, per_type in breakdown.items():
            assert per_type[DeviceType.RSW] == max(per_type.values())
