"""Tests for Figures 7-8 analyses (section 5.4)."""

import pytest

from repro.core.distribution import growth_from_totals
from repro.incidents.query import SEVQuery
from repro.incidents.store import SEVStore
from repro.runtime import Executor, RunContext
from repro.runtime.analyses import DistributionAnalysis
from repro.topology.devices import DeviceType


@pytest.fixture(scope="module")
def dist(paper_report):
    return paper_report.distribution


class TestFigure7:
    def test_core_and_rsw_dominate_2017(self, dist):
        # Section 5.4: Cores ~34%, RSWs ~28%.
        assert dist.fraction_of_year(2017, DeviceType.CORE) == pytest.approx(
            0.34, abs=0.01
        )
        assert dist.fraction_of_year(2017, DeviceType.RSW) == pytest.approx(
            0.28, abs=0.01
        )

    def test_cluster_fraction_shrinks_over_time(self, dist):
        csa_2013 = dist.fraction_of_year(2013, DeviceType.CSA)
        csa_2017 = dist.fraction_of_year(2017, DeviceType.CSA)
        assert csa_2017 < csa_2013 / 5

    def test_fabric_fraction_grows(self, dist):
        assert dist.fraction_of_year(2017, DeviceType.FSW) > (
            dist.fraction_of_year(2015, DeviceType.FSW)
        )

    def test_fractions_sum_to_one(self, dist):
        for year in dist.years:
            total = sum(
                dist.fraction_of_year(year, t) for t in DeviceType
            )
            assert total == pytest.approx(1.0)

    def test_top_contributors(self, dist):
        assert dist.top_contributors(2017, k=2) == [
            DeviceType.CORE, DeviceType.RSW
        ]


class TestFigure8:
    def test_baseline_normalization(self, dist):
        # Each type's 2017 bar equals its share of the 2017 total.
        assert dist.normalized(2017, DeviceType.CORE) == pytest.approx(
            0.34, abs=0.01
        )
        # 2011 bars are small relative to the 2017 baseline.
        assert dist.normalized(2011, DeviceType.CORE) < 0.05

    def test_rsw_incidents_increase_over_time(self, dist):
        # Section 5.4: RSW-related incidents steadily increase.
        series = [dist.count(y, DeviceType.RSW) for y in dist.years]
        assert series[-1] > series[0] * 5

    def test_growth_factor(self, paper_store, paper_report):
        # Total SEVs grew 9.4x from 2011 to 2017: the report's growth
        # spans the corpus years, the finalizer takes any two.
        growth = growth_from_totals(
            SEVQuery(paper_store).count_by_year(), 2011, 2017
        )
        assert growth == pytest.approx(9.4, abs=0.1)
        assert paper_report.growth == growth

    def test_growth_with_empty_base_year(self):
        with SEVStore() as store:
            with pytest.raises(ValueError):
                growth_from_totals(SEVQuery(store).count_by_year(), 2011, 2017)

    def test_missing_baseline_year_raises(self, paper_store, fleet):
        empty_base = Executor().run(
            [DistributionAnalysis()],
            RunContext(store=paper_store, fleet=fleet, baseline_year=1999),
        )["distribution"]
        with pytest.raises(ValueError):
            empty_base.normalized(2017, DeviceType.CORE)
