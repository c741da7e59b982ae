"""Tests for Figure 3 analysis (section 5.2)."""

import pytest

from repro.fleet.population import FleetModel, FleetSnapshot
from repro.incidents.sev import SEVReport, Severity, hours_of_year
from repro.incidents.store import SEVStore
from repro.runtime import Executor, RunContext
from repro.runtime.analyses import IncidentRatesAnalysis
from repro.topology.devices import DeviceType


@pytest.fixture(scope="module")
def rates(paper_report):
    return paper_report.rates


class TestPaperFindings:
    def test_csa_rate_exceeds_one_in_2013_2014(self, rates):
        # Section 5.2: incident rates of 1.7x and 1.5x.
        assert rates.rate(2013, DeviceType.CSA) == pytest.approx(1.7, abs=0.05)
        assert rates.rate(2014, DeviceType.CSA) == pytest.approx(1.5, abs=0.05)

    def test_csa_rate_collapses_after_2015(self, rates):
        assert rates.rate(2015, DeviceType.CSA) < 0.5
        assert rates.rate(2017, DeviceType.CSA) < 0.1

    def test_higher_bisection_higher_rate_2017(self, rates):
        # Cores (highest bisection bandwidth) vs RSWs (lowest).
        assert rates.rate(2017, DeviceType.CORE) > 100 * rates.rate(
            2017, DeviceType.RSW
        )

    def test_low_rate_devices_below_one_percent(self, rates):
        # ESW/SSW/FSW/RSW/CSW annual rate < 1% in 2017.
        for t in (DeviceType.ESW, DeviceType.SSW, DeviceType.FSW,
                  DeviceType.RSW, DeviceType.CSW):
            assert rates.rate(2017, t) < 0.01

    def test_fabric_devices_lower_rate_than_cluster_aggregates(self, rates):
        # Fabric FSWs vs cluster CSAs in 2017.
        assert rates.rate(2017, DeviceType.FSW) < rates.rate(
            2017, DeviceType.CSA
        )

    def test_max_rate_type_2013(self, rates):
        assert rates.max_rate_type(2013) is DeviceType.CSA

    def test_ordering_helper(self, rates):
        order = rates.ordered_by_bisection(2017)
        assert order[0] is DeviceType.CORE
        assert order[-1] is DeviceType.RSW


class TestMechanics:
    def test_absent_type_has_no_point(self, rates):
        # No fabric devices existed in 2012, so no rate is reported.
        assert DeviceType.FSW not in rates.rates[2012]
        assert rates.rate(2012, DeviceType.FSW) == 0.0

    def test_missing_year_raises_on_max(self, rates):
        with pytest.raises(KeyError):
            rates.max_rate_type(1999)

    def test_rate_computation(self):
        store = SEVStore()
        base = hours_of_year(2011, 10.0)
        for i in range(5):
            store.insert(SEVReport(
                sev_id=f"s{i}", severity=Severity.SEV3,
                device_name="core.001.plane.dc1.ra",
                opened_at_h=base + i, resolved_at_h=base + i + 1,
            ))
        fleet = FleetModel()
        fleet.add_snapshot(FleetSnapshot(2011, {DeviceType.CORE: 10}))
        result = Executor().run(
            [IncidentRatesAnalysis()], RunContext(store=store, fleet=fleet)
        )["incident_rates"]
        assert result.rate(2011, DeviceType.CORE) == pytest.approx(0.5)
        store.close()
