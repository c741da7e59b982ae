"""End-to-end intra data center reproduction checks.

Each test reruns one of the paper's headline findings over the full
synthetic corpus through the public API, asserting the published
*shape*: who wins, by roughly what factor, and where the inflection
points fall.
"""

import pytest

import repro
from repro import (
    DeviceType,
    NetworkDesign,
    RootCause,
    Severity,
)


@pytest.fixture(scope="module")
def study(paper_store, fleet):
    """The whole intra study through the public API, one executor run."""
    return repro.run_intra_report(
        repro.RunContext(store=paper_store, fleet=fleet)
    )


class TestHeadlineFindings:
    def test_observation_rack_switch_share(self, study):
        """Rack switches contribute ~28% of 2017 incidents."""
        dist = study.distribution
        assert dist.fraction_of_year(2017, DeviceType.RSW) == pytest.approx(
            0.28, abs=0.02
        )

    def test_observation_core_share(self, study):
        """Core devices contribute ~34% of 2017 incidents."""
        dist = study.distribution
        assert dist.fraction_of_year(2017, DeviceType.CORE) == pytest.approx(
            0.34, abs=0.02
        )

    def test_observation_fabric_half_cluster(self, study):
        """Fabric networks produced ~50% of cluster incidents in 2017."""
        comparison = study.designs
        assert comparison.fabric_to_cluster_ratio(2017) == pytest.approx(
            0.5, abs=0.06
        )

    def test_observation_mtbi_three_orders(self, study):
        """2017 MTBI varies by ~3 orders of magnitude across types."""
        sr = study.switches
        assert sr.mtbi_spread_orders(2017) == pytest.approx(2.4, abs=0.5)
        assert sr.mtbi(2017, DeviceType.RSW) > 100 * sr.mtbi(
            2017, DeviceType.CORE
        )

    def test_observation_fabric_3x_reliability(self, study):
        """Fabric switches fail 3.2x less often than cluster switches."""
        sr = study.switches
        assert sr.fabric_advantage(2017) == pytest.approx(3.2, abs=0.2)

    def test_observation_maintenance_top_cause(self, study):
        """Maintenance is the largest determined root cause."""
        breakdown = study.root_causes
        assert breakdown.dominant_determined_cause is RootCause.MAINTENANCE

    def test_observation_incident_growth(self, study):
        """Total SEVs grew ~9.4x from 2011 to 2017."""
        assert study.growth == pytest.approx(9.4, abs=0.2)

    def test_observation_severity_mix(self, study):
        """2017 SEVs split ~82/13/5 across SEV3/SEV2/SEV1."""
        fig4 = study.severity
        assert fig4.level_share(Severity.SEV3) == pytest.approx(0.82, abs=0.02)
        assert fig4.level_share(Severity.SEV1) == pytest.approx(0.05, abs=0.02)

    def test_observation_2015_inflection(self, study):
        """Per-device SEV rate peaked at the fabric deployment year."""
        assert study.severity_over_time.inflection_year() == 2015
        assert study.designs.cluster_inflection_year() == 2015


class TestConsistencyAcrossAnalyses:
    def test_distribution_and_rates_agree_on_counts(self, study, fleet):
        dist, rates = study.distribution, study.rates
        for year in range(2011, 2018):
            for t in DeviceType:
                population = fleet.count(year, t)
                if population:
                    expected = rates.rate(year, t) * population
                    assert dist.count(year, t) == pytest.approx(
                        expected, abs=0.5
                    )

    def test_design_counts_are_type_sums(self, study):
        dist, comparison = study.distribution, study.designs
        for year in range(2011, 2018):
            cluster_sum = (dist.count(year, DeviceType.CSA)
                           + dist.count(year, DeviceType.CSW))
            assert comparison.count(year, NetworkDesign.CLUSTER) == cluster_sum

    def test_sev_counts_match_store_len(self, study, paper_store):
        dist = study.distribution
        total = sum(dist.year_total(y) for y in dist.years)
        assert total == len(paper_store)


class TestAblationRemediation:
    """Section 5.6 claim: incident rate drops via automated remediation."""

    def test_disabling_remediation_explodes_rsw_incidents(self):
        from repro.incidents.query import SEVQuery
        from repro.simulation.scenarios import paper_scenario

        scenario = paper_scenario(seed=8, scale=0.1)
        on = repro.RemediationEngine(
            success_ratio=scenario.repair_success, seed=8
        )
        off = repro.RemediationEngine(enabled=False, seed=8)
        store_on = repro.IntraSimulator(scenario).run_with_engine(on)
        store_off = repro.IntraSimulator(scenario).run_with_engine(off)
        rsw_on = SEVQuery(store_on).count_by_type().get(DeviceType.RSW, 0)
        rsw_off = SEVQuery(store_off).count_by_type().get(DeviceType.RSW, 0)
        assert rsw_off > 30 * max(rsw_on, 1)
