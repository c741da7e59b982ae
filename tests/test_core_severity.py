"""Tests for Figures 4-6 analyses (section 5.3)."""

import pytest

from repro.core.severity import sevs_per_employee, switches_vs_employees
from repro.incidents.sev import Severity
from repro.runtime import Executor, RunContext
from repro.runtime.analyses import SeverityByDeviceAnalysis
from repro.topology.devices import DeviceType


@pytest.fixture(scope="module")
def fig4(paper_report):
    assert paper_report.severity.year == 2017
    return paper_report.severity


class TestFigure4:
    def test_level_shares(self, fig4):
        # Figure 4's N annotations: 82% / 13% / 5%.
        assert fig4.level_share(Severity.SEV3) == pytest.approx(0.82, abs=0.02)
        assert fig4.level_share(Severity.SEV2) == pytest.approx(0.13, abs=0.02)
        assert fig4.level_share(Severity.SEV1) == pytest.approx(0.05, abs=0.02)

    def test_core_mix(self, fig4):
        # Section 5.3: Core incidents are ~81% SEV3, 15% SEV2, 4% SEV1.
        mix = fig4.device_mix(DeviceType.CORE)
        assert mix[Severity.SEV3] == pytest.approx(0.81, abs=0.03)
        assert mix[Severity.SEV2] == pytest.approx(0.15, abs=0.03)
        assert mix[Severity.SEV1] == pytest.approx(0.04, abs=0.03)

    def test_rsw_mix(self, fig4):
        mix = fig4.device_mix(DeviceType.RSW)
        assert mix[Severity.SEV3] == pytest.approx(0.85, abs=0.03)

    def test_fabric_fewer_sev1_than_cluster(self, fig4):
        cluster, fabric = fig4.design_totals(Severity.SEV1)
        # Section 5.3: fabric devices have far fewer SEV1s.
        assert fabric < cluster

    def test_fabric_device_share_small(self, fig4):
        # ESWs ~3%, SSWs ~2%, FSWs ~8% of SEVs.
        total = fig4.total
        for t, share in ((DeviceType.ESW, 0.03), (DeviceType.SSW, 0.02),
                         (DeviceType.FSW, 0.08)):
            count = sum(
                fig4.counts.get(s, {}).get(t, 0) for s in Severity
            )
            assert count / total == pytest.approx(share, abs=0.015)

    def test_device_fraction_rows(self, fig4):
        for severity in Severity:
            row = sum(
                fig4.device_fraction(severity, t) for t in DeviceType
            )
            assert row == pytest.approx(1.0)

    def test_absent_device_mix_is_zero(self, paper_store, fleet):
        fig = Executor().run(
            [SeverityByDeviceAnalysis()],
            RunContext(store=paper_store, fleet=fleet, year=2011),
        )["severity_by_device"]
        assert fig.device_mix(DeviceType.FSW) == {
            s: 0.0 for s in Severity
        }


class TestFigure5:
    def test_inflection_at_fabric_deployment(self, paper_report):
        series = paper_report.severity_over_time
        assert series.inflection_year(Severity.SEV3) == 2015

    def test_sev3_dominates_every_year(self, paper_report):
        series = paper_report.severity_over_time
        for year in series.years:
            assert series.rate(year, Severity.SEV3) > series.rate(
                year, Severity.SEV1
            )

    def test_rates_are_small(self, paper_report):
        # Per-device rates are in the 1e-3 range (Figure 5's axis).
        series = paper_report.severity_over_time
        for year in series.years:
            total = sum(series.rate(year, s) for s in Severity)
            assert 1e-4 < total < 1e-2


class TestFigure6:
    def test_switches_grow_with_employees(self, fleet, employees):
        points = switches_vs_employees(fleet, employees)
        assert len(points) == 7
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_proportionality(self, fleet, employees):
        # The paper concludes switches grew in proportion to employees.
        import numpy as np

        points = switches_vs_employees(fleet, employees)
        xs, ys = zip(*points)
        corr = float(np.corrcoef(xs, ys)[0, 1])
        assert corr > 0.97

    def test_sevs_per_employee_tracks_per_device_trend(
        self, paper_store, employees
    ):
        per_employee = sevs_per_employee(paper_store, employees)
        assert set(per_employee) == set(range(2011, 2018))
        assert max(per_employee, key=per_employee.get) in (2014, 2015)
