"""Tests for Table 2 / Figure 2 analysis (section 5.1)."""

import pytest

from repro.core.root_causes import RootCauseBreakdown
from repro.incidents.query import SEVQuery
from repro.incidents.sev import RootCause, SEVReport, Severity
from repro.incidents.store import SEVStore
from repro.runtime import Executor, RunContext
from repro.runtime.analyses import (
    RootCausesAnalysis,
    RootCausesByDeviceAnalysis,
)
from repro.topology.devices import DeviceType


def table2(store):
    return Executor().run(
        [RootCausesAnalysis()], RunContext(store=store)
    )["root_causes"]


class TestBreakdownOnCorpus:
    def test_table2_distribution(self, paper_report):
        dist = paper_report.root_causes.distribution()
        # Table 2, within sampling/rounding tolerance.
        assert dist[RootCause.MAINTENANCE] == pytest.approx(0.17, abs=0.02)
        assert dist[RootCause.HARDWARE] == pytest.approx(0.13, abs=0.02)
        assert dist[RootCause.CONFIGURATION] == pytest.approx(0.13, abs=0.02)
        assert dist[RootCause.BUG] == pytest.approx(0.12, abs=0.02)
        assert dist[RootCause.ACCIDENTS] == pytest.approx(0.10, abs=0.02)
        assert dist[RootCause.CAPACITY] == pytest.approx(0.05, abs=0.02)
        assert dist[RootCause.UNDETERMINED] == pytest.approx(0.29, abs=0.02)

    def test_maintenance_dominates_determined(self, paper_report):
        breakdown = paper_report.root_causes
        assert breakdown.dominant_determined_cause is RootCause.MAINTENANCE

    def test_human_errors_double_hardware(self, paper_report):
        # Section 5.1: bugs + misconfiguration occur at nearly double
        # the hardware rate.
        ratio = paper_report.root_causes.human_to_hardware_ratio
        assert ratio == pytest.approx(2.0, abs=0.25)

    def test_yearly_filter(self, paper_store, paper_report):
        # Table 2 of one year: no analysis asks it, so the finalizer
        # runs over the year's SQL count.
        full = paper_report.root_causes
        y2017 = RootCauseBreakdown(
            SEVQuery(paper_store).count_by_root_cause(2017)
        )
        assert y2017.total_attributions < full.total_attributions


class TestFigure2(object):
    @pytest.fixture(scope="class")
    def fractions(self, paper_context):
        return Executor().run(
            [RootCausesByDeviceAnalysis()], paper_context
        )["root_causes_by_device"]

    def test_rows_normalized(self, fractions):
        for cause, per_type in fractions.items():
            assert sum(per_type.values()) == pytest.approx(1.0)

    def test_major_causes_cover_all_types(self, fractions):
        # Major categories have relatively even representation across
        # device types (section 5.1).
        for cause in (RootCause.MAINTENANCE, RootCause.UNDETERMINED):
            assert len(fractions[cause]) == len(DeviceType)


class TestEdgeCases:
    def test_empty_store(self):
        with SEVStore() as store:
            breakdown = table2(store)
            assert breakdown.total_attributions == 0
            assert breakdown.fraction(RootCause.BUG) == 0.0
            with pytest.raises(ValueError):
                _ = breakdown.dominant_determined_cause

    def test_multi_cause_counted_twice(self):
        with SEVStore() as store:
            store.insert(SEVReport(
                sev_id="s", severity=Severity.SEV3,
                device_name="rsw.001.p.d.r", opened_at_h=1.0,
                resolved_at_h=2.0,
                root_causes=(RootCause.BUG, RootCause.MAINTENANCE),
            ))
            breakdown = table2(store)
            assert breakdown.total_attributions == 2

    def test_human_ratio_degenerate_cases(self):
        no_hardware = RootCauseBreakdown(counts={RootCause.BUG: 3})
        assert no_hardware.human_to_hardware_ratio == float("inf")
        neither = RootCauseBreakdown(counts={RootCause.ACCIDENTS: 1})
        assert neither.human_to_hardware_ratio == 0.0
