"""Property tests for the survivability curves and their analyses.

The failure model emits one *order* per trial and fails its prefix at
every fraction point, so the failed sets are nested — which makes
every per-trial count, and therefore every mean curve, monotone
non-increasing in the failed fraction by construction.  These tests
pin that property and the hand-checkable pieces of the analysis math.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import RunContext
from repro.survivability import (
    FRACTION_PERCENTS,
    generate_trials,
    run_survivability_report,
)


def _report(seed=1, correlated=None):
    trials = generate_trials(seed=seed, correlated=correlated)
    context = RunContext(trials=trials, corpus_seed=seed)
    return trials, run_survivability_report(context)


class TestMonotonicity:
    """Property (b): survivability never improves as more devices fail."""

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=6),
        bias=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        clustering=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_curves_monotone_under_any_knobs(self, seed, size, bias,
                                             clustering):
        _, report = _report(seed=seed, correlated={
            "trials": 2,
            "power_domain_size": size,
            "storm_bias": bias,
            "maintenance_clustering": clustering,
        })
        for family in (report.connectivity, report.capacity):
            for curve in family.curves:
                values = [point.value for point in curve.points]
                assert values == sorted(values, reverse=True), curve.design

    def test_per_trial_counts_nested(self):
        # Stronger than curve monotonicity: each individual trial's
        # counts are non-increasing because its failure sets nest.
        trials, _ = _report(seed=3, correlated={
            "trials": 6, "power_domain_size": 4, "storm_bias": 2.0,
            "maintenance_clustering": 0.5,
        })
        by_trial = {}
        for record in trials.records():
            by_trial.setdefault((record.design, record.trial), []).append(
                record
            )
        for rows in by_trial.values():
            rows.sort(key=lambda r: r.fraction_idx)
            connected = [r.connected_rsw for r in rows]
            links = [r.surviving_links for r in rows]
            assert connected == sorted(connected, reverse=True)
            assert links == sorted(links, reverse=True)


class TestAnalysisMath:
    def test_curve_means_match_hand_fold(self):
        trials, report = _report(seed=2, correlated={"trials": 4})
        records = list(trials.records())
        for curve in report.connectivity.curves:
            for point in curve.points:
                rows = [
                    r for r in records
                    if r.design == curve.design
                    and r.fraction_pct == point.fraction_pct
                ]
                mean = sum(r.connected_rsw for r in rows) / sum(
                    r.total_rsw for r in rows
                )
                assert point.value == pytest.approx(mean)
                assert point.trials == len(rows)

    def test_summary_auc_is_mean_of_points(self):
        _, report = _report(seed=2, correlated={"trials": 4})
        for row in report.summary.designs:
            curve = report.connectivity.curve(row.design)
            mean = sum(p.value for p in curve.points) / len(curve.points)
            assert row.connectivity_auc == pytest.approx(mean)

    def test_half_connectivity_is_first_breach(self):
        _, report = _report(seed=2, correlated={"trials": 4})
        for row in report.summary.designs:
            curve = report.connectivity.curve(row.design)
            breaches = [p.fraction_pct for p in curve.points
                        if p.value < 0.5]
            expected = breaches[0] if breaches else None
            assert row.half_connectivity_pct == expected

    def test_fraction_sweep_covers_every_point(self):
        trials, report = _report(seed=1, correlated={"trials": 2})
        assert len(trials) == 2 * 2 * len(FRACTION_PERCENTS)
        for family in (report.connectivity, report.capacity):
            assert sorted(family.designs) == ["cluster", "fabric"]
            for curve in family.curves:
                assert [p.fraction_pct for p in curve.points] == list(
                    FRACTION_PERCENTS
                )

    def test_render_mentions_both_designs(self):
        _, report = _report(seed=1, correlated={"trials": 2})
        text = report.render()
        assert "cluster" in text and "fabric" in text
        assert "fabric advantage" in text


class TestSurvivableCapacityJoin:
    def test_floor_walks_the_capacity_curve(self):
        from repro.core import survivable_capacity

        _, report = _report(seed=1, correlated={"trials": 4})
        rows = survivable_capacity(report, floor=0.5)
        assert sorted(row.design for row in rows) == ["cluster", "fabric"]
        for row in rows:
            curve = report.capacity.curve(row.design)
            surviving = [p.fraction_pct for p in curve.points
                         if p.value >= 0.5]
            assert row.max_survivable_pct == (
                max(surviving) if surviving else 0
            )

    def test_impossible_floor_reports_zero(self):
        from repro.core import survivable_capacity

        _, report = _report(seed=1, correlated={"trials": 2})
        for row in survivable_capacity(report, floor=1.0):
            assert row.max_survivable_pct == 0
            assert row.capacity_at_pct == 1.0

    def test_floor_outside_unit_interval_rejected(self):
        from repro.core import survivable_capacity

        _, report = _report(seed=1, correlated={"trials": 2})
        with pytest.raises(ValueError, match="floor"):
            survivable_capacity(report, floor=0.0)
