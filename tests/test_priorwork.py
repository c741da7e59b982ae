"""Tests for the prior-work comparison (section 5.1)."""

import pytest

from repro.incidents.sev import RootCause
from repro.priorwork import (
    PRIOR_STUDIES,
    TURNER_ET_AL,
    WU_ET_AL,
    PriorStudy,
    compare_root_causes,
    configuration_between_prior_studies,
)


class TestPriorStudyData:
    def test_published_anchors(self):
        # Section 5.1: Turner et al. 9% configuration / 5% unknown;
        # Wu et al. 38% configuration / 23% unknown.
        assert TURNER_ET_AL.configuration_share == 0.09
        assert TURNER_ET_AL.undetermined_share == 0.05
        assert WU_ET_AL.configuration_share == 0.38
        assert WU_ET_AL.undetermined_share == 0.23

    def test_share_validation(self):
        with pytest.raises(ValueError):
            PriorStudy("x", "y", configuration_share=1.5,
                       undetermined_share=0.1, hardware_share=0.1)


class TestComparison:
    def test_rows_cover_both_studies(self, paper_report):
        dist = paper_report.root_causes.distribution()
        rows = compare_root_causes(dist)
        studies = {r.study for r in rows}
        assert studies == {s.name for s in PRIOR_STUDIES}
        assert len(rows) == 6

    def test_facebook_sits_between_on_configuration(self, paper_report):
        # The paper's conclusion: the review-and-canary practice keeps
        # configuration's share above Turner's but far below Wu's.
        dist = paper_report.root_causes.distribution()
        assert configuration_between_prior_studies(dist)

    def test_undetermined_matches_wu_not_turner(self, paper_report):
        # "Wu et al. noted a similar fraction of unknown issues (23%)
        # while Turner et al. had a smaller set (5%)."
        dist = paper_report.root_causes.distribution()
        ours = dist[RootCause.UNDETERMINED]
        assert abs(ours - WU_ET_AL.undetermined_share) < abs(
            ours - TURNER_ET_AL.undetermined_share
        )

    def test_hardware_within_seven_points(self, paper_report):
        # "Prior studies ... observe incident rates within 7% of us."
        dist = paper_report.root_causes.distribution()
        ours = dist[RootCause.HARDWARE]
        for study in PRIOR_STUDIES:
            assert abs(ours - study.hardware_share) <= 0.07

    def test_delta_sign(self):
        rows = compare_root_causes({RootCause.CONFIGURATION: 0.13,
                                    RootCause.UNDETERMINED: 0.29,
                                    RootCause.HARDWARE: 0.13})
        wu_config = next(
            r for r in rows
            if r.study == WU_ET_AL.name and r.metric == "configuration"
        )
        assert wu_config.delta < 0  # ours is lower than Wu's 38%
