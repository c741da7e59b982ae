"""Tests for the verification command and anchor stability across seeds.

The reproduction must not be an artifact of the default seeds: the
anchors are re-checked under different randomness.
"""

import pytest

from repro.backbone.monitor import BackboneMonitor
from repro.core import RootCauseBreakdown, reliability_from_outages
from repro.incidents.query import SEVQuery
from repro.incidents.sev import RootCause
from repro.simulation.backbone_sim import BackboneSimulator
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_backbone_scenario, paper_scenario
from repro.verify import Check, render_verification, run_verification


class TestCheck:
    def test_relative_tolerance(self):
        assert Check("a", "c", 100.0, 104.0, 0.05).passed
        assert not Check("a", "c", 100.0, 110.0, 0.05).passed

    def test_absolute_tolerance(self):
        assert Check("a", "c", 0.17, 0.185, 0.02, relative=False).passed
        assert not Check("a", "c", 0.17, 0.20, 0.02,
                         relative=False).passed

    def test_zero_paper_value(self):
        assert Check("a", "c", 0.0, 0.0, 0.05).passed
        assert not Check("a", "c", 0.0, 0.1, 0.05).passed

    def test_line_format(self):
        line = Check("Fig 9", "ratio", 0.5, 0.52, 0.06,
                     relative=False).line()
        assert line.startswith("[PASS]")
        assert "Fig 9" in line


class TestRunVerification:
    def test_default_seeds_all_pass(self):
        checks = run_verification()
        failed = [c for c in checks if not c.passed]
        assert not failed, render_verification(failed)
        assert len(checks) >= 51

    def test_render(self):
        checks = run_verification()
        text = render_verification(checks)
        assert f"{len(checks)}/{len(checks)} anchors reproduced" in text


class TestSeedStability:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_intra_anchors_hold_across_seeds(self, seed):
        store = IntraSimulator(paper_scenario(seed=seed)).run()
        dist = RootCauseBreakdown(
            SEVQuery(store).count_by_root_cause()
        ).distribution()
        # The calibrated allocation is largest-remainder exact, so the
        # mix is seed-independent up to interleave rounding.
        assert dist[RootCause.MAINTENANCE] == pytest.approx(0.17, abs=0.02)
        assert dist[RootCause.UNDETERMINED] == pytest.approx(0.29, abs=0.02)

    @pytest.mark.parametrize("seed", [19, 31])
    def test_backbone_anchors_hold_across_seeds(self, seed):
        corpus = BackboneSimulator(
            paper_backbone_scenario(seed=seed)
        ).run(via_emails=False)
        monitor = BackboneMonitor(corpus.topology, corpus.tickets)
        rel = reliability_from_outages(
            monitor.failures_by_edge(), monitor.outages_by_vendor(),
            corpus.window_h,
        )
        assert rel.edge_mtbf.p50 == pytest.approx(1710, rel=0.2)
        assert rel.edge_mttr.p50 == pytest.approx(10, rel=0.45)
        model = rel.edge_mtbf_model()
        assert model.b == pytest.approx(2.34, rel=0.2)
        assert model.r2 > 0.85
