"""Tests for vendor scorecards."""

import pytest

from repro.backbone.monitor import BackboneMonitor
from repro.backbone.scorecards import (
    grade_distribution,
    scorecards_from_outages,
    shortlist,
)
from repro.backbone.tickets import TicketDatabase
from repro.topology.backbone import (
    BackboneTopology,
    Continent,
    EdgeNode,
    FiberLink,
)

WINDOW = 10_000.0


@pytest.fixture()
def outages():
    """The monitor's per-vendor outage view of a three-vendor corpus."""
    topo = BackboneTopology()
    for i in range(3):
        topo.add_edge_node(EdgeNode(f"e{i}", Continent.EUROPE))
    topo.add_link(FiberLink("l-good", "e0", "e1", vendor="good"))
    topo.add_link(FiberLink("l-mid", "e1", "e2", vendor="mid"))
    topo.add_link(FiberLink("l-bad", "e2", "e0", vendor="bad"))
    db = TicketDatabase()
    # good: 2 failures, quick repairs.
    db.add_completed("l-good", "good", 1000.0, 1002.0)
    db.add_completed("l-good", "good", 8000.0, 8001.0)
    # mid: failures every ~1000h, half-day repairs.
    for i in range(8):
        start = 500.0 + i * 1000.0
        db.add_completed("l-mid", "mid", start, start + 12.0)
    # bad: flapping, day-long repairs.
    for i in range(80):
        start = 10.0 + i * 100.0
        db.add_completed("l-bad", "bad", start, start + 24.0)
    return BackboneMonitor(topo, db).outages_by_vendor()


class TestScorecards:
    def test_grades_ordered_by_reliability(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        assert cards["good"].grade == "A"
        assert cards["mid"].grade in ("B", "C")
        assert cards["bad"].grade in ("D", "F")

    def test_mtbf_mttr_values(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        assert cards["good"].mtbf_h == pytest.approx(7000.0)
        assert cards["mid"].mttr_h == pytest.approx(12.0)
        assert cards["bad"].tickets == 80

    def test_availability(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        assert cards["good"].availability > cards["bad"].availability
        assert 0 < cards["bad"].availability < 1

    def test_min_tickets_filter(self, outages):
        cards = scorecards_from_outages(outages, WINDOW, min_tickets=5)
        assert "good" not in cards
        assert "bad" in cards

    def test_window_validation(self, outages):
        with pytest.raises(ValueError):
            scorecards_from_outages(outages, 0.0)


class TestShortlist:
    def test_ranked_by_availability(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        ranked = shortlist(cards, k=3)
        assert [c.vendor for c in ranked] == ["good", "mid", "bad"]

    def test_k_truncates(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        assert len(shortlist(cards, k=1)) == 1

    def test_mttr_ceiling_excludes_slow_repairers(self, outages):
        # The remote-island policy: MTTR matters more than MTBF.
        cards = scorecards_from_outages(outages, WINDOW)
        ranked = shortlist(cards, k=5, max_mttr_h=13.0)
        assert {c.vendor for c in ranked} == {"good", "mid"}

    def test_k_validation(self, outages):
        with pytest.raises(ValueError):
            shortlist(scorecards_from_outages(outages, WINDOW), k=0)


class TestGradeDistribution:
    def test_counts(self, outages):
        cards = scorecards_from_outages(outages, WINDOW)
        dist = grade_distribution(cards)
        assert sum(dist.values()) == 3


class TestOnPaperCorpus:
    def test_fleet_scorecards(self, backbone_monitor, backbone_corpus):
        cards = scorecards_from_outages(backbone_monitor.outages_by_vendor(),
                                        backbone_corpus.window_h)
        assert len(cards) > 100
        # The flaky vendor bottoms out the grades.
        assert cards["vendor-flaky"].grade == "F"
        dist = grade_distribution(cards)
        # The published "wide degree of variance": several grade bands
        # are populated simultaneously.
        assert len(dist) >= 3
        best = shortlist(cards, k=3)
        # Availability folds MTTR in, so a fast-repair C vendor can
        # make the list; the flaky F vendor never does.
        assert all(c.grade in ("A", "B", "C") for c in best)
        assert "vendor-flaky" not in {c.vendor for c in best}
