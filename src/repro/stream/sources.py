"""Live event sources for the ingestion engine.

The simulators as online producers, exposed as plain iterators so
the engine is agnostic to where the stream comes from:

* :func:`live_feed` — the calibrated scenario's SEVs, yielded in the
  order they open, exactly as a subscriber tailing the production SEV
  database would see them;
* :func:`live_ticket_feed` — the backbone simulator's completed
  repair tickets, in start order.

A stored corpus replays through its own scan
(:meth:`~repro.incidents.store.SEVStore.all_reports`,
:meth:`~repro.backbone.tickets.TicketDatabase.completed`, a
partitioned store's ``records()``), and an exported one through
:func:`repro.io.read_records`.
"""

from __future__ import annotations

from typing import Iterator

from repro.incidents.sev import SEVReport
from repro.simulation.generator import iter_scenario_reports
from repro.simulation.scenarios import IntraScenario


def live_feed(scenario: IntraScenario) -> Iterator[SEVReport]:
    """SEVs of a scenario as a chronological online feed."""
    return iter_scenario_reports(scenario)


def live_ticket_feed(scenario) -> Iterator:
    """Completed repair tickets of a backbone scenario as a feed.

    Runs the :class:`~repro.simulation.backbone_sim.BackboneSimulator`
    and yields the corpus' completed tickets ordered by start time —
    the order the monitoring pipeline would close them out in, modulo
    repair overlaps.
    """
    from repro.simulation.backbone_sim import BackboneSimulator

    corpus = BackboneSimulator(scenario).run()
    tickets = sorted(
        corpus.tickets.completed(),
        key=lambda t: (t.started_at_h, t.ticket_id),
    )
    return iter(tickets)
