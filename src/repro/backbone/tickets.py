"""Repair ticket database (section 4.3.2).

Parsed vendor e-mails are stored in a database for later analysis; the
eighteen-month study window of that database is the inter data center
dataset.  A ticket pairs a start notification with its completion
notification for one fiber link.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.backbone.emails import VendorEmail
from repro.stats.intervals import OutageInterval


class TicketType(enum.Enum):
    """Unplanned repair (fiber cut) or planned maintenance."""

    REPAIR = "repair"
    MAINTENANCE = "maintenance"


@dataclass
class RepairTicket:
    """One vendor work item on one fiber link."""

    ticket_id: str
    link_id: str
    vendor: str
    ticket_type: TicketType
    started_at_h: float
    completed_at_h: Optional[float] = None
    location: str = ""
    estimated_duration_h: Optional[float] = None

    @property
    def open(self) -> bool:
        return self.completed_at_h is None

    @property
    def duration_h(self) -> float:
        if self.completed_at_h is None:
            raise ValueError(f"ticket {self.ticket_id!r} is still open")
        return self.completed_at_h - self.started_at_h

    def interval(self) -> OutageInterval:
        """The link outage interval this ticket describes."""
        if self.completed_at_h is None:
            raise ValueError(f"ticket {self.ticket_id!r} is still open")
        return OutageInterval(self.started_at_h, self.completed_at_h)


class TicketDatabase:
    """Ingests vendor e-mails and stores completed tickets."""

    def __init__(self) -> None:
        self._tickets: List[RepairTicket] = []
        self._open_by_link: Dict[str, RepairTicket] = {}
        self._open_by_ref: Dict[str, RepairTicket] = {}
        self._seq = 0
        #: The provenance key of a freshly generated corpus, as on
        #: :class:`~repro.incidents.store.SEVStore`: set by the context
        #: builder that generated it, dropped by every write.
        self.provenance: Optional[str] = None

    # -- ingestion -----------------------------------------------------

    def ingest(self, email: VendorEmail) -> RepairTicket:
        """Apply one parsed notification to the database.

        A start notification opens a ticket; the matching completion
        closes it.  Notifications carrying a ``Ticket-Ref`` are paired
        by reference, which permits overlapping work items on one link
        (a cut during a maintenance window).  Without a reference the
        pairing is by link, and a second concurrent start for the same
        link is rejected as ambiguous — the production pipeline
        reconciles pairs the same way.
        """
        self.provenance = None
        if email.is_start:
            if email.ticket_ref is None and email.link_id in self._open_by_link:
                raise ValueError(
                    f"link {email.link_id!r} already has an open ticket "
                    "and the notification carries no Ticket-Ref"
                )
            if email.ticket_ref is not None and email.ticket_ref in self._open_by_ref:
                raise ValueError(
                    f"duplicate start for ticket ref {email.ticket_ref!r}"
                )
            ticket = RepairTicket(
                ticket_id=email.ticket_ref or f"fib-{self._seq:06d}",
                link_id=email.link_id,
                vendor=email.vendor,
                ticket_type=(
                    TicketType.MAINTENANCE
                    if email.is_maintenance
                    else TicketType.REPAIR
                ),
                started_at_h=email.event_time_h,
                location=email.location,
                estimated_duration_h=email.estimated_duration_h,
            )
            self._seq += 1
            self._tickets.append(ticket)
            if email.ticket_ref is not None:
                self._open_by_ref[email.ticket_ref] = ticket
            else:
                self._open_by_link[email.link_id] = ticket
            return ticket

        if email.ticket_ref is not None:
            ticket = self._open_by_ref.pop(email.ticket_ref, None)
            if ticket is None:
                raise ValueError(
                    f"completion for unknown ticket ref {email.ticket_ref!r}"
                )
            if ticket.link_id != email.link_id:
                self._open_by_ref[email.ticket_ref] = ticket
                raise ValueError(
                    f"ticket ref {email.ticket_ref!r} belongs to link "
                    f"{ticket.link_id!r}, not {email.link_id!r}"
                )
        else:
            ticket = self._open_by_link.pop(email.link_id, None)
            if ticket is None:
                raise ValueError(
                    f"completion for link {email.link_id!r} without an "
                    "open ticket"
                )
        if email.event_time_h < ticket.started_at_h:
            if email.ticket_ref is not None:
                self._open_by_ref[email.ticket_ref] = ticket
            else:
                self._open_by_link[email.link_id] = ticket
            raise ValueError(
                f"completion at {email.event_time_h} precedes start "
                f"{ticket.started_at_h} for link {email.link_id!r}"
            )
        ticket.completed_at_h = email.event_time_h
        return ticket

    # -- direct insertion (for the simulator) ---------------------------

    def add_completed(
        self,
        link_id: str,
        vendor: str,
        started_at_h: float,
        completed_at_h: float,
        ticket_type: TicketType = TicketType.REPAIR,
        location: str = "",
    ) -> RepairTicket:
        if completed_at_h < started_at_h:
            raise ValueError("ticket completes before it starts")
        self.provenance = None
        ticket = RepairTicket(
            ticket_id=f"fib-{self._seq:06d}",
            link_id=link_id,
            vendor=vendor,
            ticket_type=ticket_type,
            started_at_h=started_at_h,
            completed_at_h=completed_at_h,
            location=location,
        )
        self._seq += 1
        self._tickets.append(ticket)
        return ticket

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tickets)

    def __iter__(self) -> Iterator[RepairTicket]:
        return iter(self._tickets)

    def completed(self) -> List[RepairTicket]:
        return [t for t in self._tickets if not t.open]

    def open_tickets(self) -> List[RepairTicket]:
        return (list(self._open_by_link.values())
                + list(self._open_by_ref.values()))

    def for_link(self, link_id: str) -> List[RepairTicket]:
        return [t for t in self._tickets if t.link_id == link_id]

    def for_vendor(self, vendor: str) -> List[RepairTicket]:
        return [t for t in self._tickets if t.vendor == vendor]

    def vendors(self) -> List[str]:
        return sorted({t.vendor for t in self._tickets})

    def links(self) -> List[str]:
        return sorted({t.link_id for t in self._tickets})

    def in_window(self, start_h: float, end_h: float) -> List[RepairTicket]:
        """Completed tickets whose outage starts inside the window."""
        return [
            t
            for t in self.completed()
            if start_h <= t.started_at_h < end_h
        ]
