"""Automated remediation substrate.

Section 4.1: starting in 2013 Facebook automated the remediation of
common failure modes for RSWs, later FSWs, and certain Core models.
The system shields the infrastructure from the vast majority of
issues: repairs are prioritized, scheduled, executed by software, and
escalated to a human technician only when software cannot fix them.
Incidents that survive this filter are what the intra data center
study analyzes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.remediation.actions": (
        "RepairAction", "RepairOutcome", "execute_action",
    ),
    "repro.remediation.policy": ("RepairPolicy", "ScheduledRepair"),
    "repro.remediation.tickets": ("TechnicianTicket", "TicketQueue"),
    "repro.remediation.backlog": (
        "RepairQueue", "fleet_escalation_rate", "technicians_needed",
    ),
    "repro.remediation.engine": (
        "DeviceIssue", "IssueKind", "RemediationEngine", "RemediationStats",
    ),
})
