"""Inter data center (backbone) operational substrate.

Section 4.3.2: fiber vendors notify Facebook by structured e-mail when
they start and finish repairing a link; the e-mails are automatically
parsed and stored in a database, and the study measures MTBF/MTTR of
fiber links and edges from that database.  This package reproduces the
pipeline end to end: the vendor model, the e-mail format and parser,
the ticket database, the monitor that derives link and edge outages,
and the traffic-engineering layer that consumes reliability models for
rerouting and conditional-risk capacity planning.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.backbone.vendors": ("FiberVendor", "VendorDirectory"),
    "repro.backbone.emails": (
        "EmailParseError", "VendorEmail", "format_completion_email",
        "format_start_email", "parse_vendor_email",
    ),
    "repro.backbone.tickets": ("RepairTicket", "TicketDatabase", "TicketType"),
    "repro.backbone.monitor": (
        "BackboneMonitor", "EdgeFailure", "LinkOutage",
        "failures_from_link_outages",
    ),
    "repro.backbone.optical": (
        "Channel", "OpticalCircuit", "OpticalPlant", "build_circuit",
    ),
    "repro.backbone.scorecards": (
        "VendorScorecard", "grade_distribution", "scorecards_from_outages",
        "shortlist",
    ),
    "repro.backbone.planes": (
        "PLANE_COUNT", "CapacityExhausted", "CrossDCDemand", "EdgePresence",
        "Plane", "PlanedBackbone", "route_user_traffic",
    ),
    "repro.backbone.traffic": (
        "CapacityPlan", "RerouteResult", "TrafficEngineer", "conditional_risk",
    ),
})
