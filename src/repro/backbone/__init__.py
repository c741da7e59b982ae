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

from repro.backbone.vendors import FiberVendor, VendorDirectory
from repro.backbone.emails import (
    EmailParseError,
    VendorEmail,
    format_completion_email,
    format_start_email,
    parse_vendor_email,
)
from repro.backbone.tickets import RepairTicket, TicketDatabase, TicketType
from repro.backbone.monitor import (
    BackboneMonitor,
    EdgeFailure,
    LinkOutage,
    failures_from_link_outages,
)
from repro.backbone.optical import (
    Channel,
    OpticalCircuit,
    OpticalPlant,
    build_circuit,
)
from repro.backbone.scorecards import (
    VendorScorecard,
    grade_distribution,
    scorecards_from_outages,
    shortlist,
)
from repro.backbone.planes import (
    PLANE_COUNT,
    CapacityExhausted,
    CrossDCDemand,
    EdgePresence,
    Plane,
    PlanedBackbone,
    route_user_traffic,
)
from repro.backbone.traffic import (
    CapacityPlan,
    RerouteResult,
    TrafficEngineer,
    conditional_risk,
)

__all__ = [
    "BackboneMonitor",
    "CapacityExhausted",
    "CapacityPlan",
    "Channel",
    "CrossDCDemand",
    "EdgeFailure",
    "EdgePresence",
    "EmailParseError",
    "FiberVendor",
    "LinkOutage",
    "OpticalCircuit",
    "OpticalPlant",
    "PLANE_COUNT",
    "Plane",
    "PlanedBackbone",
    "RepairTicket",
    "RerouteResult",
    "TicketDatabase",
    "TicketType",
    "TrafficEngineer",
    "VendorDirectory",
    "VendorScorecard",
    "VendorEmail",
    "build_circuit",
    "conditional_risk",
    "failures_from_link_outages",
    "format_completion_email",
    "format_start_email",
    "grade_distribution",
    "parse_vendor_email",
    "route_user_traffic",
    "scorecards_from_outages",
    "shortlist",
]
