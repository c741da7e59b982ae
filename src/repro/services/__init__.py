"""Service-level substrate.

The paper's central argument (section 2) is that network reliability
can only be understood through its *service-level effects*: most
device- and link-level faults are masked by redundancy, path
diversity, and fault-tolerance logic, and the remainder surface as
emergent misbehavior in the software systems running on the network —
web servers, caches, storage, data processing.

This package models that software layer: a service topology placed on
network devices, a failure-masking model that decides which device
faults surface at all, and the impact taxonomy (timeouts, lost
capacity, retries, latency) the SEV reports describe.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.services.catalog": (
        "Service", "ServiceCatalog", "ServiceTier", "reference_catalog",
    ),
    "repro.services.placement": (
        "Placement", "place_service", "place_uniform",
    ),
    "repro.services.impact": (
        "ImpactAssessment", "ImpactKind", "ImpactModel", "ServiceImpact",
    ),
    "repro.services.masking": ("MaskingReport", "masking_report"),
})
