"""Network topology substrate.

Models Facebook's network architecture as described in section 3 of the
paper: the older cluster-based Clos design, the newer data center fabric
design, the regions and data centers that contain them, and the WAN
backbone of edge nodes joined by fiber links.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topology.devices": (
        "Device", "DeviceRole", "DeviceType", "NetworkDesign", "Port",
    ),
    "repro.topology.naming": (
        "DeviceName", "device_type_from_name", "make_device_name",
        "parse_device_name",
    ),
    "repro.topology.cluster": ("ClusterNetwork", "build_cluster_network"),
    "repro.topology.fabric": ("FabricNetwork", "build_fabric_network"),
    "repro.topology.region": ("DataCenter", "Region", "build_region"),
    "repro.topology.graph": (
        "bisection_links", "build_graph", "downstream_devices",
        "is_connected_under_failures", "path_diversity",
    ),
    "repro.topology.audit": (
        "AuditReport", "audit_cluster_network", "audit_fabric_network",
    ),
    "repro.topology.world": ("World", "build_paper_world"),
    "repro.topology.backbone": (
        "BackboneTopology", "Continent", "EdgeNode", "FiberLink",
        "build_backbone",
    ),
})
