"""Switch software substrate.

Section 3.1 describes the software side of the fabric: simple custom
switches running Facebook's own stack (FBOSS [5, 69]) under
centralized management software that "continuously checks for device
misbehavior.  A skipped heartbeat or an inconsistent network setting
raise alarms for management software to handle."  Repairs include
restarting device interfaces, restarting the device itself, and
deleting and restoring a device's persistent storage.

This package models that layer: the on-switch agent (heartbeats,
settings, persistent storage, port control), firmware images with
latent bugs (the section 4.2 SEV3: a crash when the software disables
a port), and the central health monitor that turns misbehavior into
:class:`~repro.remediation.engine.DeviceIssue` submissions.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.switchagent.agent": (
        "AgentCrash", "AgentState", "AgentUnavailable", "SwitchAgent",
    ),
    "repro.switchagent.firmware": (
        "FirmwareBug", "FirmwareImage", "FirmwareRegistry", "fboss_image",
        "vendor_image",
    ),
    "repro.switchagent.monitor": ("AlarmKind", "HealthAlarm", "HealthMonitor"),
})
