"""Network configuration management substrate.

Section 5.1 credits operational practice for Facebook's comparatively
low misconfiguration incident rate: "all configuration changes require
code review and typically get tested on a small number of switches
before being deployed to the fleet" — in contrast with Wu et al.,
where configuration dominates the incident mix (38%).

This package models that pipeline: device configurations, change
proposals, mandatory code review, canary deployment to a small switch
sample, and fleet-wide rollout, with defect detection at each gate.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config.model": (
        "ConfigError", "DeviceConfig", "RoutingRule", "validate_config",
    ),
    "repro.config.changes": ("ChangeProposal", "ChangeState"),
    "repro.config.pipeline": (
        "DeploymentPipeline", "PipelineReport", "ReviewPolicy",
    ),
})
