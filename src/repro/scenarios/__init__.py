"""Declarative scenario specs and the what-if grid runner.

:mod:`repro.scenarios.spec` defines the serializable
:class:`ScenarioSpec` (canonical JSON, content digest, strict typed
validation, JSON/optional-YAML loaders, shipped presets);
:mod:`repro.scenarios.grid` sweeps a lattice of them through the
analysis executor with whole-cell result caching.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.scenarios.grid": (
        "GRID_FORMAT", "GridCell", "GridRunner", "GridSpec", "grid_diff",
    ),
    "repro.scenarios.spec": (
        "SPEC_FORMAT", "ScenarioError", "ScenarioSpec", "canonical_spec_json",
        "list_presets", "load_spec", "preset", "spec_from_dict",
    ),
})
