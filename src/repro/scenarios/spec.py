"""Declarative scenario specs.

A :class:`ScenarioSpec` is the *serializable* description of a study
scenario — the what-if knobs (fleet scale, per-type hazard
multipliers, fabric-rollout year and pace, severity-mix overrides, the
drain-policy toggle, backbone vendor mix, region loss, a correlated
storm) — separated from the calibrated dataclasses that the simulators
consume.  The split buys three things:

* **identity**: every spec has a canonical JSON form and a SHA-256
  content digest, so two runs can agree they studied the same
  scenario with one string comparison, and the result cache keys a
  generated corpus on it before generating it
  (:func:`repro.runtime.cache.provenance_fingerprint`);
* **files**: scenarios load from JSON documents (YAML too, when
  PyYAML happens to be importable — it is never required), with
  strict validation: unknown keys, wrong-typed values, and torn files
  raise a typed :class:`ScenarioError` naming the file and key path,
  mirroring :class:`repro.storage.ManifestError`;
* **grids**: a spec is a point; :mod:`repro.scenarios.grid` sweeps
  axes of them.

:meth:`ScenarioSpec.materialize` turns a spec into the
:class:`~repro.simulation.scenarios.IntraScenario` or
:class:`~repro.simulation.scenarios.BackboneScenario` the simulators
run.  The shipped presets under ``presets/`` re-express the legacy
constructors — ``paper_scenario``, ``no_drain_policy_scenario``,
``shifted_fabric_scenario``, ``paper_backbone_scenario`` — as spec
files; the legacy functions now route through this layer, so their
corpora (and every digest derived from them) are preserved bit for
bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro import paperdata
from repro.incidents.sev import Severity
from repro.topology.backbone import Continent
from repro.topology.devices import DeviceType

__all__ = [
    "SPEC_FORMAT",
    "ScenarioError",
    "ScenarioSpec",
    "canonical_spec_json",
    "list_presets",
    "load_spec",
    "preset",
    "spec_from_dict",
]

#: Format tag embedded in every serialized spec (and its digest).
SPEC_FORMAT = "repro.scenario-spec/1"

PathLike = Union[str, Path]

_PRESET_DIR = Path(__file__).parent / "presets"

_DEVICE_NAMES = tuple(t.name for t in DeviceType)
_SEVERITY_NAMES = tuple(s.label for s in sorted(Severity))
_CONTINENT_NAMES = tuple(c.name for c in Continent)


class ScenarioError(ValueError):
    """A spec that cannot be trusted: unknown key, wrong type, torn file.

    Carries ``source`` (the file path, or ``"<dict>"`` for in-memory
    payloads) and ``path`` (the dotted key path of the offending
    value) so a bad spec names exactly what to fix — the scenario
    layer's :class:`~repro.storage.manifest.ManifestError`.
    """

    def __init__(self, message: str, source: str = "<dict>",
                 path: str = "") -> None:
        location = source if not path else f"{source}: {path}"
        super().__init__(f"{location}: {message}")
        self.source = source
        self.path = path


# -- field validators ---------------------------------------------------


def _want(kind, value, source: str, path: str, what: str):
    """Type-check one scalar; bool is never accepted for a number."""
    if kind in (int, float) and isinstance(value, bool):
        raise ScenarioError(
            f"expected {what}, got a boolean", source, path
        )
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ScenarioError(
            f"expected {what}, got {type(value).__name__} "
            f"({value!r})", source, path,
        )
    return value


def _want_mapping(value, source: str, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(
            f"expected an object, got {type(value).__name__}",
            source, path,
        )
    return value


def _check_keys(payload: dict, allowed: Tuple[str, ...],
                source: str, path: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ScenarioError(
            f"unknown key (expected among {sorted(allowed)})",
            source, where,
        )


def _device_map(value, source: str, path: str) -> Dict[str, float]:
    """A ``{DEVICE_NAME: number}`` mapping, keys validated."""
    mapping = _want_mapping(value, source, path)
    out: Dict[str, float] = {}
    for key in sorted(mapping):
        where = f"{path}.{key}"
        if key not in _DEVICE_NAMES:
            raise ScenarioError(
                f"unknown device type (expected among "
                f"{list(_DEVICE_NAMES)})", source, where,
            )
        out[key] = _want(float, mapping[key], source, where,
                         "a number")
    return out


def _severity_map(value, source: str, path: str) -> Dict[str, Dict[str, float]]:
    """Per-type severity-mix overrides; each mix must sum to 1."""
    mapping = _want_mapping(value, source, path)
    out: Dict[str, Dict[str, float]] = {}
    for key in sorted(mapping):
        where = f"{path}.{key}"
        if key not in _DEVICE_NAMES:
            raise ScenarioError(
                f"unknown device type (expected among "
                f"{list(_DEVICE_NAMES)})", source, where,
            )
        mix = _want_mapping(mapping[key], source, where)
        _check_keys(mix, _SEVERITY_NAMES, source, where)
        out[key] = {
            level: _want(float, mix[level], source, f"{where}.{level}",
                         "a number")
            for level in sorted(mix)
        }
        total = sum(out[key].values())
        if abs(total - 1.0) > 1e-6:
            raise ScenarioError(
                f"severity mix sums to {total}, expected 1.0",
                source, where,
            )
    return out


_STORM_KEYS = ("year", "multiplier")
_VENDOR_KEYS = ("include_flaky", "flaky_mtbf_h", "flaky_mttr_h")
_REGION_KEYS = ("continent", "fraction")
_CORRELATED_KEYS = (
    "maintenance_clustering", "power_domain_size", "storm_bias", "trials",
)


def _storm_knob(value, source: str, path: str) -> Dict[str, Any]:
    storm = _want_mapping(value, source, path)
    _check_keys(storm, _STORM_KEYS, source, path)
    for key in _STORM_KEYS:
        if key not in storm:
            raise ScenarioError(f"missing key {key!r}", source, path)
    return {
        "year": _want(int, storm["year"], source, f"{path}.year",
                      "an integer year"),
        "multiplier": _want(float, storm["multiplier"], source,
                            f"{path}.multiplier", "a number"),
    }


def _vendor_knob(value, source: str, path: str) -> Dict[str, Any]:
    vendor = _want_mapping(value, source, path)
    _check_keys(vendor, _VENDOR_KEYS, source, path)
    out: Dict[str, Any] = {}
    if "include_flaky" in vendor:
        out["include_flaky"] = _want(
            bool, vendor["include_flaky"], source,
            f"{path}.include_flaky", "a boolean",
        )
    for key in ("flaky_mtbf_h", "flaky_mttr_h"):
        if key in vendor:
            out[key] = _want(float, vendor[key], source,
                             f"{path}.{key}", "a number")
    return out


def _correlated_knob(value, source: str, path: str) -> Dict[str, Any]:
    """The correlated-failure block; every key optional, all typed."""
    correlated = _want_mapping(value, source, path)
    _check_keys(correlated, _CORRELATED_KEYS, source, path)
    out: Dict[str, Any] = {}
    for key in ("power_domain_size", "trials"):
        if key in correlated:
            out[key] = _want(int, correlated[key], source,
                             f"{path}.{key}", "an integer")
            if out[key] < 1:
                raise ScenarioError(f"{key} must be at least 1",
                                    source, f"{path}.{key}")
    if "storm_bias" in correlated:
        out["storm_bias"] = _want(float, correlated["storm_bias"],
                                  source, f"{path}.storm_bias", "a number")
        if out["storm_bias"] < 0:
            raise ScenarioError("storm_bias must be non-negative",
                                source, f"{path}.storm_bias")
    if "maintenance_clustering" in correlated:
        out["maintenance_clustering"] = _want(
            float, correlated["maintenance_clustering"], source,
            f"{path}.maintenance_clustering", "a number",
        )
        if not 0.0 <= out["maintenance_clustering"] <= 1.0:
            raise ScenarioError(
                "maintenance_clustering outside [0, 1]",
                source, f"{path}.maintenance_clustering",
            )
    return out


def _region_knob(value, source: str, path: str) -> Dict[str, Any]:
    region = _want_mapping(value, source, path)
    _check_keys(region, _REGION_KEYS, source, path)
    for key in _REGION_KEYS:
        if key not in region:
            raise ScenarioError(f"missing key {key!r}", source, path)
    continent = _want(str, region["continent"], source,
                      f"{path}.continent", "a continent name")
    if continent not in _CONTINENT_NAMES:
        raise ScenarioError(
            f"unknown continent {continent!r} (expected among "
            f"{list(_CONTINENT_NAMES)})", source, f"{path}.continent",
        )
    fraction = _want(float, region["fraction"], source,
                     f"{path}.fraction", "a number")
    if not 0.0 <= fraction <= 1.0:
        raise ScenarioError("fraction outside [0, 1]", source,
                            f"{path}.fraction")
    return {"continent": continent, "fraction": fraction}


# -- the spec -----------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: a named point in what-if space.

    Every knob defaults to "the paper's world"; a default-valued spec
    of kind ``intra`` materializes exactly the calibrated
    ``paper_scenario`` corpus (and ``backbone`` the
    ``paper_backbone_scenario`` one).  Knobs:

    ``scale`` / ``growth``
        fleet-and-incident scale factor, and a compound per-year
        growth multiplier on incident counts (the fleet growth curve);
    ``hazard``
        per-device-type incident-count multipliers
        (``{"CORE": 1.5}``);
    ``fabric_year`` / ``fabric_pace``
        fabric rollout year (the incident series shifts with it) and
        a multiplier on the fabric-device incident volume;
    ``severity_mix``
        per-type severity-mix overrides (each must sum to 1);
    ``drain_policy``
        ``False`` removes the 2015 drain-before-maintenance practice
        (CSA incidents keep scaling with the 2014 per-device rate);
    ``storm``
        a correlated surge: every type's count in ``storm["year"]``
        is multiplied by ``storm["multiplier"]``;
    ``links_per_edge`` / ``vendor_mix`` / ``region_loss`` /
    ``maintenance_fraction``
        backbone knobs: fiber links per edge, the flaky-vendor mix,
        losing a fraction of a continent's edges, and the
        maintenance share of tickets;
    ``correlated``
        the correlated-failure block for the survivability workload
        (:mod:`repro.survivability`): ``power_domain_size`` (devices
        per shared power domain), ``storm_bias`` (blast-radius-
        weighted failure order), ``maintenance_clustering`` (the
        maintenance-window share), ``trials`` (orders per design) —
        every key optional; at the defaults the draws degrade
        bit-identically to the independent failure model.
    """

    name: str
    kind: str = "intra"
    seed: Optional[int] = None
    scale: float = 1.0
    growth: float = 1.0
    hazard: Dict[str, float] = field(default_factory=dict)
    fabric_year: int = paperdata.FABRIC_DEPLOYMENT_YEAR
    fabric_pace: float = 1.0
    severity_mix: Dict[str, Dict[str, float]] = field(default_factory=dict)
    drain_policy: bool = True
    storm: Optional[Dict[str, Any]] = None
    links_per_edge: int = 3
    vendor_mix: Optional[Dict[str, Any]] = None
    region_loss: Optional[Dict[str, Any]] = None
    maintenance_fraction: Optional[float] = None
    correlated: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        # Normalize numerics so int-vs-float spelling of the same knob
        # (scale=2 vs scale=2.0) cannot change the canonical form or
        # the digest.  The spec is frozen, hence object.__setattr__.
        for name in ("scale", "growth", "fabric_pace"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.maintenance_fraction is not None:
            object.__setattr__(self, "maintenance_fraction",
                               float(self.maintenance_fraction))
        object.__setattr__(
            self, "hazard",
            {k: float(v) for k, v in self.hazard.items()},
        )
        if self.storm is not None:
            object.__setattr__(self, "storm", {
                "year": int(self.storm["year"]),
                "multiplier": float(self.storm["multiplier"]),
            })
        if self.correlated is not None:
            unknown = sorted(set(self.correlated) - set(_CORRELATED_KEYS))
            if unknown:
                raise ScenarioError(
                    f"unknown key (expected among "
                    f"{sorted(_CORRELATED_KEYS)})",
                    "<spec>", f"correlated.{unknown[0]}",
                )
            normalized: Dict[str, Any] = {}
            for key in ("power_domain_size", "trials"):
                if key in self.correlated:
                    normalized[key] = int(self.correlated[key])
                    if normalized[key] < 1:
                        raise ScenarioError(
                            f"{key} must be at least 1",
                            "<spec>", f"correlated.{key}",
                        )
            for key in ("storm_bias", "maintenance_clustering"):
                if key in self.correlated:
                    normalized[key] = float(self.correlated[key])
            if normalized.get("storm_bias", 0.0) < 0:
                raise ScenarioError("storm_bias must be non-negative",
                                    "<spec>", "correlated.storm_bias")
            if not 0.0 <= normalized.get(
                    "maintenance_clustering", 0.0) <= 1.0:
                raise ScenarioError(
                    "maintenance_clustering outside [0, 1]",
                    "<spec>", "correlated.maintenance_clustering",
                )
            object.__setattr__(self, "correlated", normalized)
        object.__setattr__(self, "severity_mix", {
            device: {level: float(share) for level, share in mix.items()}
            for device, mix in self.severity_mix.items()
        })
        if self.kind not in ("intra", "backbone"):
            raise ScenarioError(
                f"unknown kind {self.kind!r} (expected 'intra' or "
                f"'backbone')", "<spec>", "kind",
            )
        if not self.name:
            raise ScenarioError("name must be non-empty", "<spec>", "name")
        if self.scale <= 0:
            raise ScenarioError("scale must be positive", "<spec>", "scale")
        if self.growth < 0:
            raise ScenarioError("growth must be non-negative",
                                "<spec>", "growth")
        if self.fabric_pace < 0:
            raise ScenarioError("fabric_pace must be non-negative",
                                "<spec>", "fabric_pace")
        if self.links_per_edge < 1:
            raise ScenarioError("links_per_edge must be at least 1",
                                "<spec>", "links_per_edge")
        for device, mult in self.hazard.items():
            if mult < 0:
                raise ScenarioError(
                    "hazard multiplier must be non-negative",
                    "<spec>", f"hazard.{device}",
                )
        if self.maintenance_fraction is not None and not (
                0.0 <= self.maintenance_fraction <= 1.0):
            raise ScenarioError("maintenance_fraction outside [0, 1]",
                                "<spec>", "maintenance_fraction")

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """The full canonical payload: every field, defaults explicit."""
        return {
            "format": SPEC_FORMAT,
            "name": self.name,
            "kind": self.kind,
            "seed": self.seed,
            "scale": self.scale,
            "growth": self.growth,
            "hazard": {k: self.hazard[k] for k in sorted(self.hazard)},
            "fabric_year": self.fabric_year,
            "fabric_pace": self.fabric_pace,
            "severity_mix": {
                device: {level: mix[level] for level in sorted(mix)}
                for device, mix in sorted(self.severity_mix.items())
            },
            "drain_policy": self.drain_policy,
            "storm": dict(self.storm) if self.storm else None,
            "links_per_edge": self.links_per_edge,
            "vendor_mix": dict(self.vendor_mix) if self.vendor_mix else None,
            "region_loss": (dict(self.region_loss)
                            if self.region_loss else None),
            "maintenance_fraction": self.maintenance_fraction,
            "correlated": (
                {k: self.correlated[k] for k in sorted(self.correlated)}
                if self.correlated else None
            ),
        }

    def canonical_json(self) -> str:
        """Canonical serialization: sorted keys, compact separators."""
        return canonical_spec_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 content digest over the canonical form.

        Two specs describing the same scenario — whatever file, key
        order, or default-elision they came from — digest identically;
        any knob change (including seed and scale) digests elsewhere.
        """
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def with_updates(self, **updates: Any) -> "ScenarioSpec":
        """A copy with fields replaced (re-validated)."""
        return dataclasses.replace(self, **updates)

    # -- materialization ----------------------------------------------

    def materialize(self):
        """Build the simulator-facing scenario dataclass.

        Returns an :class:`~repro.simulation.scenarios.IntraScenario`
        for ``kind="intra"`` and a
        :class:`~repro.simulation.scenarios.BackboneScenario` for
        ``kind="backbone"``; the result carries this spec's digest in
        ``spec_digest`` so downstream fingerprints can key on it (an
        intra scenario's leaves out the ``correlated`` block, which
        only the survivability trials read).
        Every knob at its default is a strict no-op: the materialized
        scenario is bit-identical to the legacy constructor's.
        """
        if self.kind == "backbone":
            return self._materialize_backbone()
        return self._materialize_intra()

    def _materialize_intra(self):
        from repro.simulation import scenarios as legacy

        seed = self.seed if self.seed is not None else 1
        scenario = legacy.build_paper_intra(seed=seed, scale=self.scale)
        if not self.drain_policy:
            legacy.apply_no_drain_policy(scenario)
        if self.fabric_year != paperdata.FABRIC_DEPLOYMENT_YEAR:
            scenario = legacy.shift_fabric_rollout(scenario,
                                                   self.fabric_year)
        if self.hazard:
            multipliers = {DeviceType[k]: v for k, v in self.hazard.items()}
            _scale_counts(scenario.incident_counts,
                          lambda year, t: multipliers.get(t, 1.0))
        if self.fabric_pace != 1.0:
            _scale_counts(
                scenario.incident_counts,
                lambda year, t: self.fabric_pace if t.is_fabric else 1.0,
            )
        if self.growth != 1.0:
            first = min(scenario.incident_counts)
            _scale_counts(scenario.incident_counts,
                          lambda year, t: self.growth ** (year - first))
        if self.storm is not None:
            storm_year = self.storm["year"]
            storm_mult = self.storm["multiplier"]
            _scale_counts(
                scenario.incident_counts,
                lambda year, t: storm_mult if year == storm_year else 1.0,
            )
        for device, mix in self.severity_mix.items():
            scenario.severity_mix[DeviceType[device]] = {
                Severity[level]: share for level, share in mix.items()
            }
        scenario.spec_digest = self.with_updates(correlated=None).digest()
        return scenario

    def _materialize_backbone(self):
        from repro.simulation import scenarios as legacy

        seed = self.seed if self.seed is not None else 7
        scenario = legacy.build_paper_backbone(
            seed=seed, links_per_edge=self.links_per_edge,
        )
        if self.vendor_mix is not None:
            if "include_flaky" in self.vendor_mix:
                scenario.include_flaky_vendor = (
                    self.vendor_mix["include_flaky"]
                )
            if "flaky_mtbf_h" in self.vendor_mix:
                scenario.flaky_vendor_mtbf_h = (
                    self.vendor_mix["flaky_mtbf_h"]
                )
            if "flaky_mttr_h" in self.vendor_mix:
                scenario.flaky_vendor_mttr_h = (
                    self.vendor_mix["flaky_mttr_h"]
                )
        if self.region_loss is not None:
            continent = Continent[self.region_loss["continent"]]
            fraction = self.region_loss["fraction"]
            kept = int(round(
                scenario.continent_edges[continent] * (1.0 - fraction)
            ))
            scenario.continent_edges[continent] = max(0, kept)
            if scenario.edge_count < 1:
                raise ScenarioError(
                    "region_loss removes every backbone edge",
                    "<spec>", "region_loss.fraction",
                )
        if self.maintenance_fraction is not None:
            scenario.maintenance_fraction = self.maintenance_fraction
        scenario.spec_digest = self.digest()
        return scenario


def _scale_counts(counts: Dict[int, Dict[DeviceType, int]],
                  factor) -> None:
    """Multiply incident counts in place; ``factor(year, type)``."""
    for year, per_type in counts.items():
        for device_type in list(per_type):
            scaled = per_type[device_type] * factor(year, device_type)
            per_type[device_type] = max(0, int(round(scaled)))


# -- canonical JSON -----------------------------------------------------


def canonical_spec_json(payload: Dict[str, Any]) -> str:
    """Sorted-key, compact-separator JSON — the digestable form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# -- strict loading -----------------------------------------------------

_FIELD_NAMES = (
    "format", "name", "kind", "seed", "scale", "growth", "hazard",
    "fabric_year", "fabric_pace", "severity_mix", "drain_policy",
    "storm", "links_per_edge", "vendor_mix", "region_loss",
    "maintenance_fraction", "correlated",
)


def spec_from_dict(payload: Any, source: str = "<dict>") -> ScenarioSpec:
    """Validate a raw payload into a :class:`ScenarioSpec`.

    Strict by design: unknown keys, wrong-typed values, and malformed
    nested knobs raise :class:`ScenarioError` naming ``source`` and
    the dotted key path — a spec never silently defaults past a typo.
    Missing optional keys take their defaults; ``name`` is required.
    """
    payload = _want_mapping(payload, source, "")
    _check_keys(payload, _FIELD_NAMES, source, "")
    if "format" in payload and payload["format"] != SPEC_FORMAT:
        raise ScenarioError(
            f"foreign format {payload['format']!r} "
            f"(expected {SPEC_FORMAT!r})", source, "format",
        )
    if "name" not in payload:
        raise ScenarioError("missing required key 'name'", source, "")
    fields: Dict[str, Any] = {
        "name": _want(str, payload["name"], source, "name", "a string"),
    }
    if "kind" in payload:
        kind = _want(str, payload["kind"], source, "kind", "a string")
        if kind not in ("intra", "backbone"):
            raise ScenarioError(
                f"unknown kind {kind!r} (expected 'intra' or "
                f"'backbone')", source, "kind",
            )
        fields["kind"] = kind
    if payload.get("seed") is not None:
        fields["seed"] = _want(int, payload["seed"], source, "seed",
                               "an integer")
    for key, what in (("scale", "a number"), ("growth", "a number"),
                      ("fabric_pace", "a number")):
        if key in payload:
            fields[key] = _want(float, payload[key], source, key, what)
    for key in ("fabric_year", "links_per_edge"):
        if key in payload:
            fields[key] = _want(int, payload[key], source, key,
                                "an integer")
    if "drain_policy" in payload:
        fields["drain_policy"] = _want(bool, payload["drain_policy"],
                                       source, "drain_policy", "a boolean")
    if "hazard" in payload:
        fields["hazard"] = _device_map(payload["hazard"], source, "hazard")
    if "severity_mix" in payload:
        fields["severity_mix"] = _severity_map(
            payload["severity_mix"], source, "severity_mix",
        )
    if payload.get("storm") is not None:
        fields["storm"] = _storm_knob(payload["storm"], source, "storm")
    if payload.get("vendor_mix") is not None:
        fields["vendor_mix"] = _vendor_knob(payload["vendor_mix"],
                                            source, "vendor_mix")
    if payload.get("region_loss") is not None:
        fields["region_loss"] = _region_knob(payload["region_loss"],
                                             source, "region_loss")
    if payload.get("maintenance_fraction") is not None:
        fields["maintenance_fraction"] = _want(
            float, payload["maintenance_fraction"], source,
            "maintenance_fraction", "a number",
        )
    if payload.get("correlated") is not None:
        fields["correlated"] = _correlated_knob(payload["correlated"],
                                                source, "correlated")
    try:
        return ScenarioSpec(**fields)
    except ScenarioError as exc:
        # Re-raise dataclass validation with the caller's source.
        raise ScenarioError(
            str(exc).split(": ", 2)[-1], source, exc.path
        ) from None


def load_spec(path: PathLike) -> ScenarioSpec:
    """Load and validate a spec file (JSON; YAML when importable).

    A missing, torn, or truncated file — anything that does not parse
    to a JSON/YAML object — raises :class:`ScenarioError` naming the
    file, exactly like an unknown key would.  YAML support is a
    convenience gated on PyYAML being importable; it is never a
    dependency, and a ``.yaml`` file without it raises a typed error
    telling the user to use JSON.
    """
    path = Path(path)
    source = str(path)
    if not path.exists():
        raise ScenarioError("no such spec file", source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"unreadable spec file ({exc})", source)
    if path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ScenarioError(
                "YAML specs need PyYAML, which is not installed; "
                "use JSON instead", source,
            ) from None
        try:
            payload = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ScenarioError(
                f"torn or malformed YAML ({exc})", source,
            ) from None
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"torn or malformed JSON ({exc})", source,
            ) from None
    return spec_from_dict(payload, source=source)


# -- shipped presets ----------------------------------------------------


def list_presets() -> List[str]:
    """Names of the shipped preset spec files, sorted."""
    return sorted(p.stem for p in _PRESET_DIR.glob("*.json"))


def preset(name: str) -> ScenarioSpec:
    """Load one shipped preset by name (see :func:`list_presets`)."""
    path = _PRESET_DIR / f"{name}.json"
    if not path.exists():
        raise ScenarioError(
            f"unknown preset {name!r} (expected among {list_presets()})",
            str(_PRESET_DIR),
        )
    return load_spec(path)
