"""Calibrated scenario presets.

A *scenario* is the full parameterization of a synthetic corpus.  The
``paper_*`` presets are calibrated from :mod:`repro.paperdata` so the
analysis pipeline recovers the published results; custom scenarios
support the ablation benches (remediation off, shifted fabric rollout,
different edge redundancy, drain policy off).

Construction lives behind the declarative spec layer: the public
constructors (``paper_scenario``, ``no_drain_policy_scenario``,
``shifted_fabric_scenario``, ``paper_backbone_scenario``) are thin
wrappers over the shipped preset files of :mod:`repro.scenarios`, so
every scenario — legacy call site or spec file — carries a spec digest
and materializes through one code path.  The calibration *math* stays
here, as the ``build_*``/``apply_*``/``shift_*`` builders that
:meth:`repro.scenarios.ScenarioSpec.materialize` composes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import paperdata
from repro.fleet.population import FleetModel, paper_fleet
from repro.incidents.sev import RootCause, Severity
from repro.stats.expfit import ExponentialModel
from repro.topology.backbone import Continent
from repro.topology.devices import DeviceType

# ---------------------------------------------------------------------------
# Intra data center scenario
# ---------------------------------------------------------------------------

#: Calibrated incident counts per (year, device type).  Jointly chosen
#: with the fleet populations (repro.fleet.population) to satisfy:
#: yearly totals growing 9.4x from 2011 to 2017 (Figure 8); the 2017
#: per-type shares of Figure 4/7 (Core 34%, RSW 28%, FSW 8%, ESW 3%,
#: SSW 2%); CSA incident rates of ~1.7 in 2013 and ~1.5 in 2014
#: (section 5.2); the CSA rate collapse after the 2015 drain-policy
#: change; fabric producing ~half the cluster incidents in 2017
#: (section 5.5); and the Figure 12 MTBI anchors.
_PAPER_INCIDENT_COUNTS: Dict[int, Dict[DeviceType, int]] = {
    2011: {DeviceType.CORE: 18, DeviceType.CSA: 8, DeviceType.CSW: 16,
           DeviceType.RSW: 22},
    2012: {DeviceType.CORE: 30, DeviceType.CSA: 14, DeviceType.CSW: 28,
           DeviceType.RSW: 36},
    2013: {DeviceType.CORE: 40, DeviceType.CSA: 68, DeviceType.CSW: 34,
           DeviceType.RSW: 38},
    2014: {DeviceType.CORE: 62, DeviceType.CSA: 90, DeviceType.CSW: 66,
           DeviceType.RSW: 82},
    2015: {DeviceType.CORE: 120, DeviceType.CSA: 30, DeviceType.CSW: 130,
           DeviceType.RSW: 166, DeviceType.FSW: 8, DeviceType.SSW: 2,
           DeviceType.ESW: 4},
    2016: {DeviceType.CORE: 160, DeviceType.CSA: 12, DeviceType.CSW: 120,
           DeviceType.RSW: 188, DeviceType.FSW: 30, DeviceType.SSW: 8,
           DeviceType.ESW: 10},
    2017: {DeviceType.CORE: 204, DeviceType.CSA: 5, DeviceType.CSW: 145,
           DeviceType.RSW: 168, DeviceType.FSW: 48, DeviceType.SSW: 12,
           DeviceType.ESW: 18},
}

#: Per-type severity mixes (SEV3, SEV2, SEV1).  Chosen so the pooled
#: 2017 mix reproduces Figure 4's N = 82% / 13% / 5%, the per-type
#: call-outs of section 5.3 (Core 81/15/4, RSW 85/10/5), and the
#: fabric-vs-cluster contrast (fewer SEV1s and SEV3s, more SEV2s).
_SEVERITY_MIX: Dict[DeviceType, Dict[Severity, float]] = {
    DeviceType.CORE: {Severity.SEV3: 0.81, Severity.SEV2: 0.15,
                      Severity.SEV1: 0.04},
    DeviceType.RSW: {Severity.SEV3: 0.85, Severity.SEV2: 0.10,
                     Severity.SEV1: 0.05},
    DeviceType.CSA: {Severity.SEV3: 0.78, Severity.SEV2: 0.14,
                     Severity.SEV1: 0.08},
    DeviceType.CSW: {Severity.SEV3: 0.80, Severity.SEV2: 0.13,
                     Severity.SEV1: 0.07},
    DeviceType.ESW: {Severity.SEV3: 0.80, Severity.SEV2: 0.17,
                     Severity.SEV1: 0.03},
    DeviceType.SSW: {Severity.SEV3: 0.80, Severity.SEV2: 0.17,
                     Severity.SEV1: 0.03},
    DeviceType.FSW: {Severity.SEV3: 0.80, Severity.SEV2: 0.17,
                     Severity.SEV1: 0.03},
}

#: p75 incident-resolution-time targets per year, in hours.  Section
#: 5.6 / Figures 13-14: p75IRT grew similarly across switch types from
#: roughly an hour toward hundreds of hours, in step with fleet size.
_P75_IRT_TARGETS_H: Dict[int, float] = {
    2011: 1.5, 2012: 4.0, 2013: 10.0, 2014: 30.0,
    2015: 80.0, 2016: 180.0, 2017: 300.0,
}

#: Lognormal shape of resolution times.  A heavy right tail is what
#: motivates the paper's use of p75 instead of the mean.
_IRT_SIGMA = 1.2


@dataclass
class IntraScenario:
    """Parameters of a seven-year intra data center corpus."""

    fleet: FleetModel
    incident_counts: Dict[int, Dict[DeviceType, int]]
    severity_mix: Dict[DeviceType, Dict[Severity, float]]
    root_cause_mix: Dict[RootCause, float]
    p75_irt_h: Dict[int, float]
    irt_sigma: float = _IRT_SIGMA
    fabric_year: int = paperdata.FABRIC_DEPLOYMENT_YEAR
    automated_repair_year: int = paperdata.AUTOMATED_REPAIR_YEAR
    repair_success: Dict[DeviceType, float] = field(default_factory=dict)
    seed: int = 1
    #: Digest of the :class:`repro.scenarios.ScenarioSpec` this
    #: scenario materialized from, with its ``correlated`` block
    #: cleared (None for hand-built scenarios).  Only the survivability
    #: trials read that block, and their fingerprint carries its knobs,
    #: so specs that differ only there key one SEV corpus.  Excluded
    #: from equality: two identical corpora are the same corpus
    #: however they were described.
    spec_digest: Optional[str] = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self) -> None:
        for year, per_type in self.incident_counts.items():
            for device_type, count in per_type.items():
                if count < 0:
                    raise ValueError(
                        f"negative incident count for {device_type} in {year}"
                    )
                if (count > 0
                        and device_type.is_fabric
                        and year < self.fabric_year):
                    raise ValueError(
                        f"{device_type.value} incidents in {year} precede "
                        f"the fabric deployment year {self.fabric_year}"
                    )
        for device_type, mix in self.severity_mix.items():
            total = sum(mix.values())
            if not math.isclose(total, 1.0, rel_tol=1e-6):
                raise ValueError(
                    f"severity mix for {device_type.value} sums to {total}"
                )

    @property
    def years(self) -> List[int]:
        return sorted(self.incident_counts)

    def total_incidents(self, year: int) -> int:
        return sum(self.incident_counts.get(year, {}).values())

    def irt_mu(self, year: int) -> float:
        """Lognormal location whose p75 equals the year's target.

        For LogNormal(mu, sigma), the p-quantile is
        exp(mu + sigma * z_p) with z_0.75 ~ 0.67449.
        """
        target = self.p75_irt_h[year]
        return math.log(target) - 0.67449 * self.irt_sigma


def build_paper_intra(seed: int = 1, scale: float = 1.0) -> IntraScenario:
    """Construct the calibrated intra scenario (the raw builder).

    This is the calibration math behind the ``paper`` preset;
    :meth:`repro.scenarios.ScenarioSpec.materialize` starts every
    intra scenario here.  Call :func:`paper_scenario` instead unless
    you are the spec layer.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    counts = {
        year: {t: max(0, int(round(n * scale))) for t, n in per_type.items()}
        for year, per_type in _PAPER_INCIDENT_COUNTS.items()
    }
    return IntraScenario(
        fleet=paper_fleet(scale=scale),
        incident_counts=counts,
        severity_mix={t: dict(m) for t, m in _SEVERITY_MIX.items()},
        root_cause_mix=dict(
            zip(
                [RootCause(c) for c in paperdata.ROOT_CAUSE_DISTRIBUTION],
                paperdata.ROOT_CAUSE_DISTRIBUTION.values(),
            )
        ),
        p75_irt_h=dict(_P75_IRT_TARGETS_H),
        repair_success=dict(
            (DeviceType(t), r) for t, r in paperdata.REPAIR_RATIO.items()
        ),
        seed=seed,
    )


def apply_no_drain_policy(scenario: IntraScenario) -> IntraScenario:
    """Mutate a scenario so the 2015 drain-policy change never lands.

    Without drained maintenance the CSA incident stream keeps scaling
    with the 2013/2014 per-device rates instead of collapsing, so the
    CSA MTBI improvement of section 5.6 disappears.  Returns the same
    (mutated) scenario for chaining.
    """
    rate_2014 = (scenario.incident_counts[2014][DeviceType.CSA]
                 / scenario.fleet.count(2014, DeviceType.CSA))
    for year in (2015, 2016, 2017):
        population = scenario.fleet.count(year, DeviceType.CSA)
        scenario.incident_counts[year][DeviceType.CSA] = int(
            round(rate_2014 * population)
        )
    return scenario


def shift_fabric_rollout(
    base: IntraScenario, fabric_year: int
) -> IntraScenario:
    """A copy of ``base`` with the fabric rollout moved to ``fabric_year``.

    All fabric-device incidents (and populations) shift with the
    rollout; the Figure 9/10 inflection should follow.
    """
    offset = fabric_year - base.fabric_year
    if offset < 0:
        raise ValueError("the fabric cannot deploy before the study starts")
    counts: Dict[int, Dict[DeviceType, int]] = {}
    fabric_series = {
        t: [
            base.incident_counts[y].get(t, 0)
            for y in base.years
            if y >= base.fabric_year
        ]
        for t in (DeviceType.ESW, DeviceType.SSW, DeviceType.FSW)
    }
    for year in base.years:
        per_type = {
            t: n
            for t, n in base.incident_counts[year].items()
            if not t.is_fabric
        }
        since_rollout = year - fabric_year
        if since_rollout >= 0:
            for t, series in fabric_series.items():
                if since_rollout < len(series):
                    per_type[t] = series[since_rollout]
        counts[year] = per_type
    return IntraScenario(
        fleet=base.fleet,
        incident_counts=counts,
        severity_mix=base.severity_mix,
        root_cause_mix=base.root_cause_mix,
        p75_irt_h=base.p75_irt_h,
        fabric_year=fabric_year,
        repair_success=base.repair_success,
        seed=base.seed,
    )


# -- public constructors (routed through the spec layer) --------------------


def paper_scenario(seed: int = 1, scale: float = 1.0) -> IntraScenario:
    """The calibrated seven-year corpus matching the paper.

    ``scale`` multiplies incident counts and fleet sizes together so
    property tests can run small corpora through identical logic.
    Routed through the shipped ``paper`` preset of
    :mod:`repro.scenarios`, so the result carries its spec digest.
    """
    from repro.scenarios import preset

    return preset("paper").with_updates(
        seed=int(seed), scale=float(scale)
    ).materialize()


def no_drain_policy_scenario(seed: int = 1) -> IntraScenario:
    """Ablation: the 2015 drain-before-maintenance practice never lands.

    The ``no_drain_policy`` preset spec with the caller's seed; see
    :func:`apply_no_drain_policy` for the mechanics.
    """
    from repro.scenarios import preset

    return preset("no_drain_policy").with_updates(seed=int(seed)).materialize()


def shifted_fabric_scenario(fabric_year: int, seed: int = 1) -> IntraScenario:
    """Ablation: move the fabric rollout year.

    The ``shifted_fabric`` preset spec with the caller's rollout year
    and seed; see :func:`shift_fabric_rollout` for the mechanics.
    """
    from repro.scenarios import preset

    return preset("shifted_fabric").with_updates(
        seed=int(seed), fabric_year=int(fabric_year)
    ).materialize()


# ---------------------------------------------------------------------------
# Backbone scenario
# ---------------------------------------------------------------------------

#: Deterministic continent allocation for the default 100-edge backbone,
#: matching the Table 4 shares (37/33/14/10/4/2 percent) exactly.
_CONTINENT_EDGE_COUNTS: Dict[Continent, int] = {
    Continent.NORTH_AMERICA: 37,
    Continent.EUROPE: 33,
    Continent.ASIA: 14,
    Continent.SOUTH_AMERICA: 10,
    Continent.AFRICA: 4,
    Continent.AUSTRALIA: 2,
}

#: Continent reliability factors: multiply the edge percentile model so
#: the per-continent MTBF/MTTR means land on Table 4.  Factors are the
#: Table 4 value over the share-weighted global mean.
_CONTINENT_MTBF_FACTOR = {
    Continent.NORTH_AMERICA: 1.00,
    Continent.EUROPE: 1.09,
    Continent.ASIA: 1.27,
    Continent.SOUTH_AMERICA: 0.85,
    Continent.AFRICA: 2.91,
    Continent.AUSTRALIA: 0.88,
}
_CONTINENT_MTTR_FACTOR = {
    Continent.NORTH_AMERICA: 0.70,
    Continent.EUROPE: 0.95,
    Continent.ASIA: 0.55,
    Continent.SOUTH_AMERICA: 0.45,
    Continent.AFRICA: 1.10,
    Continent.AUSTRALIA: 0.10,
}


@dataclass
class BackboneScenario:
    """Parameters of an eighteen-month backbone ticket corpus."""

    continent_edges: Dict[Continent, int]
    links_per_edge: int
    window_h: float
    edge_mtbf_model: ExponentialModel
    edge_mttr_model: ExponentialModel
    vendor_mttr_model: ExponentialModel
    continent_mtbf_factor: Dict[Continent, float]
    continent_mttr_factor: Dict[Continent, float]
    independent_link_mtbf_h: float = 20_000.0
    flaky_vendor_mtbf_h: float = 24.0
    flaky_vendor_mttr_h: float = 1.0
    include_flaky_vendor: bool = True
    maintenance_fraction: float = 0.35
    #: One edge is slow to repair (section 6.1's 608-hour outlier: a
    #: remote edge whose weather, terrain, and travel time stretch
    #: every repair).  Set to 0 to disable.
    outlier_edge_mttr_h: float = 400.0
    #: Edge MTBF targets are capped at this fraction of the window: an
    #: edge whose true MTBF exceeds the observation window rarely
    #: registers the two failures an MTBF estimate needs, and the
    #: paper reports an MTBF for every edge (max 8025 h inside a
    #: 13140 h window).
    mtbf_cap_fraction: float = 0.6
    #: Corrects the small-sample bias of span-based MTBF estimation
    #: (span/(n-1) underestimates the true inter-arrival scale when an
    #: edge fails only a handful of times in the window).
    mtbf_calibration: float = 1.05
    #: Deterministic episode counts and mean-normalized durations.
    #: With only ~5-10 failures per edge in eighteen months, raw
    #: Poisson/exponential noise would swamp the percentile curves;
    #: the paper's curves are smooth empirical aggregates.
    low_noise: bool = True
    seed: int = 7
    #: Digest of the spec this scenario materialized from (None for
    #: hand-built scenarios); excluded from equality like the intra
    #: scenario's.
    spec_digest: Optional[str] = field(default=None, compare=False,
                                       repr=False)

    def __post_init__(self) -> None:
        if self.links_per_edge < 1:
            raise ValueError("edges need at least one link")
        if self.window_h <= 0:
            raise ValueError("the study window must be positive")
        if not 0.0 <= self.maintenance_fraction <= 1.0:
            raise ValueError("maintenance_fraction outside [0, 1]")

    @property
    def edge_count(self) -> int:
        return sum(self.continent_edges.values())


def build_paper_backbone(
    seed: int = 7, links_per_edge: int = 3
) -> BackboneScenario:
    """Construct the calibrated backbone scenario (the raw builder).

    Edge failure and recovery targets come straight from the published
    exponential models; one flaky vendor reproduces the 2-hour-MTBF
    outlier of section 6.2.  The spec layer starts every backbone
    scenario here; call :func:`paper_backbone_scenario` instead unless
    you are the spec layer.
    """
    return BackboneScenario(
        continent_edges=dict(_CONTINENT_EDGE_COUNTS),
        links_per_edge=links_per_edge,
        window_h=paperdata.BACKBONE_STUDY_MONTHS * 730.0,
        edge_mtbf_model=ExponentialModel(
            a=paperdata.EDGE_MTBF_MODEL["a"],
            b=paperdata.EDGE_MTBF_MODEL["b"],
            r2=paperdata.EDGE_MTBF_MODEL["r2"],
        ),
        edge_mttr_model=ExponentialModel(
            a=paperdata.EDGE_MTTR_MODEL["a"],
            b=paperdata.EDGE_MTTR_MODEL["b"],
            r2=paperdata.EDGE_MTTR_MODEL["r2"],
        ),
        vendor_mttr_model=ExponentialModel(
            a=paperdata.VENDOR_MTTR_MODEL["a"],
            b=paperdata.VENDOR_MTTR_MODEL["b"],
            r2=paperdata.VENDOR_MTTR_MODEL["r2"],
        ),
        continent_mtbf_factor=dict(_CONTINENT_MTBF_FACTOR),
        continent_mttr_factor=dict(_CONTINENT_MTTR_FACTOR),
        seed=seed,
    )


def paper_backbone_scenario(
    seed: int = 7, links_per_edge: int = 3
) -> BackboneScenario:
    """The calibrated eighteen-month backbone corpus.

    The ``paper_backbone`` preset spec with the caller's seed and
    redundancy; see :func:`build_paper_backbone` for the calibration.
    """
    from repro.scenarios import preset

    return preset("paper_backbone").with_updates(
        seed=int(seed), links_per_edge=int(links_per_edge)
    ).materialize()
