"""Root cause analysis (section 5.1, Table 2, Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.incidents.sev import RootCause
from repro.topology.devices import DeviceType


@dataclass(frozen=True)
class RootCauseBreakdown:
    """Table 2: root cause counts and fractions over the study."""

    counts: Dict[RootCause, int]

    @property
    def total_attributions(self) -> int:
        """Total root-cause attributions.

        Exceeds the SEV count when SEVs carry multiple causes, exactly
        as Table 2's counting rule implies.
        """
        return sum(self.counts.values())

    def fraction(self, cause: RootCause) -> float:
        total = self.total_attributions
        if total == 0:
            return 0.0
        return self.counts.get(cause, 0) / total

    def distribution(self) -> Dict[RootCause, float]:
        return {cause: self.fraction(cause) for cause in RootCause}

    @property
    def human_to_hardware_ratio(self) -> float:
        """Human-induced (bug + misconfiguration) over hardware.

        Section 5.1 observes human-induced software issues occur at
        nearly double the rate of hardware failures.
        """
        hardware = self.counts.get(RootCause.HARDWARE, 0)
        human = (self.counts.get(RootCause.BUG, 0)
                 + self.counts.get(RootCause.CONFIGURATION, 0))
        if hardware == 0:
            return float("inf") if human else 0.0
        return human / hardware

    @property
    def dominant_determined_cause(self) -> RootCause:
        """The largest category other than undetermined (maintenance
        in the paper)."""
        determined = {
            c: n for c, n in self.counts.items()
            if c is not RootCause.UNDETERMINED
        }
        if not determined:
            raise ValueError("no determined root causes in the corpus")
        return max(determined, key=lambda c: (determined[c], c.value))


def device_fractions_from_counts(
    raw: Dict[RootCause, Dict[DeviceType, int]],
) -> Dict[RootCause, Dict[DeviceType, float]]:
    """The Figure 2 math: normalize each root-cause row across types."""
    fractions: Dict[RootCause, Dict[DeviceType, float]] = {}
    for cause, per_type in raw.items():
        total = sum(per_type.values())
        if total == 0:
            continue
        fractions[cause] = {t: n / total for t, n in per_type.items()}
    return fractions
