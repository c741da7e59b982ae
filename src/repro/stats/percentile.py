"""Percentile curves of per-entity means (Figures 15-18).

Each backbone figure plots a per-entity mean (an edge's MTBF, a
vendor's MTTR, ...) against "the percentage of entities with that mean
or lower".  :class:`PercentileCurve` is that construction: sort the
per-entity means ascending and place entity ``i`` of ``n`` at
percentile fraction ``(i + 1) / n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.stats.expfit import ExponentialModel, fit_exponential_percentile


@dataclass(frozen=True)
class PercentileCurve:
    """Sorted per-entity means with their percentile fractions."""

    entities: Tuple[str, ...]
    values: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.entities) != len(self.values):
            raise ValueError("entities and values must align")
        if len(self.values) == 0:
            raise ValueError("a percentile curve needs at least one entity")
        if any(v < 0 for v in self.values):
            raise ValueError("per-entity means must be non-negative")
        if list(self.values) != sorted(self.values):
            raise ValueError("values must be sorted ascending; use "
                             "curve_of_means to construct curves")

    @property
    def fractions(self) -> Tuple[float, ...]:
        n = len(self.values)
        return tuple((i + 1) / n for i in range(n))

    def value_at(self, fraction: float) -> float:
        """The mean at (or interpolated around) a percentile fraction."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside [0, 1]")
        import numpy as np

        return float(np.interp(fraction, self.fractions, self.values))

    @property
    def p50(self) -> float:
        return self.value_at(0.50)

    @property
    def p90(self) -> float:
        return self.value_at(0.90)

    @property
    def min(self) -> float:
        return self.values[0]

    @property
    def max(self) -> float:
        return self.values[-1]

    @property
    def std(self) -> float:
        import numpy as np

        return float(np.std(np.asarray(self.values)))

    def fit_exponential(self, strict: bool = True) -> ExponentialModel:
        """The paper's least-squares exponential model of the curve.

        A regression needs at least two positive points; log-space
        fitting cannot see zeros at all.  On such degenerate curves
        (a single entity, or all-zero means) the default raises a
        clear :class:`ValueError`; with ``strict=False`` the method
        instead returns a flagged flat model
        (``ExponentialModel(degenerate=True)`` pinned at the only
        positive level observed, or zero) so report renderers can
        show *something* without crashing in ``log``.
        """
        positive = [(p, v) for p, v in zip(self.fractions, self.values)
                    if v > 0]
        if len(positive) < 2:
            if strict:
                raise ValueError(
                    "not enough positive points for a fit: an exponential "
                    "model needs at least two entities with positive means "
                    f"(got {len(positive)}); pass strict=False for a "
                    "flagged degenerate model instead"
                )
            level = positive[0][1] if positive else 0.0
            return ExponentialModel(a=level, b=0.0, r2=0.0, degenerate=True)
        ps, vs = zip(*positive)
        return fit_exponential_percentile(ps, vs)

    def rows(self) -> List[Tuple[str, float, float]]:
        """(entity, fraction, value) rows, for reports."""
        return [
            (e, f, v)
            for e, f, v in zip(self.entities, self.fractions, self.values)
        ]


def curve_of_means(per_entity: Dict[str, float]) -> PercentileCurve:
    """Build a percentile curve from a per-entity mean mapping."""
    if not per_entity:
        raise ValueError("no entities to build a curve from")
    ordered = sorted(per_entity.items(), key=lambda kv: (kv[1], kv[0]))
    entities, values = zip(*ordered)
    return PercentileCurve(entities=tuple(entities), values=tuple(values))


def curve_from_samples(
    per_entity_samples: Dict[str, Sequence[float]]
) -> PercentileCurve:
    """Build a curve from raw per-entity samples (mean of each)."""
    means = {}
    for entity, samples in per_entity_samples.items():
        if not samples:
            raise ValueError(f"entity {entity!r} has no samples")
        means[entity] = sum(samples) / len(samples)
    return curve_of_means(means)
