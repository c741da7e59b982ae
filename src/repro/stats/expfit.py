"""Least-squares exponential fits (section 6.1).

The paper models MTBF(p) and MTTR(p) — the mean as a function of the
percentage of entities with that mean or lower — as exponential
functions ``a * exp(b * p)`` "built ... by fitting an exponential
function using the least squares method", and reports the R² of each
fit.  Fitting ``log y = log a + b p`` by ordinary least squares is the
standard reading of that procedure and is what this module does.  R²
is reported for that linearized regression (log space): the paper's
values (an R² of 0.98 for a vendor MTTR curve whose maximum exceeds
its model prediction five-fold) are only consistent with the
log-space convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ExponentialModel:
    """The fitted model ``y(p) = a * exp(b * p)`` with its R².

    ``degenerate`` marks a placeholder produced from a curve that
    cannot support a fit (fewer than two positive points): a flat
    model at the only observed level, never a regression output.
    """

    a: float
    b: float
    r2: float
    degenerate: bool = False

    def predict(self, p: float) -> float:
        """Evaluate the model at percentile fraction ``p`` in [0, 1]."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile fraction {p} outside [0, 1]")
        import numpy as np

        return self.a * float(np.exp(self.b * p))

    def predict_many(self, ps: Sequence[float]) -> np.ndarray:
        import numpy as np

        arr = np.asarray(ps, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
            raise ValueError("percentile fractions must lie in [0, 1]")
        return self.a * np.exp(self.b * arr)

    def __str__(self) -> str:
        rendered = (
            f"{self.a:.4g} * exp({self.b:.4g} * p)  (R^2 = {self.r2:.2f})"
        )
        if self.degenerate:
            rendered += "  [degenerate]"
        return rendered


def r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination in linear space."""
    import numpy as np

    observed = np.asarray(observed, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    ss_res = float(np.sum((observed - predicted) ** 2))
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    # A constant observation (ss_tot ~ 0) is a perfect fit when the
    # residuals are at float-noise scale, not a zero-R^2 one.
    scale = float(np.sum(observed ** 2)) + 1.0
    if ss_tot <= 1e-12 * scale:
        return 1.0 if ss_res <= 1e-9 * scale else 0.0
    return 1.0 - ss_res / ss_tot


def fit_exponential_percentile(
    ps: Sequence[float], values: Sequence[float]
) -> ExponentialModel:
    """Fit ``values ~ a * exp(b * ps)`` by least squares on log values.

    ``ps`` are percentile fractions in [0, 1]; ``values`` must be
    positive (they are means of strictly positive durations).
    """
    import numpy as np

    p_arr = np.asarray(ps, dtype=float)
    v_arr = np.asarray(values, dtype=float)
    if p_arr.shape != v_arr.shape:
        raise ValueError("ps and values must have the same length")
    if p_arr.size < 2:
        raise ValueError("an exponential fit needs at least two points")
    if np.any(v_arr <= 0):
        raise ValueError("exponential fit requires strictly positive values")
    if p_arr.min() < 0.0 or p_arr.max() > 1.0:
        raise ValueError("percentile fractions must lie in [0, 1]")

    log_v = np.log(v_arr)
    b, log_a = np.polyfit(p_arr, log_v, deg=1)
    a = float(np.exp(log_a))
    r2 = r_squared(log_v, log_a + b * p_arr)
    return ExponentialModel(a=a, b=float(b), r2=r2)


def sample_from_model(
    model: ExponentialModel, n: int, jitter: float = 0.0, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw ``n`` (p, value) points from a percentile model.

    Used by the synthetic backbone generator: entity i gets percentile
    fraction p_i = (i + 0.5) / n and the model's value there, optionally
    multiplied by lognormal noise of scale ``jitter``.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    import numpy as np

    rng = np.random.default_rng(seed)
    ps = (np.arange(n) + 0.5) / n
    values = model.predict_many(ps)
    if jitter > 0.0:
        values = values * np.exp(rng.normal(0.0, jitter, size=n))
    return ps, values
