"""Statistics toolkit.

Implements the estimators the paper uses: mean time between
failures/incidents, mean time to repair, percentile curves of
per-entity means (the x-axes of Figures 15-18), least-squares
exponential fits with coefficient of determination, and the yearly
bucketing behind the longitudinal figures.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.bootstrap": (
        "ConfidenceInterval", "bootstrap_ci", "mean_ci", "median_ci",
    ),
    "repro.stats.expfit": ("ExponentialModel", "fit_exponential_percentile"),
    "repro.stats.exponentiality": (
        "ExponentialityResult", "interarrival_times", "test_exponentiality",
    ),
    "repro.stats.intervals": (
        "OutageInterval", "merge_intervals", "total_downtime",
    ),
    "repro.stats.mtbf": (
        "mean_time_between", "mtbf_from_intervals", "mtbi_device_hours",
    ),
    "repro.stats.mttr": ("mean_time_to_recovery",),
    "repro.stats.percentile": ("PercentileCurve", "curve_of_means"),
    "repro.stats.quantile": ("P2Quantile", "QuantileSketch"),
    "repro.stats.timeseries": ("YearlyCounts", "yearly_fraction"),
})
