"""Plain-text rendering of the paper's tables and figures.

The benchmark harness prints the same rows and series the paper
reports; these helpers render them as aligned tables and ASCII bar
charts so a terminal diff against the paper is possible.  The stream
dashboard renders the live counterparts from incremental aggregates.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.viz.tables": ("format_table",),
    "repro.viz.ascii": ("bar_chart", "series_chart"),
    "repro.viz.grid_view": ("axis_table", "grid_table"),
    "repro.viz.report_builder": ("build_report", "collect_artifacts"),
    "repro.viz.stream_view": ("stream_dashboard",),
    "repro.viz.survivability_view": (
        "survivability_curve_table", "survivability_table",
    ),
    "repro.viz.ticket_view": (
        "duration_table", "scorecard_table", "ticket_dashboard",
    ),
})
