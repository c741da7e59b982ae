"""Report payloads: the JSON the serving layer speaks.

One module owns the translation from report dataclasses to JSON-able
dicts, so the HTTP endpoints of :mod:`repro.serve.api` and the job
artifacts of :mod:`repro.serve.jobs` serialize the same corpus the
same way.  Each report payload embeds the canonical ``report_digest``
of the underlying report dataclass (the
:func:`repro.faultline.oracle.report_digest` hash).  The CLI's
``report --digest`` prints that hash for a context from the same
builders (:func:`repro.runtime.build_intra_context`,
:func:`repro.runtime.build_backbone_context`,
:func:`repro.survivability.build_survivability_context`), so an HTTP
response and a CLI invocation over the same corpus+seed can be
compared with one string.

Figure and table payloads are addressable by the paper's artifact ids
(``fig3`` ... ``fig18``, ``table2``, ``table4``) through
:data:`FIGURES`; each carries its own ``digest`` over the canonical
JSON of its data, so per-figure responses are individually
verifiable.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Optional, Tuple

from repro.incidents.sev import RootCause, Severity
from repro.runtime import RunContext, run_backbone_report, run_intra_report
from repro.topology.devices import DeviceType

__all__ = [
    "FIGURES",
    "backbone_report_payload",
    "canonical_json",
    "figure_ids",
    "intra_report_payload",
    "payload_digest",
    "survivability_report_payload",
]


def canonical_json(payload) -> str:
    """The one serialization under which equal payloads are equal text."""
    return json.dumps(payload, indent=1, sort_keys=True)


def payload_digest(payload) -> str:
    """SHA-256 over the canonical JSON of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


# -- figure/table extraction --------------------------------------------


def _model_dict(model) -> dict:
    return {
        "a": model.a, "b": model.b, "r2": model.r2,
        "degenerate": model.degenerate,
    }


def _curve_dict(curve, model) -> dict:
    return {"p50": curve.p50, "p90": curve.p90, "model": _model_dict(model)}


def _intra_table2(report) -> dict:
    return {c.value: report.root_causes.fraction(c) for c in RootCause}


def _intra_fig3(report) -> dict:
    year = report.last_year
    return {
        "year": year,
        "rate_per_device": {
            t.value: report.rates.rate(year, t) for t in DeviceType
        },
    }


def _intra_fig4(report) -> dict:
    return {
        "year": report.severity.year,
        "shares": {
            s.label: report.severity.level_share(s) for s in sorted(Severity)
        },
    }


def _intra_fig5(report) -> dict:
    return {"inflection_year": report.severity_over_time.inflection_year()}


def _intra_fig7(report) -> dict:
    year = report.last_year
    return {
        "year": year,
        "fractions": {
            t.value: report.distribution.fraction_of_year(year, t)
            for t in DeviceType
        },
    }


def _intra_fig8(report) -> dict:
    return {"growth": report.growth}


def _intra_fig9(report) -> dict:
    return {
        "cluster_inflection_year": report.designs.cluster_inflection_year(),
        "fabric_to_cluster_ratio": report.designs.fabric_to_cluster_ratio(
            report.last_year
        ),
    }


def _intra_fig12(report) -> dict:
    year = report.last_year
    return {
        "year": year,
        "mtbi_h": {
            t.value: mtbi
            for t, mtbi in sorted(
                report.switches.mtbi_h.get(year, {}).items(),
                key=lambda item: item[0].value,
            )
        },
    }


def _backbone_fig15(report) -> dict:
    rel = report.reliability
    return _curve_dict(rel.edge_mtbf, rel.edge_mtbf_model())


def _backbone_fig16(report) -> dict:
    rel = report.reliability
    return _curve_dict(rel.edge_mttr, rel.edge_mttr_model())


def _backbone_fig17(report) -> dict:
    rel = report.reliability
    return _curve_dict(rel.vendor_mtbf, rel.vendor_mtbf_model())


def _backbone_fig18(report) -> dict:
    rel = report.reliability
    return _curve_dict(rel.vendor_mttr, rel.vendor_mttr_model())


def _backbone_table4(report) -> dict:
    return {
        "rows": [
            {
                "continent": row.continent.value,
                "share": row.share,
                "mtbf_h": row.mtbf_h,
                "mttr_h": row.mttr_h,
            }
            for row in report.continents
        ],
    }


#: Every addressable artifact: id -> (study, title, extractor).
FIGURES: Dict[str, Tuple[str, str, Callable]] = {
    "table2": ("intra", "Table 2: root causes", _intra_table2),
    "fig3": ("intra", "Figure 3: incident rate per device", _intra_fig3),
    "fig4": ("intra", "Figure 4: severity mix", _intra_fig4),
    "fig5": ("intra", "Figure 5: rate inflection", _intra_fig5),
    "fig7": ("intra", "Figure 7: incidents by device type", _intra_fig7),
    "fig8": ("intra", "Figure 8: SEV growth", _intra_fig8),
    "fig9": ("intra", "Figure 9: design comparison", _intra_fig9),
    "fig12": ("intra", "Figure 12: MTBI", _intra_fig12),
    "fig15": ("backbone", "Figure 15: edge MTBF", _backbone_fig15),
    "fig16": ("backbone", "Figure 16: edge MTTR", _backbone_fig16),
    "fig17": ("backbone", "Figure 17: vendor MTBF", _backbone_fig17),
    "fig18": ("backbone", "Figure 18: vendor MTTR", _backbone_fig18),
    "table4": ("backbone", "Table 4: edges by continent", _backbone_table4),
}


def figure_ids(kind: Optional[str] = None) -> list:
    """The addressable ids: all, only ``fig*``, or only ``table*``."""
    ids = sorted(FIGURES, key=lambda i: (FIGURES[i][0], i))
    if kind is None:
        return ids
    return [i for i in ids if i.startswith(kind)]


# -- report payloads ----------------------------------------------------


def _digest(report) -> str:
    from repro.faultline.oracle import report_digest

    return report_digest(report)


def intra_report_payload(
    context: RunContext,
    cache=None,
) -> dict:
    """The intra study as JSON, digest-pinned to the report dataclass."""
    report = run_intra_report(context, cache=cache)
    figures = {
        fig_id: extract(report)
        for fig_id, (study, _, extract) in FIGURES.items()
        if study == "intra"
    }
    return {
        "study": "intra",
        "corpus_seed": context.corpus_seed,
        "last_year": report.last_year,
        "figures": figures,
        "report_digest": _digest(report),
    }


def _curves_payload(curves) -> dict:
    return {
        curve.design: [
            {
                "fraction_pct": point.fraction_pct,
                "value": point.value,
                "trials": point.trials,
            }
            for point in curve.points
        ]
        for curve in curves.curves
    }


def survivability_report_payload(
    context: RunContext,
    cache=None,
) -> dict:
    """The survivability study as JSON, digest-pinned like the others.

    Curves ride inline (they have no paper figure id); the
    ``survivable_capacity`` join gives the capacity-planner view of
    the same curves, so one response answers both "how fast does
    connectivity decay" and "how much correlated failure can each
    design absorb".
    """
    from repro.core import survivable_capacity
    from repro.survivability import run_survivability_report

    report = run_survivability_report(context, cache=cache)
    capacity_rows = survivable_capacity(report)
    return {
        "study": "survivability",
        "corpus_seed": context.corpus_seed,
        "designs": [row.design for row in report.summary.designs],
        "connectivity": _curves_payload(report.connectivity),
        "capacity": _curves_payload(report.capacity),
        "summary": {
            "fabric_advantage": report.summary.fabric_advantage,
            "designs": [
                {
                    "design": row.design,
                    "connectivity_auc": row.connectivity_auc,
                    "capacity_auc": row.capacity_auc,
                    "half_connectivity_pct": row.half_connectivity_pct,
                }
                for row in report.summary.designs
            ],
        },
        "survivable_capacity": [
            {
                "design": row.design,
                "floor": row.floor,
                "max_survivable_pct": row.max_survivable_pct,
                "capacity_at_pct": row.capacity_at_pct,
            }
            for row in capacity_rows
        ],
        "report_digest": _digest(report),
    }


def backbone_report_payload(
    context: RunContext,
    cache=None,
) -> dict:
    """The backbone study as JSON, digest-pinned to the report dataclass."""
    report = run_backbone_report(context, cache=cache)
    figures = {
        fig_id: extract(report)
        for fig_id, (study, _, extract) in FIGURES.items()
        if study == "backbone"
    }
    return {
        "study": "backbone",
        "corpus_seed": context.corpus_seed,
        "window_h": context.window_h,
        "figures": figures,
        "report_digest": _digest(report),
    }
