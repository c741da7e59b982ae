"""Service-level EVent (SEV) substrate.

Section 4.2: engineers document infrastructure incidents as SEVs in a
MySQL database dating to January 2011, and the study is a set of SQL
queries over that dataset.  This package reproduces that substrate:
the SEV data model with the paper's severity and root-cause
taxonomies, a SQLite-backed report store (stored, imported and served
corpora), the in-memory sink and read-only corpus a generated corpus
is published into, the query layer the analyses use, and the
authoring/review workflow that enforces the mandatory root-cause
field.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.incidents.classifier": (
        "AgreementReport", "Classification", "audit_labels",
        "classify_description",
    ),
    "repro.incidents.sev": (
        "RootCause", "Severity", "SEVReport", "SEVERITY_EXAMPLES",
    ),
    "repro.incidents.memory": ("GeneratedReports", "ReportSink"),
    "repro.incidents.store": ("SEVStore",),
    "repro.incidents.query": ("SEVQuery",),
    "repro.incidents.workflow": (
        "ReviewState", "SEVAuthoringWorkflow", "SEVDraft", "ValidationError",
    ),
})
