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

from repro.incidents.classifier import (
    AgreementReport,
    Classification,
    audit_labels,
    classify_description,
)
from repro.incidents.sev import (
    RootCause,
    Severity,
    SEVReport,
    SEVERITY_EXAMPLES,
)
from repro.incidents.memory import GeneratedReports, ReportSink
from repro.incidents.store import SEVStore
from repro.incidents.query import SEVQuery
from repro.incidents.workflow import (
    ReviewState,
    SEVAuthoringWorkflow,
    SEVDraft,
    ValidationError,
)

__all__ = [
    "AgreementReport",
    "Classification",
    "GeneratedReports",
    "ReportSink",
    "ReviewState",
    "RootCause",
    "SEVERITY_EXAMPLES",
    "SEVAuthoringWorkflow",
    "SEVDraft",
    "SEVQuery",
    "SEVReport",
    "SEVStore",
    "Severity",
    "audit_labels",
    "classify_description",
    "ValidationError",
]
