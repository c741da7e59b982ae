"""SEV authoring and review workflow (sections 2 and 4.2).

Engineers who respond to a SEV write its report; each report then goes
through a review process that verifies accuracy and completeness.  Two
published properties of the workflow matter to the study and are
enforced here:

* the root cause category is a **mandatory** field (section 4.3.1) —
  authors who cannot determine a cause must mark it undetermined
  explicitly, which is why "undetermined" is a first-class Table 2
  category rather than missing data;
* severity is a high-water mark and can be raised during review but
  never downgraded (section 5.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.incidents.sev import RootCause, Severity, SEVReport
from repro.incidents.store import SEVStore
from repro.topology.naming import device_type_from_name


class ValidationError(ValueError):
    """A draft failed the review checklist."""


class ReviewState(enum.Enum):
    DRAFT = "draft"
    IN_REVIEW = "in_review"
    PUBLISHED = "published"
    REJECTED = "rejected"


@dataclass
class SEVDraft:
    """A SEV report being authored."""

    severity: Severity
    device_name: str
    opened_at_h: float
    resolved_at_h: float
    root_causes: List[RootCause] = field(default_factory=list)
    description: str = ""
    service_impact: str = ""
    state: ReviewState = ReviewState.DRAFT

    def escalate(self, severity: Severity) -> None:
        """Raise the severity high-water mark; never lowers it."""
        if severity < self.severity:
            self.severity = severity

    def downgrade(self, severity: Severity) -> None:
        raise ValidationError(
            "a SEV's level is never downgraded to reflect progress in "
            "resolving the SEV (section 5.3)"
        )


class SEVAuthoringWorkflow:
    """Drives drafts through review into a :class:`SEVStore`.

    :meth:`publish_many` reads only the store's ``len()`` and
    ``insert_many``, so it also publishes into an in-memory
    :class:`~repro.incidents.memory.ReportSink`.
    """

    def __init__(self, store: SEVStore, id_prefix: str = "sev") -> None:
        self._store = store
        self._prefix = id_prefix
        # The number of the next SEV id; it only advances once a
        # report is written, so a failed publish leaves no gap.
        self._next_id = len(store)

    def validate(self, draft: SEVDraft) -> List[str]:
        """Run the review checklist; returns problems (empty = passes)."""
        problems = []
        if not draft.root_causes:
            problems.append(
                "root cause category is a mandatory field; record "
                "UNDETERMINED explicitly if the cause is inconclusive"
            )
        if device_type_from_name(draft.device_name) is None:
            problems.append(
                f"device name {draft.device_name!r} does not follow the "
                "type-prefix naming convention"
            )
        if draft.resolved_at_h < draft.opened_at_h:
            problems.append("resolution precedes the incident start")
        if not draft.description:
            problems.append("the report must describe the incident")
        return problems

    def submit(self, draft: SEVDraft) -> None:
        if draft.state is not ReviewState.DRAFT:
            raise ValidationError(f"cannot submit a draft in {draft.state}")
        draft.state = ReviewState.IN_REVIEW

    def review(self, draft: SEVDraft) -> Optional[SEVReport]:
        """Review a submitted draft; publish on success.

        Returns the published report, or None when the draft is
        rejected back to the author (its state records the problems
        implicitly -- callers re-validate to list them).
        """
        if draft.state is not ReviewState.IN_REVIEW:
            raise ValidationError(f"cannot review a draft in {draft.state}")
        if self.validate(draft):
            draft.state = ReviewState.REJECTED
            return None
        report = self._report(draft, self._next_id)
        self._store.insert(report)
        self._next_id += 1
        draft.state = ReviewState.PUBLISHED
        return report

    def publish_many(self, drafts: Iterable[SEVDraft]) -> List[SEVReport]:
        """Submit, review and publish a batch of drafts in one transaction.

        The same ids and rows as :meth:`author_and_publish` on each
        draft in turn, but all or nothing: every draft is checked
        first, and if any is not a fresh draft or fails the review
        checklist, :class:`ValidationError` names it by position and
        nothing is written, no id is consumed and no draft changes
        state.  Otherwise the reports go to the store through one
        :meth:`SEVStore.insert_many` call (one commit for the batch)
        and every draft ends ``PUBLISHED``.
        """
        drafts = list(drafts)
        problems = []
        for position, draft in enumerate(drafts):
            if draft.state is not ReviewState.DRAFT:
                problems.append(
                    f"draft {position}: cannot submit a draft in {draft.state}"
                )
                continue
            problems.extend(
                f"draft {position}: {problem}"
                for problem in self.validate(draft)
            )
        if problems:
            raise ValidationError(f"batch rejected: {'; '.join(problems)}")
        reports = [
            self._report(draft, self._next_id + offset)
            for offset, draft in enumerate(drafts)
        ]
        self._store.insert_many(reports)
        self._next_id += len(reports)
        for draft in drafts:
            draft.state = ReviewState.PUBLISHED
        return reports

    def _report(self, draft: SEVDraft, number: int) -> SEVReport:
        """The published report of a reviewed draft."""
        return SEVReport(
            sev_id=f"{self._prefix}-{number:06d}",
            severity=draft.severity,
            device_name=draft.device_name,
            opened_at_h=draft.opened_at_h,
            resolved_at_h=draft.resolved_at_h,
            root_causes=tuple(draft.root_causes),
            description=draft.description,
            service_impact=draft.service_impact,
            reviewed=True,
        )

    def author_and_publish(self, draft: SEVDraft) -> SEVReport:
        """Submit and review in one step; raises on rejection."""
        self.submit(draft)
        report = self.review(draft)
        if report is None:
            problems = "; ".join(self.validate(draft))
            raise ValidationError(f"draft rejected: {problems}")
        return report
