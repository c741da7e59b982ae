"""Tests for the SEV authoring/review workflow."""

import pytest

from repro.incidents.sev import RootCause, Severity
from repro.incidents.store import SEVStore
from repro.incidents.workflow import (
    ReviewState,
    SEVAuthoringWorkflow,
    SEVDraft,
    ValidationError,
)


def draft(**kw):
    defaults = dict(
        severity=Severity.SEV3,
        device_name="rsw.001.pod1.dc1.ra",
        opened_at_h=10.0,
        resolved_at_h=20.0,
        root_causes=[RootCause.BUG],
        description="switch crash from software bug",
    )
    defaults.update(kw)
    return SEVDraft(**defaults)


class TestValidation:
    def test_valid_draft_passes(self):
        with SEVStore() as store:
            assert SEVAuthoringWorkflow(store).validate(draft()) == []

    def test_root_cause_mandatory(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(root_causes=[])
            )
            assert any("mandatory" in p for p in problems)

    def test_bad_device_name(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(device_name="unknown-device")
            )
            assert any("naming convention" in p for p in problems)

    def test_time_travel(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(resolved_at_h=5.0)
            )
            assert any("precedes" in p for p in problems)

    def test_description_required(self):
        with SEVStore() as store:
            problems = SEVAuthoringWorkflow(store).validate(
                draft(description="")
            )
            assert any("describe" in p for p in problems)


class TestSeverityHighWaterMark:
    def test_escalation_raises_level(self):
        d = draft(severity=Severity.SEV3)
        d.escalate(Severity.SEV1)
        assert d.severity is Severity.SEV1

    def test_escalate_never_lowers(self):
        d = draft(severity=Severity.SEV1)
        d.escalate(Severity.SEV3)
        assert d.severity is Severity.SEV1

    def test_downgrade_forbidden(self):
        with pytest.raises(ValidationError, match="never downgraded"):
            draft(severity=Severity.SEV1).downgrade(Severity.SEV2)


class TestLifecycle:
    def test_publish_path(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft()
            workflow.submit(d)
            assert d.state is ReviewState.IN_REVIEW
            published = workflow.review(d)
            assert published is not None
            assert d.state is ReviewState.PUBLISHED
            assert store.get(published.sev_id) is not None

    def test_rejection_path(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft(root_causes=[])
            workflow.submit(d)
            assert workflow.review(d) is None
            assert d.state is ReviewState.REJECTED
            assert len(store) == 0

    def test_cannot_review_unsubmitted(self):
        with SEVStore() as store:
            with pytest.raises(ValidationError):
                SEVAuthoringWorkflow(store).review(draft())

    def test_cannot_submit_twice(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            d = draft()
            workflow.submit(d)
            with pytest.raises(ValidationError):
                workflow.submit(d)

    def test_author_and_publish_raises_on_bad_draft(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            with pytest.raises(ValidationError, match="rejected"):
                workflow.author_and_publish(draft(description=""))

    def test_unique_ids(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            ids = {
                workflow.author_and_publish(draft()).sev_id
                for _ in range(10)
            }
            assert len(ids) == 10


def batch():
    """Five valid drafts over three device types and two causes."""
    return [
        draft(device_name=f"{kind}.{i:03d}.pod1.dc1.ra",
              opened_at_h=10.0 * i, resolved_at_h=10.0 * i + 3.5,
              root_causes=[RootCause.BUG if i % 2 else RootCause.HARDWARE],
              severity=Severity.SEV2 if i == 3 else Severity.SEV3)
        for i, kind in enumerate(["rsw", "fsw", "rsw", "csa", "fsw"])
    ]


class TestPublishMany:
    def test_same_ids_and_rows_as_one_at_a_time(self):
        with SEVStore() as one_by_one, SEVStore() as batched:
            single = SEVAuthoringWorkflow(one_by_one)
            expected = [single.author_and_publish(d) for d in batch()]
            drafts = batch()
            published = SEVAuthoringWorkflow(batched).publish_many(drafts)
            assert [r.sev_id for r in published] == [
                r.sev_id for r in expected
            ]
            assert list(batched.all_reports()) == list(
                one_by_one.all_reports()
            )
            assert all(d.state is ReviewState.PUBLISHED for d in drafts)

    def test_ids_continue_across_calls_and_paths(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            first = workflow.publish_many(batch()[:2])
            middle = workflow.author_and_publish(draft())
            last = workflow.publish_many(batch()[2:])
            ids = [r.sev_id for r in first + [middle] + last]
            assert ids == [f"sev-{n:06d}" for n in range(6)]
            assert SEVAuthoringWorkflow(store).publish_many(
                [draft()]
            )[0].sev_id == "sev-000006"

    def test_empty_batch_writes_nothing(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            assert workflow.publish_many([]) == []
            assert len(store) == 0
            assert workflow.author_and_publish(draft()).sev_id == "sev-000000"

    def test_one_invalid_draft_rejects_the_whole_batch(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            workflow.author_and_publish(draft())
            drafts = batch()
            drafts[3].description = ""
            with pytest.raises(ValidationError, match="draft 3: .*describe"):
                workflow.publish_many(drafts)
            assert len(store) == 1
            assert all(d.state is ReviewState.DRAFT for d in drafts)
            # No id was consumed: the next publish gets the id the
            # failed batch would have used first.
            assert workflow.author_and_publish(draft()).sev_id == "sev-000001"

    def test_a_submitted_draft_rejects_the_batch(self):
        with SEVStore() as store:
            workflow = SEVAuthoringWorkflow(store)
            drafts = batch()
            workflow.submit(drafts[1])
            with pytest.raises(ValidationError, match="draft 1: cannot submit"):
                workflow.publish_many(drafts)
            assert len(store) == 0
            assert workflow.publish_many(batch())[0].sev_id == "sev-000000"
