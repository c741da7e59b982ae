"""The ingestion engine.

:class:`StreamEngine` pulls SEV reports from any source iterator
(a live feed of :mod:`repro.stream.sources`, a store's scan, or an
exported file through :func:`repro.io.read_records`), folds each one
into its
:class:`~repro.stream.aggregates.StreamAggregates`, and optionally
checkpoints the state every ``checkpoint_every`` events.  Resuming
from a checkpoint re-attaches the saved aggregates and skips the
already-ingested prefix of the stream, so an interrupted replay
finishes with exactly the state an uninterrupted one produces.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.incidents.sev import SEVReport
from repro.stream.aggregates import StreamAggregates
from repro.stream.checkpoint import PathLike, load_checkpoint, save_checkpoint


class StreamEngine:
    """Incremental ingestion over a SEV event stream."""

    def __init__(
        self,
        aggregates: Optional[StreamAggregates] = None,
        checkpoint_path: Optional[PathLike] = None,
        checkpoint_every: int = 0,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if checkpoint_every and checkpoint_path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.aggregates = aggregates or StreamAggregates()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        #: Events this engine (plus any resumed state) has consumed.
        self.events_ingested = self.aggregates.events

    # -- lifecycle ---------------------------------------------------

    @classmethod
    def resume(
        cls,
        checkpoint_path: PathLike,
        checkpoint_every: int = 0,
    ) -> "StreamEngine":
        """Re-attach to a snapshot written by :meth:`save_checkpoint`."""
        aggregates, _ = load_checkpoint(checkpoint_path)
        return cls(
            aggregates=aggregates,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    @classmethod
    def resume_or_fresh(
        cls,
        checkpoint_path: PathLike,
        checkpoint_every: int = 0,
    ) -> "StreamEngine":
        """Resume when a readable snapshot exists; otherwise start fresh.

        A missing checkpoint means a first run; a *corrupt* one (torn
        write, foreign format) is warned about and ignored rather than
        crashing the replay — the engine re-ingests from the start and
        overwrites the bad snapshot at the next save.
        """
        import os
        import warnings

        if os.path.exists(checkpoint_path):
            try:
                return cls.resume(checkpoint_path, checkpoint_every)
            except ValueError as exc:
                warnings.warn(
                    f"ignoring unusable checkpoint: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return cls(
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    def save_checkpoint(self, path: Optional[PathLike] = None) -> None:
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        save_checkpoint(target, self.aggregates, self.events_ingested)

    # -- ingestion ---------------------------------------------------

    def ingest(self, report: SEVReport) -> None:
        """Fold one report in, checkpointing on the configured cadence."""
        self.aggregates.ingest(report)
        self.events_ingested += 1
        if (
            self.checkpoint_every
            and self.events_ingested % self.checkpoint_every == 0
        ):
            self.save_checkpoint()

    def run(
        self,
        source: Iterable[SEVReport],
        from_start: bool = True,
        limit: Optional[int] = None,
    ) -> int:
        """Drain a source into the aggregates; returns events consumed.

        ``from_start=True`` (the default) treats ``source`` as the
        complete stream and skips the first ``events_ingested`` events
        — the resume contract: hand a resumed engine the same replay
        source and it continues where the checkpoint stopped.  Pass
        ``from_start=False`` for a source that is already positioned
        (a live tail).  ``limit`` bounds how many *new* events are
        consumed, for incremental draining.
        """
        iterator = iter(source)
        if from_start and self.events_ingested:
            iterator = itertools.islice(iterator, self.events_ingested, None)
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be non-negative")
            iterator = itertools.islice(iterator, limit)
        consumed = 0
        for report in iterator:
            self.ingest(report)
            consumed += 1
        if self.checkpoint_path is not None and consumed:
            self.save_checkpoint()
        return consumed
