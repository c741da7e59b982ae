"""Pre-warming: hot reports before the first request.

The serving contract is that the request path is never O(corpus): a
report request reads the study's finished payload, which
:class:`~repro.serve.api.ServeState` builds once per corpus
generation.  That only holds if someone else already paid for the
build.  This module is that someone:

* :meth:`CacheWarmer.prewarm` builds every study's payload at startup,
  folding through the shared :class:`~repro.runtime.cache.ResultCache`,
  so even the *first* HTTP request reuses a built payload.
* :meth:`CacheWarmer.tail` inserts a live SEV source into the served
  store.  Every ingest drops the intra payload and rotates the corpus
  fingerprint (all cached intra report keys go stale), so the warmer
  counts dirty events and rebuilds at a cadence — new data becomes
  visible in served reports without any request ever paying the fold.
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

__all__ = ["CacheWarmer"]

#: Every served study, in warm order.  Only the intra corpus can move
#: under live ingest; the backbone and survivability corpora are
#: static, so one startup fold keeps them warm for the process's life.
STUDIES = ("intra", "backbone", "survivability")


class CacheWarmer:
    """Keeps the served payloads hot across startup and live ingest."""

    def __init__(self, state, refold_every: int = 64) -> None:
        if refold_every < 1:
            raise ValueError("refold_every must be at least 1")
        self.state = state
        self.refold_every = refold_every
        self._lock = threading.Lock()
        self._dirty = 0
        self.prewarms = 0
        self.refolds = 0
        self.events_tailed = 0

    # -- warming -----------------------------------------------------

    def prewarm(self, studies: Sequence[str] = STUDIES) -> dict:
        """Build the payloads of ``studies``; returns their digests.

        Idempotent: a second call on an unchanged corpus reuses every
        built payload and folds nothing.  After live ingest it rebuilds
        the intra payload, re-folding exactly the analyses whose corpus
        moved (the backbone and survivability corpora are static, so
        their payloads stay warm for free).
        """
        digests = {}
        for study in studies:
            payload = self.state.report_payload(study)
            digests[study] = payload["report_digest"]
        with self._lock:
            self.prewarms += 1
        return digests

    def refold(self) -> dict:
        """Re-warm the dirty analyses and reset the dirty counter."""
        with self._lock:
            self._dirty = 0
            self.refolds += 1
        # Only the intra corpus can move under live ingest.
        return self.prewarm(studies=("intra",))

    def notify(self, events: int = 1) -> bool:
        """Record ``events`` new corpus events; refold at the cadence.

        Returns True when this notification triggered a refold.
        """
        with self._lock:
            self._dirty += events
            due = self._dirty >= self.refold_every
        if due:
            self.refold()
        return due

    # -- live ingest -------------------------------------------------

    def tail(
        self,
        source: Iterable,
        limit: Optional[int] = None,
        batch: int = 16,
    ) -> int:
        """Fold a SEV source into the served corpus, re-warming as it goes.

        ``source`` is any iterator of :class:`~repro.incidents.sev.SEVReport`
        (e.g. :func:`repro.io.read_records` over a SEV file).  Events are
        ingested in batches through :meth:`ServeState.ingest` — which
        inserts them into the served store and counts them — and the
        dirty counter re-folds the intra report at the configured
        cadence.  Always finishes with a final refold when anything
        landed, so the served reports include the complete tail.
        """
        ingested = 0
        pending = []
        for report in source:
            pending.append(report)
            if len(pending) >= batch:
                ingested += self._flush(pending)
                pending = []
            if limit is not None and ingested + len(pending) >= limit:
                break
        ingested += self._flush(pending)
        if ingested:
            self.refold()
        return ingested

    def _flush(self, pending) -> int:
        if not pending:
            return 0
        count = self.state.ingest(pending)
        with self._lock:
            self.events_tailed += count
        self.notify(count)
        return count

    # -- inspection --------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "prewarms": self.prewarms,
                "refolds": self.refolds,
                "events_tailed": self.events_tailed,
                "dirty": self._dirty,
                "refold_every": self.refold_every,
            }
