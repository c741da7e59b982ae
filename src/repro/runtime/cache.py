"""Content-addressed result cache.

A full report is ~10 analyses over one corpus; re-running ``report
full`` or ``verify`` over an *unchanged* corpus should cost zero
corpus passes.  The cache keys every finalized result by a **corpus
fingerprint**, the analysis name and its ``version``, and the
context's year/baseline/window parameters, so any change to the
corpus, the analysis code or the question misses cleanly.  How the
executor gathered a result is not part of the key: every path answers
bit-identically, so one entry serves them all.

A corpus fingerprint comes in one of two kinds:

*provenance*
    a corpus this library generated is keyed by how it was made: its
    domain tag, its generating scenario's spec digest (which carries
    the seed, the scale and every knob) and :data:`GENERATOR_VERSION`
    (:func:`provenance_fingerprint`).  The key is known before the
    corpus exists, so a warm run looks its results up first and
    generates only on a miss.  Any write after generation drops it.
*row-based*
    a stored, imported or written-to corpus keeps the cheap
    (domain, rows, seed, scenario digest, schema) fingerprint of
    :func:`corpus_fingerprint` and :func:`ticket_fingerprint`; it
    sees no content, so two such corpora of equal size and seed share
    a key.

The cache is content-addressed, not invalidated: nothing is ever
evicted by mutation, a changed corpus simply hashes elsewhere.  By
default entries live in process memory; give the cache a directory and
entries also persist as pickle files named by their key hash, carrying
hits across processes.  (Pickle is safe here: the cache directory is
written and read only by this library's own result dataclasses; do not
point it at untrusted files.)

Disk entries are written atomically (tmp file + ``os.replace``) and
read defensively: a torn or garbled entry — a crash mid-write, a
truncated disk — is treated as a miss, unlinked, and warned about, so
a damaged cache directory can slow a report down but never wrong it.
Both failure modes are injectable at the ``cache.store`` and
``cache.lookup`` sites of :mod:`repro.faultline`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.faultline import hooks

from repro.incidents.store import SEVStore

__all__ = [
    "GENERATOR_VERSION",
    "ResultCache",
    "corpus_fingerprint",
    "provenance_fingerprint",
    "ticket_fingerprint",
    "trial_fingerprint",
]

PathLike = Union[str, Path]

#: Version of the corpus generators (the intra and backbone simulators
#: and the survivability trials).  It joins every provenance key and
#: the trial fingerprint: bump it whenever a change moves what a
#: generator emits for a given spec, or a persistent cache serves
#: results computed over the old corpus.
GENERATOR_VERSION = 1


def provenance_fingerprint(domain: str, scenario: str) -> str:
    """Fingerprint a generated corpus by how it was made.

    ``scenario`` is the generating scenario's spec digest
    (:meth:`repro.scenarios.ScenarioSpec.digest`), which already
    carries the seed, the scale and every knob; the generators are
    deterministic in it, so (domain, spec digest,
    :data:`GENERATOR_VERSION`) pins the corpus content without the
    corpus.  A corpus written to after generation must not keep this
    key (:class:`~repro.incidents.store.SEVStore` and
    :class:`~repro.backbone.tickets.TicketDatabase` drop their
    ``provenance`` on every write, and
    :class:`~repro.incidents.memory.GeneratedReports` cannot be
    written to).
    """
    payload = (
        f"domain={domain};provenance={scenario}"
        f";generator={GENERATOR_VERSION}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def corpus_fingerprint(store: SEVStore, seed: Optional[int] = None,
                       scenario: Optional[str] = None) -> str:
    """Row-based fingerprint of a SEV store: domain, rows, seed,
    scenario, schema.

    The key of stored, imported and written-to corpora; a corpus the
    context builders generate is keyed by
    :func:`provenance_fingerprint` instead, for as long as nothing
    writes to it.  Cheap by design (no corpus scan), and blind to
    content: two stores with the same row count, seed surrogate and
    schema share a key, so corpora imported from elsewhere should pass
    a caller-chosen ``seed`` surrogate or skip caching.  The domain tag
    keeps a SEV corpus from ever colliding with a ticket corpus of
    the same size and seed.

    ``scenario`` is the generating scenario's spec digest
    (:meth:`repro.scenarios.ScenarioSpec.digest`).  Without it, two
    *different* scenarios that happen to produce the same row count
    at the same seed — a severity-mix override changes every row but
    not the count — would collide in a shared cache; the digest keeps
    them apart.  ``None`` is an honest "unspecified" that hashes like
    the legacy payload never could collide with a digest-bearing one.

    ``store`` is anything with ``__len__`` and ``schema_hash()`` —
    the monolithic :class:`~repro.incidents.store.SEVStore` or the
    partitioned store of :mod:`repro.storage`.  A partitioned store
    reports the monolith's schema hash, so the same rows under either
    layout hash to the same cache key.
    """
    rows = len(store)
    schema_hash = store.schema_hash()
    payload = (
        f"domain=sev;rows={rows};seed={seed};scenario={scenario}"
        f";schema={schema_hash}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def ticket_fingerprint(tickets, seed: Optional[int] = None,
                       scenario: Optional[str] = None) -> str:
    """Row-based fingerprint of a ticket corpus: domain, rows, seed,
    scenario, schema.

    The ticket analog of :func:`corpus_fingerprint`, and likewise the
    key of stored and written-to ticket corpora only (a generated one
    is keyed by :func:`provenance_fingerprint`): completed-ticket
    count, scenario seed, the generating scenario's spec digest, and
    a hash of the interchange schema (the ticket codec's field list
    plus the ticket-type vocabulary, the ticket database's equivalent of a
    SQL schema).  The ``domain=ticket`` tag guarantees a ticket
    corpus and a SEV corpus of identical size and seed hash to
    different cache keys, and the scenario digest keeps two distinct
    backbone scenarios of identical size and seed apart.
    """
    from repro.backbone.tickets import TicketType
    from repro.io import TICKET_CODEC

    rows = len(tickets.completed())
    schema = ";".join(TICKET_CODEC.fields) + "|" + ",".join(
        t.value for t in TicketType
    )
    schema_hash = hashlib.sha256(schema.encode()).hexdigest()
    payload = (
        f"domain=ticket;rows={rows};seed={seed};scenario={scenario}"
        f";schema={schema_hash}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def trial_fingerprint(trials, seed: Optional[int] = None,
                      scenario: Optional[str] = None) -> str:
    """Fingerprint a survivability trial corpus.

    Trials are generated eagerly (a corpus costs milliseconds), so
    their key is computed from the corpus: row count, seed, the
    generating scenario's spec digest, :data:`GENERATOR_VERSION`, the
    record schema (the
    :class:`~repro.survivability.trials.FailureTrial` field list),
    *and the correlation knobs* — a trial corpus is a pure function of
    (seed, knobs), so two corpora of equal size and seed under
    different power-domain/storm/maintenance settings must hash apart
    even without a scenario digest.  The ``domain=trial`` tag keeps
    trial corpora from ever colliding with the SEV or ticket domains.
    """
    from dataclasses import fields

    from repro.survivability.trials import FailureTrial

    rows = len(trials)
    schema = ";".join(f.name for f in fields(FailureTrial))
    knobs = ",".join(
        f"{key}={value!r}"
        for key, value in sorted(getattr(trials, "knobs", {}).items())
    )
    schema_hash = hashlib.sha256(
        f"{schema}|{knobs}".encode()
    ).hexdigest()
    payload = (
        f"domain=trial;rows={rows};seed={seed};scenario={scenario}"
        f";generator={GENERATOR_VERSION};schema={schema_hash}"
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """In-memory (and optionally on-disk) store of finalized results."""

    def __init__(self, path: Optional[PathLike] = None) -> None:
        self._memory: Dict[str, Any] = {}
        self._dir = Path(path) if path is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.pruned = 0

    def __len__(self) -> int:
        return len(self._memory)

    @staticmethod
    def key(
        fingerprint: str,
        analysis: str,
        year: Optional[int],
        baseline_year: Optional[int],
        window_h: Optional[float] = None,
        version: Any = 1,
    ) -> str:
        """One cache key: corpus identity, analysis code, the question.

        ``version`` is the analysis' code version
        (:attr:`repro.runtime.analysis.Analysis.version`), so a bumped
        analysis misses while its neighbours keep hitting.
        ``window_h`` is the ticket domain's context parameter (the
        observation window the MTBF math scales by), playing the role
        ``year``/``baseline_year`` play for the SEV domain.
        """
        payload = (
            f"{fingerprint}:{analysis}:v{version}:{year}"
            f":{baseline_year}:{window_h}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _file(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.pkl"

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """(hit?, value).  Disk hits are promoted into memory.

        A corrupt or unreadable disk entry is a *miss*, not an error:
        the entry is unlinked (a recompute will rewrite it) and a
        warning names the dropped file.
        """
        if key in self._memory:
            self.hits += 1
            return True, self._memory[key]
        if self._dir is not None:
            file = self._file(key)
            if file.exists():
                if hooks.fire("cache.lookup"):
                    # Tear the real on-disk entry so the recovery path
                    # below is exercised against genuine corruption.
                    data = file.read_bytes()
                    file.write_bytes(data[: len(data) // 2])
                try:
                    value = pickle.loads(file.read_bytes())
                except Exception as exc:
                    warnings.warn(
                        f"result cache: dropping corrupt entry "
                        f"{file.name} ({type(exc).__name__}: {exc})",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    try:
                        file.unlink()
                    except OSError:
                        pass
                else:
                    self._memory[key] = value
                    self.hits += 1
                    # Touch the entry so LRU-by-mtime pruning sees the
                    # hit: recently used entries evict last.
                    try:
                        os.utime(file)
                    except OSError:
                        pass
                    return True, value
        self.misses += 1
        return False, None

    def store(self, key: str, value: Any) -> None:
        """Publish a result; the disk write is atomic.

        The pickle goes to a sibling tmp file first and is renamed
        into place, so a reader concurrent with (or following a crash
        of) a writer sees the old entry or none — never a torn one.
        """
        self._memory[key] = value
        if self._dir is not None:
            file = self._file(key)
            tmp = file.with_name(file.name + ".tmp")
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            if hooks.fire("cache.store"):
                # Simulated mid-write kill: a torn tmp file is left
                # behind and nothing is published.
                tmp.write_bytes(payload[: len(payload) // 2])
                return
            tmp.write_bytes(payload)
            os.replace(tmp, file)

    def _disk_entries(self) -> list:
        """(mtime, name, size, path) per disk entry, oldest first.

        The name is the tiebreaker so pruning order is deterministic
        on filesystems with coarse mtime resolution.
        """
        assert self._dir is not None
        entries = []
        for file in self._dir.glob("*.pkl"):
            try:
                stat = file.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, file.name, stat.st_size, file))
        entries.sort(key=lambda e: (e[0], e[1]))
        return entries

    def disk_bytes(self) -> int:
        """Total size of the persistent entries, in bytes (0 if none)."""
        if self._dir is None:
            return 0
        return sum(size for _, _, size, _ in self._disk_entries())

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used disk entries down to a byte budget.

        Content-addressed caches never invalidate, so on disk they only
        grow; ``prune`` is the retention policy.  Entries are dropped
        oldest-mtime-first (lookups touch their file, so a recent hit
        protects an entry) until the directory fits ``max_bytes``.
        Pruned entries also leave process memory — a next lookup is an
        honest miss that recomputes and rewrites.  Returns how many
        entries were evicted.
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if self._dir is None:
            return 0
        entries = self._disk_entries()
        total = sum(size for _, _, size, _ in entries)
        evicted = 0
        for _, name, size, file in entries:
            if total <= max_bytes:
                break
            try:
                file.unlink()
            except OSError:
                continue
            total -= size
            evicted += 1
            self._memory.pop(name[: -len(".pkl")], None)
        self.pruned += evicted
        return evicted

    def stats(self) -> Dict[str, Any]:
        """Counter snapshot: hits, misses, entries, hit rate, pruning.

        The JSON-able shape the serving layer's ``/stats`` endpoint
        and the CLI's ``[cache]`` line both report.
        """
        total = self.hits + self.misses
        stats = {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._memory),
            "hit_rate": (self.hits / total) if total else 0.0,
            "persistent": self._dir is not None,
            "pruned": self.pruned,
        }
        if self._dir is not None:
            disk = self._disk_entries()
            stats["disk_entries"] = len(disk)
            stats["disk_bytes"] = sum(size for _, _, size, _ in disk)
        return stats

    def clear(self) -> None:
        self._memory.clear()
        if self._dir is not None:
            for file in self._dir.glob("*.pkl"):
                file.unlink()
            for tmp in self._dir.glob("*.pkl.tmp"):
                tmp.unlink()
