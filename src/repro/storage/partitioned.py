"""Tiered, partitioned corpus stores.

One SQLite file cannot hold fleet-scale history; this module shards
each corpus into per-``(year, region)`` partitions behind a
:class:`~repro.storage.manifest.Manifest`:

* **hot tier** — the domain's native random-access format: one SQLite
  shard per partition for SEVs (the same schema as the monolithic
  :class:`~repro.incidents.store.SEVStore`, so the SQL query layer
  works on any single shard), plain JSONL for tickets;
* **cold tier** — gzip JSONL in the interchange schema of
  :mod:`repro.io` (its record codecs), readable by ``analyze`` and
  ``stream --replay``.

Partition digests hash the *sorted canonical interchange rows*, never
the container bytes, so a partition's digest is identical on either
tier — ``promote``/``demote`` verify themselves lossless, and
``verify`` audits the whole store against the manifest.

Reads are planned off the manifest and merged back into the exact
global order the monolithic store iterates in (``(opened_at_h,
sev_id)`` for SEVs), so every execution path over a partitioned
store reproduces the monolithic report digests bit for bit.  The
``storage.shard`` fault site simulates losing a shard file mid-read
(raising :class:`~repro.faultline.plan.PartitionLost`); ``restore``
re-ingests one partition from a source corpus and proves the digest
matches the manifest before publishing.
"""

from __future__ import annotations

import gzip
import hashlib
import heapq
import json
import os
import re
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union,
)

from repro.faultline import hooks
from repro.faultline.plan import PartitionLost
from repro.io import (
    SEV_CODEC, TICKET_CODEC, RecordCodec, is_gzip_path, open_text,
)
from repro.storage.manifest import (
    MANIFEST_NAME,
    Manifest,
    ManifestError,
    PartitionEntry,
    StorageError,
)

__all__ = ["PartitionedSEVStore", "PartitionedTicketStore"]

PathLike = Union[str, Path]
PartitionKey = Tuple[int, str]

#: The catch-all region for records whose identity carries none.
NO_REGION = "none"

_SLUG_RE = re.compile(r"[^A-Za-z0-9_-]+")


def _region_slug(region: str) -> str:
    """A filesystem-safe, collision-free file-name fragment.

    Sanitizing is lossy (``a/b`` and ``a.b`` both map to ``a-b``), so
    any region the sanitizer had to touch gets a short content hash
    appended — two distinct regions can never share a partition file.
    """
    value = region or NO_REGION
    slug = _SLUG_RE.sub("-", value)
    if slug != value or not slug:
        digest = hashlib.sha256(value.encode()).hexdigest()[:8]
        slug = f"{slug.strip('-') or 'region'}-{digest}"
    return slug


def _digest_rows(rows: List[dict]) -> str:
    """Tier-independent partition digest over sorted canonical rows."""
    payload = "\n".join(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256(payload.encode()).hexdigest()


def _publish(path: Path, write: Callable[[Path], object]) -> None:
    """Write a partition file as ``<name>.tmp``, then rename it to ``path``.

    A write that fails leaves the old file, which the manifest still
    describes, in place; the rename is atomic.  A stale ``.tmp`` from
    a crashed write is deleted first (``recover`` skips ``.tmp``
    files), and so is the ``.tmp`` of a write that fails.
    """
    tmp = path.with_name(path.name + ".tmp")
    tmp.unlink(missing_ok=True)
    try:
        write(tmp)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


class _TieredStore:
    """Shared machinery of the two domain stores.

    Subclasses define the partition key, the interchange row codec
    (a :class:`~repro.io.RecordCodec`), the global sort key, and (SEVs
    only) a hot-tier container other than JSONL; everything else —
    manifest bookkeeping, tier moves, retention, recovery, the fault
    site — lives here.
    """

    domain: str = ""
    #: Duck-typing flag the runtime layer keys on (corpus planning,
    #: batch-path gating) without importing this module.
    is_partitioned = True
    #: Hot-tier file extension (cold is always ``.jsonl.gz``).
    hot_ext: str = ".jsonl"
    codec: RecordCodec

    def __init__(self, root: PathLike, manifest: Manifest) -> None:
        self.root = Path(root)
        self.manifest = manifest

    # -- lifecycle ---------------------------------------------------

    @classmethod
    def init(cls, root: PathLike, meta: Optional[dict] = None):
        """Create an empty store (directory + manifest) at ``root``."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / MANIFEST_NAME).exists():
            raise StorageError(
                f"{root} already holds a store; open() or recover() it"
            )
        manifest = Manifest(cls.domain, meta=meta)
        manifest.save(root)
        return cls(root, manifest)

    @classmethod
    def open(cls, root: PathLike):
        """Attach to an existing store; ``ManifestError`` on damage."""
        manifest = Manifest.load(root)
        if manifest.domain != cls.domain:
            raise StorageError(
                f"{root} holds a {manifest.domain!r} store, "
                f"not {cls.domain!r}"
            )
        return cls(Path(root), manifest)

    @classmethod
    def recover(cls, root: PathLike, meta: Optional[dict] = None):
        """Rebuild a lost or corrupt manifest by scanning the shards.

        Every partition file is read in full; its key comes from the
        rows themselves (a partition holds exactly one key by
        construction), its tier from the extension, and its row count
        and digest are recomputed — so the rebuilt manifest describes
        what is actually on disk, not what a torn write claimed.
        ``meta`` (generator seed, scale) cannot be recovered from the
        shards; pass it when known.
        """
        root = Path(root)
        if not root.is_dir():
            raise StorageError(f"no store directory at {root}")
        manifest = Manifest(cls.domain, meta=meta)
        store = cls(root, manifest)
        for file in sorted(root.iterdir()):
            if file.name == MANIFEST_NAME or file.name.endswith(".tmp"):
                continue
            if file.name.endswith(".jsonl.gz"):
                tier = "cold"
            elif file.name.endswith(cls.hot_ext):
                tier = "hot"
            else:
                continue
            records = store._read_file(file, tier)
            if not records:
                continue
            keys = {store.partition_key(r) for r in records}
            if len(keys) != 1:
                raise StorageError(
                    f"partition file {file.name} holds {len(keys)} "
                    f"distinct (year, region) keys; expected exactly 1"
                )
            (key,) = keys
            rows = store._sorted_rows(records)
            manifest.upsert(PartitionEntry(
                year=key[0], region=key[1], rows=len(rows),
                digest=_digest_rows(rows), tier=tier, path=file.name,
            ))
        manifest.save(root)
        return store

    # -- domain hooks (subclass responsibilities) --------------------

    def partition_key(self, record) -> PartitionKey:
        raise NotImplementedError

    def _record_row(self, record) -> dict:
        return self.codec.to_row(record)

    def _row_record(self, row: dict):
        return self.codec.from_row(row)

    def _sort_key(self, record) -> tuple:
        raise NotImplementedError

    # -- partition files ---------------------------------------------

    def _partition_name(self, key: PartitionKey, tier: str) -> str:
        year, region = key
        ext = self.hot_ext if tier == "hot" else ".jsonl.gz"
        return f"{year}_{_region_slug(region)}{ext}"

    def _sorted_rows(self, records: Iterable) -> List[dict]:
        ordered = sorted(records, key=self._sort_key)
        return [self._record_row(r) for r in ordered]

    def _read_cold(self, path: Path) -> Tuple[List, str]:
        """A JSONL partition's records in sort order, and the digest
        of the lines read.

        The writer wrote the sorted canonical rows one per line, so an
        intact file's lines digest to its manifest digest; readers
        that need only the records drop the digest.
        """
        with open_text(path) as handle:
            lines = [line for line in map(str.strip, handle) if line]
        records = [self._row_record(json.loads(line)) for line in lines]
        records.sort(key=self._sort_key)
        return records, hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def _write_cold(self, path: Path, records: List,
                    check: Optional[Callable[[str], None]] = None) -> str:
        """Write records as sorted JSONL; returns the partition digest.

        A ``.gz`` path is gzip-compressed.  The digest hashes the exact
        lines written (:func:`_digest_rows` of the same rows), so no
        caller encodes the rows a second time.  ``check`` sees the
        digest before anything is written and refuses the write by
        raising.  The file is published by rename (:func:`_publish`).
        """
        ordered = sorted(records, key=self._sort_key)
        payload = "\n".join(
            json.dumps(self._record_row(record), sort_keys=True)
            for record in ordered
        ).encode()
        digest = hashlib.sha256(payload).hexdigest()
        if check is not None:
            check(digest)
        data = payload + b"\n" if ordered else b""
        if is_gzip_path(path):
            data = gzip.compress(data)
        _publish(path, lambda tmp: tmp.write_bytes(data))
        return digest

    # The hot tier defaults to the same JSONL codec (only ``.gz``
    # paths are compressed); SEV stores override it with SQLite
    # shards.  Every writer returns the digest of the rows it wrote.
    def _read_hot(self, path: Path) -> List:
        return self._read_cold(path)[0]

    _write_hot = _write_cold

    def _read_file(self, path: Path, tier: str) -> List:
        return self._read_hot(path) if tier == "hot" \
            else self._read_cold(path)[0]

    def _check_partition(self, entry: PartitionEntry) -> Path:
        """The partition's file path, after the fault-site gauntlet.

        The ``storage.shard`` fault site simulates the shard file
        vanishing mid-plan: the file is actually deleted and a typed
        :class:`PartitionLost` names the partition, so the recovery
        drill repairs genuine damage, not a simulation of it.  Every
        planned read — row scan or direct shard attach — runs through
        here, so the columnar and SQL-pushdown paths honor the same
        fault site as the record scan.
        """
        path = self.root / entry.path
        if hooks.fire("storage.shard"):
            if path.exists():
                path.unlink()
            raise PartitionLost(
                f"injected shard loss: partition {entry.key} "
                f"({entry.path})", key=entry.key,
            )
        if not path.exists():
            raise PartitionLost(
                f"partition {entry.key} is missing its file "
                f"{entry.path}; restore() it from a source corpus",
                key=entry.key,
            )
        return path

    def _read_partition(self, entry: PartitionEntry) -> List:
        """Every record of one partition, in global sort order."""
        return self._read_file(self._check_partition(entry), entry.tier)

    # -- writes ------------------------------------------------------

    def ingest(self, records: Iterable) -> int:
        """Route records to their ``(year, region)`` partitions.

        Appends to existing partitions: each touched partition is
        read, merged with its new records and written once, on the hot
        tier (the only writable one), and its row count and digest
        come from the rows the writer wrote.  A cold target is read
        once and refused, like a lossy tier move, when its rows do not
        digest to its manifest entry; its file goes once the merged
        shard is in place.  Every file is published by rename,
        so a write that fails leaves that partition's old file in
        place.  The manifest is published once at the end, or after
        the last partition written when one fails, so it always
        describes the files on disk.  Returns how many records landed.
        """
        groups: Dict[PartitionKey, List] = {}
        count = 0
        for record in records:
            groups.setdefault(self.partition_key(record), []).append(record)
            count += 1
        try:
            for key in sorted(groups):
                entry = self.manifest.get(key)
                merged = groups[key]
                if entry is not None and entry.tier == "cold":
                    stored, digest = self._read_cold(
                        self._check_partition(entry))
                    if digest != entry.digest:
                        # Lines that differ from the writer's bytes
                        # but hold the same rows are intact, as
                        # verify() and promote() see them.
                        digest = _digest_rows(self._sorted_rows(stored))
                    self._refuse_lossy(entry, digest)
                    merged = stored + merged
                elif entry is not None:
                    merged = self._read_hot(self.root / entry.path) + merged
                path = self.root / self._partition_name(key, "hot")
                digest = self._write_hot(path, merged)
                if entry is not None and entry.path != path.name:
                    (self.root / entry.path).unlink()
                self.manifest.upsert(PartitionEntry(
                    year=key[0], region=key[1], rows=len(merged),
                    digest=digest, tier="hot", path=path.name,
                ))
        finally:
            self.manifest.save(self.root)
        return count

    # The monolithic store's batch write, for serve's ingest into a
    # served tiered store (its only caller).
    def insert_many(self, records: Iterable) -> int:
        return self.ingest(records)

    def restore(self, key: PartitionKey, source: Iterable) -> int:
        """Re-ingest one lost partition from a source corpus.

        Filters ``source`` down to the records belonging to ``key``,
        rewrites the partition on its manifest tier, and — when the
        manifest still remembers the partition — refuses a digest
        mismatch before the file is written: a restore must reproduce
        exactly the rows the manifest attests to, or fail loudly.
        """
        entry = self.manifest.get(key)
        tier = entry.tier if entry is not None else "hot"
        records = [r for r in source if self.partition_key(r) == key]

        def refuse_wrong_source(digest: str) -> None:
            if entry is not None and digest != entry.digest:
                raise StorageError(
                    f"restore of partition {key} produced digest "
                    f"{digest[:12]}, manifest expects "
                    f"{entry.digest[:12]}; wrong source corpus?"
                )

        path = self.root / self._partition_name(key, tier)
        with hooks.suppressed("storage.shard"):
            digest = self._writer(tier)(path, records,
                                        check=refuse_wrong_source)
        self.manifest.upsert(PartitionEntry(
            year=key[0], region=key[1], rows=len(records), digest=digest,
            tier=tier, path=path.name,
        ))
        self.manifest.save(self.root)
        return len(records)

    # -- tiering -----------------------------------------------------

    def _writer(self, tier: str) -> Callable[..., str]:
        return self._write_hot if tier == "hot" else self._write_cold

    @staticmethod
    def _refuse_lossy(entry: PartitionEntry, digest: str) -> None:
        """Raise unless ``digest`` is the partition's manifest digest."""
        if digest != entry.digest:
            raise StorageError(
                f"tier move of partition {entry.key} would change its "
                f"digest ({entry.digest[:12]} -> {digest[:12]}); "
                "refusing to publish a lossy move"
            )

    def _move_tier(self, entry: PartitionEntry, tier: str,
                   save: bool = True) -> PartitionEntry:
        records = self._read_partition(entry)
        new_path = self.root / self._partition_name(entry.key, tier)
        self._writer(tier)(
            new_path, records,
            check=lambda digest: self._refuse_lossy(entry, digest),
        )
        old_path = self.root / entry.path
        if old_path != new_path and old_path.exists():
            old_path.unlink()
        moved = PartitionEntry(
            year=entry.year, region=entry.region, rows=entry.rows,
            digest=entry.digest, tier=tier, path=new_path.name,
        )
        self.manifest.upsert(moved)
        if save:
            self.manifest.save(self.root)
        return moved

    def demote(self, key: PartitionKey) -> PartitionEntry:
        """Move one partition to the cold tier (gzip JSONL)."""
        entry = self._require(key)
        if entry.tier == "cold":
            return entry
        return self._move_tier(entry, "cold")

    def promote(self, key: PartitionKey) -> PartitionEntry:
        """Move one partition back to the hot tier."""
        entry = self._require(key)
        if entry.tier == "hot":
            return entry
        return self._move_tier(entry, "hot")

    def compact(self, keep_hot_years: int = 1) -> List[PartitionKey]:
        """Demote every partition older than the newest N years.

        The compaction policy of a corpus whose queries skew heavily
        recent: the paper's target year is always the newest, so
        history compresses and the working set stays hot.  Returns
        the demoted keys.
        """
        if keep_hot_years < 0:
            raise ValueError("keep_hot_years must be non-negative")
        years = self.manifest.years()
        if not years:
            return []
        threshold = max(years) - keep_hot_years + 1
        demoted = []
        try:
            for entry in self.manifest.partitions():
                if entry.tier == "hot" and entry.year < threshold:
                    self._move_tier(entry, "cold", save=False)
                    demoted.append(entry.key)
        finally:
            # Published even when a move fails: the moves before it
            # already deleted their hot files.
            self.manifest.save(self.root)
        return demoted

    def apply_retention(self, min_year: int) -> List[PartitionKey]:
        """Drop every partition older than ``min_year`` (any tier).

        The destructive half of the lifecycle: shard files are deleted
        and their manifest entries removed.  Returns the dropped keys.
        """
        dropped = []
        for entry in self.manifest.partitions():
            if entry.year < min_year:
                path = self.root / entry.path
                if path.exists():
                    path.unlink()
                self.manifest.remove(entry.key)
                dropped.append(entry.key)
        if dropped:
            self.manifest.save(self.root)
        return dropped

    # -- reads -------------------------------------------------------

    def records(self) -> Iterator:
        """Every record, in the monolithic store's global order.

        A lazy k-way merge over the per-partition iterators: each
        partition is read (and sorted) on demand, and the heads are
        merged on the domain sort key — identical output to the
        monolithic scan, one partition of memory at a time.
        """
        streams = [
            iter(self._read_partition(entry))
            for entry in self.manifest.partitions()
        ]
        return heapq.merge(*streams, key=self._sort_key)

    def partition_records(self, key: PartitionKey) -> List:
        """One partition's records, in global sort order."""
        return self._read_partition(self._require(key))

    def __len__(self) -> int:
        return self.manifest.total_rows()

    def years(self) -> List[int]:
        return self.manifest.years()

    def regions(self) -> List[str]:
        return self.manifest.regions()

    def partition_keys(self) -> List[PartitionKey]:
        return [e.key for e in self.manifest.partitions()]

    def _require(self, key: PartitionKey) -> PartitionEntry:
        entry = self.manifest.get(key)
        if entry is None:
            raise StorageError(f"no partition {key!r} in {self.root}")
        return entry

    # -- auditing ----------------------------------------------------

    def verify(self) -> Dict[PartitionKey, str]:
        """Recompute every partition against the manifest.

        Returns a mismatch report — ``{key: reason}`` — empty when the
        store is healthy.  Missing files are reported, not raised, so
        one lost shard does not hide the state of the others.
        """
        problems: Dict[PartitionKey, str] = {}
        for entry in self.manifest.partitions():
            path = self.root / entry.path
            if not path.exists():
                problems[entry.key] = f"missing file {entry.path}"
                continue
            rows = self._sorted_rows(self._read_file(path, entry.tier))
            if len(rows) != entry.rows:
                problems[entry.key] = (
                    f"row count {len(rows)} != manifest {entry.rows}"
                )
            elif _digest_rows(rows) != entry.digest:
                problems[entry.key] = "content digest mismatch"
        return problems

    def status(self) -> dict:
        """JSON-able summary: tiers, rows, bytes, per-partition rows."""
        tiers = {"hot": 0, "cold": 0}
        size = 0
        for entry in self.manifest.partitions():
            tiers[entry.tier] += 1
            path = self.root / entry.path
            if path.exists():
                size += path.stat().st_size
        return {
            "domain": self.domain,
            "partitions": len(self.manifest),
            "rows": len(self),
            "years": self.years(),
            "regions": self.regions(),
            "tiers": tiers,
            "bytes": size,
            "meta": dict(self.manifest.meta),
            "entries": [
                {"year": e.year, "region": e.region, "rows": e.rows,
                 "tier": e.tier, "path": e.path}
                for e in self.manifest.partitions()
            ],
        }


class PartitionedSEVStore(_TieredStore):
    """The SEV corpus, sharded by (opened year, device region).

    Hot partitions are full :class:`~repro.incidents.store.SEVStore`
    SQLite files — the SQL query layer works against any one shard —
    and the global scan merges shards back into the monolithic
    ``(opened_at_h, sev_id)`` order, so reports over a partitioned
    corpus are bit-identical to the single-file store's.
    """

    domain = "sev"
    hot_ext = ".db"
    codec = SEV_CODEC

    _schema_hash: Optional[str] = None

    def partition_key(self, report) -> PartitionKey:
        return (report.opened_year, report.region or NO_REGION)

    def _sort_key(self, report) -> tuple:
        return (report.opened_at_h, report.sev_id)

    def _read_hot(self, path: Path) -> List:
        from repro.incidents.store import SEVStore

        with SEVStore(str(path)) as shard:
            return list(shard.all_reports())

    def _write_hot(self, path: Path, records: List,
                   check: Optional[Callable[[str], None]] = None) -> str:
        """Build a SQLite shard in three commits; returns its digest.

        ``check`` sees the digest before the shard is built and
        refuses the write by raising.  The shard is built as
        ``<name>.tmp`` (two schema commits on open, then
        :meth:`SEVStore.bulk_load`'s one synced commit) and published
        by rename, so a failed load leaves the old shard in place.
        """
        from repro.incidents.store import SEVStore

        ordered = sorted(records, key=self._sort_key)
        digest = _digest_rows([self._record_row(r) for r in ordered])
        if check is not None:
            check(digest)

        def build(tmp: Path) -> None:
            with SEVStore(str(tmp)) as shard:
                shard.bulk_load(ordered)

        _publish(path, build)
        return digest

    def all_reports(self) -> Iterator:
        """The monolithic store's scan API, answered off the manifest."""
        return self.records()

    def shard_stores(self) -> Iterator[tuple]:
        """Each partition as its best substrate, one at a time.

        Yields ``("store", SEVStore)`` for hot partitions — the shard
        *is* a monolithic-schema SQLite file, so the SQL query layer
        and the columnar scan run against it directly, no row
        materialization — and ``("records", list)`` for cold ones
        (gzip JSONL has no queryable form).  The caller owns each
        yielded store and must close it.  Runs the same
        ``storage.shard`` fault site as the record scan.  Partition
        order follows the manifest; any per-partition fold merges to
        the monolithic states under the merge law.
        """
        from repro.incidents.store import SEVStore

        for entry in self.manifest.partitions():
            path = self._check_partition(entry)
            if entry.tier == "hot":
                yield "store", SEVStore(str(path))
            else:
                yield "records", self._read_cold(path)[0]

    def schema_hash(self) -> str:
        """The monolithic schema hash, by construction.

        Hot shards *are* monolithic stores, so the partitioned corpus
        fingerprints exactly as the same rows would in one file — the
        cache-key stability the tentpole demands.  Computed once from
        a fresh in-memory store and cached on the class.
        """
        if PartitionedSEVStore._schema_hash is None:
            from repro.incidents.store import SEVStore

            with SEVStore() as empty:
                PartitionedSEVStore._schema_hash = empty.schema_hash()
        return PartitionedSEVStore._schema_hash


class PartitionedTicketStore(_TieredStore):
    """The backbone repair-ticket corpus, sharded by (year, location).

    Tickets have no SQL query layer — every consumer folds them in
    memory — so the hot tier is plain JSONL in the interchange schema
    and the cold tier its gzip twin.  ``completed()`` keeps the
    :class:`TicketDatabase` surface the corpus runtime reads.
    """

    domain = "ticket"
    hot_ext = ".jsonl"
    codec = TICKET_CODEC

    def partition_key(self, ticket) -> PartitionKey:
        from repro.incidents.sev import year_of_hours

        return (
            year_of_hours(max(ticket.started_at_h, 0.0)),
            ticket.location or NO_REGION,
        )

    def _sort_key(self, ticket) -> tuple:
        return (ticket.started_at_h, ticket.ticket_id)

    def completed(self) -> List:
        """Every (completed) ticket, in global (start, id) order."""
        return list(self.records())
