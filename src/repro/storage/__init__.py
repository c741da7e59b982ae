"""repro.storage — tiered, partitioned corpus storage.

The fleet-scale answer to the monolithic SQLite file: each corpus is
sharded into per-``(year, region)`` partitions behind a checksummed
JSON :class:`Manifest`, with a hot tier in the domain's native format
and a gzip-JSONL cold tier, plus ``compact``/``apply_retention``
lifecycle policies and digest-verified ``promote``/``demote`` moves.

The stores duck-type the surfaces the rest of the system consumes —
``all_reports``/``years``/``len``/``schema_hash`` for SEVs,
``completed`` for tickets — so the corpus runtime, the CLI, and the
serving layer run over either layout and produce bit-identical report
digests.  ``python -m repro store init|compact|status`` is the
operator surface.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.storage.manifest": (
        "MANIFEST_FORMAT", "MANIFEST_NAME", "Manifest", "ManifestError",
        "PartitionEntry", "StorageError", "TIERS",
    ),
    "repro.storage.partitioned": (
        "PartitionedSEVStore", "PartitionedTicketStore",
    ),
})
