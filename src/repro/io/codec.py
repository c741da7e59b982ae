"""One interchange path for both corpora.

A :class:`RecordCodec` says how one record kind — a SEV report
(§4.2) or a completed fiber repair ticket (§4.3.2) — becomes an
interchange row and back.  :func:`data_format` is the one suffix
rule: ``.csv``, ``.json``, ``.jsonl``, and ``.jsonl.gz``, the only
compressed form.  :func:`write_records` and :func:`read_records` move
either kind through any of the three formats; the reader streams, so
a replay never materializes the corpus.

Real feeds are imperfect: a producer dies mid-line, a log rotation
tears the tail, a foreign row sneaks in.  The JSONL reader therefore
runs in two modes — ``strict=True`` (the default) raises a
:class:`ValueError` naming the file and line, ``strict=False`` skips
the malformed line and counts it in a
:class:`~repro.io.errors.ReadErrors` — and the ``io.jsonl.line``
fault site of :mod:`repro.faultline` can tear lines on the way in to
exercise both.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, Optional, Tuple, Union,
)

from repro.backbone.tickets import RepairTicket, TicketType
from repro.faultline import hooks
from repro.incidents.sev import RootCause, SEVReport, Severity
from repro.io.compression import is_gzip_path, open_text, strip_gz_suffix
from repro.io.errors import ReadErrors

__all__ = [
    "CODECS",
    "RecordCodec",
    "SEV_CODEC",
    "TICKET_CODEC",
    "data_format",
    "read_records",
    "write_records",
]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RecordCodec:
    """How one record kind crosses the interchange boundary.

    ``dataset`` names the kind (``"sevs"`` or ``"tickets"``, as on the
    command line) and keys the rows of a JSON document; ``fields`` is
    the row schema in column order; ``to_row`` and ``from_row`` turn a
    record into a row of JSON scalars and back.
    """

    dataset: str
    fields: Tuple[str, ...]
    to_row: Callable[[Any], dict]
    from_row: Callable[[dict], Any]


def _sev_row(report: SEVReport) -> dict:
    return {
        "sev_id": report.sev_id,
        "severity": int(report.severity),
        "device_name": report.device_name,
        "opened_at_h": report.opened_at_h,
        "resolved_at_h": report.resolved_at_h,
        "root_causes": ";".join(c.value for c in report.root_causes),
        "description": report.description,
        "service_impact": report.service_impact,
        "reviewed": int(report.reviewed),
    }


def _row_sev(row: dict) -> SEVReport:
    causes = tuple(
        RootCause(v) for v in str(row["root_causes"]).split(";") if v
    )
    return SEVReport(
        sev_id=str(row["sev_id"]),
        severity=Severity(int(row["severity"])),
        device_name=str(row["device_name"]),
        opened_at_h=float(row["opened_at_h"]),
        resolved_at_h=float(row["resolved_at_h"]),
        root_causes=causes,
        description=str(row.get("description", "")),
        service_impact=str(row.get("service_impact", "")),
        reviewed=bool(int(row.get("reviewed", 1))),
    )


def _ticket_row(ticket: RepairTicket) -> dict:
    if ticket.open:
        raise ValueError(
            f"cannot export open ticket {ticket.ticket_id!r}; close it first"
        )
    return {
        "ticket_id": ticket.ticket_id,
        "link_id": ticket.link_id,
        "vendor": ticket.vendor,
        "ticket_type": ticket.ticket_type.value,
        "started_at_h": ticket.started_at_h,
        "completed_at_h": ticket.completed_at_h,
        "location": ticket.location,
    }


def _row_ticket(row: dict) -> RepairTicket:
    return RepairTicket(
        ticket_id=str(row["ticket_id"]),
        link_id=str(row["link_id"]),
        vendor=str(row["vendor"]),
        ticket_type=TicketType(str(row["ticket_type"])),
        started_at_h=float(row["started_at_h"]),
        completed_at_h=float(row["completed_at_h"]),
        location=str(row.get("location", "")),
    )


SEV_CODEC = RecordCodec(
    dataset="sevs",
    fields=("sev_id", "severity", "device_name", "opened_at_h",
            "resolved_at_h", "root_causes", "description",
            "service_impact", "reviewed"),
    to_row=_sev_row,
    from_row=_row_sev,
)

#: The ticket schema is also hashed into ticket-corpus cache keys
#: (:func:`repro.runtime.cache.ticket_fingerprint`).
TICKET_CODEC = RecordCodec(
    dataset="tickets",
    fields=("ticket_id", "link_id", "vendor", "ticket_type",
            "started_at_h", "completed_at_h", "location"),
    to_row=_ticket_row,
    from_row=_row_ticket,
)

CODECS: Dict[str, RecordCodec] = {
    codec.dataset: codec for codec in (SEV_CODEC, TICKET_CODEC)
}


def data_format(path: PathLike) -> str:
    """A data file's format by its suffix: ``"csv"``, ``"json"`` or
    ``"jsonl"``.

    ``.jsonl.gz`` is JSONL, compressed on write and decompressed on
    read; any other suffix, ``.csv.gz`` and ``.json.gz`` included,
    raises a :class:`ValueError` naming the accepted ones.
    """
    name = str(path).lower()
    fmt = Path(strip_gz_suffix(name)).suffix[1:]
    if fmt == "jsonl" or (fmt in ("csv", "json") and not is_gzip_path(name)):
        return fmt
    raise ValueError(
        f"{path}: unsupported dataset format "
        "(expected .csv, .json, .jsonl or .jsonl.gz)"
    )


def write_records(records: Iterable, path: PathLike, dataset: str) -> int:
    """Write ``records`` of ``dataset`` to ``path``; returns the count.

    The suffix picks the format (:func:`data_format`) before the file
    is opened, so a path no reader accepts is refused with nothing
    written.  An open ticket cannot be written.
    """
    codec = CODECS[dataset]
    fmt = data_format(path)
    rows = map(codec.to_row, records)
    if fmt == "json":
        rows = list(rows)
        Path(path).write_text(json.dumps({dataset: rows}, indent=1))
        return len(rows)
    count = 0
    if fmt == "csv":
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=codec.fields)
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
                count += 1
    else:
        with open_text(path, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
                count += 1
    return count


def read_records(
    path: PathLike,
    dataset: str,
    strict: bool = True,
    errors: Optional[ReadErrors] = None,
) -> Iterator:
    """Stream the records of a ``dataset`` file, one at a time.

    The suffix picks the format (:func:`data_format`), checked when
    the reader is made.  ``strict``/``errors`` apply to JSONL, the
    append-and-tail feed and the one format that tears line-wise in
    practice: ``strict=True`` raises :class:`ValueError` (naming file
    and line) on the first malformed line; ``strict=False`` skips
    malformed lines, recording each in ``errors`` when one is given,
    so a feed with a torn tail still yields every readable record —
    counted, not silent.  A JSON document is parsed whole and must
    hold its rows under the ``dataset`` key.
    """
    codec = CODECS[dataset]
    fmt = data_format(path)
    if fmt == "jsonl":
        return _jsonl_records(path, codec.from_row, strict, errors)
    return map(codec.from_row, _document_rows(path, fmt, dataset))


def _document_rows(path: PathLike, fmt: str, dataset: str) -> Iterator[dict]:
    if fmt == "csv":
        with open(path, newline="") as handle:
            yield from csv.DictReader(handle)
        return
    payload = json.loads(Path(path).read_text())
    if dataset not in payload:
        raise ValueError(
            f"{path}: not a {dataset!r} export (missing {dataset!r} key)"
        )
    yield from payload[dataset]


def _jsonl_records(
    path: PathLike,
    from_row: Callable[[dict], Any],
    strict: bool,
    errors: Optional[ReadErrors],
) -> Iterator:
    with open_text(path) as handle:
        for line_no, line in enumerate(handle, 1):
            if hooks.fire("io.jsonl.line"):
                line = hooks.torn(line)
            line = line.strip()
            if not line:
                continue
            try:
                record = from_row(json.loads(line))
            except (KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise ValueError(
                        f"{path}:{line_no}: malformed JSONL row "
                        f"({type(exc).__name__}: {exc})"
                    ) from exc
                if errors is not None:
                    errors.record(line_no, f"{type(exc).__name__}: {exc}")
                continue
            yield record
