"""Dataset interchange.

The two corpora — SEV reports and fiber repair tickets — enter and
leave the pipeline as CSV, JSON, or JSONL files, so downstream users
can analyze generated corpora with their own tools or load external
incident datasets through the same pipeline.  One codec per record
kind (:data:`SEV_CODEC`, :data:`TICKET_CODEC`) holds its row schema,
one suffix rule (:func:`data_format`) picks the format, and one
writer (:func:`write_records`) and one streaming reader
(:func:`read_records`) serve both kinds; the reader feeds the online
runtime (:mod:`repro.stream`) without materializing a corpus in
memory.  :func:`sniff_dataset` tells the two corpora apart so the CLI
can dispatch a file of either kind.
"""

import json
from pathlib import Path
from typing import Union

from repro.io.codec import (
    CODECS,
    SEV_CODEC,
    TICKET_CODEC,
    RecordCodec,
    data_format,
    read_records,
    write_records,
)
from repro.io.compression import is_gzip_path, open_text, strip_gz_suffix
from repro.io.errors import ReadErrors

__all__ = [
    "CODECS",
    "ReadErrors",
    "RecordCodec",
    "SEV_CODEC",
    "TICKET_CODEC",
    "data_format",
    "is_gzip_path",
    "open_text",
    "read_records",
    "sniff_dataset",
    "strip_gz_suffix",
    "write_records",
]


def sniff_dataset(path: Union[str, Path]) -> str:
    """Which corpus a data file holds: ``"sevs"`` or ``"tickets"``.

    Inspects the first record, not the file name: a CSV header naming
    ``sev_id`` or ``ticket_id``, a JSON document keyed ``sevs`` or
    ``tickets``, or a JSONL first line carrying either id field.
    ``.jsonl.gz`` is sniffed like ``.jsonl`` (decompressed on the fly);
    the suffix must pass :func:`data_format`.

    Every way a file can defeat the sniff — empty, nothing but blank
    lines, an unparseable (torn) first row — raises a plain
    :class:`ValueError` naming the file, never a raw decoder error.
    """
    path = Path(path)
    fmt = data_format(path)
    if fmt == "csv":
        with open(path, newline="") as handle:
            header = handle.readline()
        if not header.strip():
            raise ValueError(f"{path}: empty dataset file")
        if "ticket_id" in header:
            return "tickets"
        if "sev_id" in header:
            return "sevs"
    elif fmt == "json":
        text = path.read_text()
        if not text.strip():
            raise ValueError(f"{path}: empty dataset file")
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: unreadable dataset (invalid JSON: {exc})"
            ) from exc
        if isinstance(payload, dict):
            if "tickets" in payload:
                return "tickets"
            if "sevs" in payload:
                return "sevs"
    else:
        saw_line = False
        with open_text(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                saw_line = True
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}: unreadable dataset "
                        f"(invalid JSONL first row: {exc})"
                    ) from exc
                if isinstance(row, dict):
                    if "ticket_id" in row:
                        return "tickets"
                    if "sev_id" in row:
                        return "sevs"
                break
        if not saw_line:
            raise ValueError(f"{path}: empty dataset file")
    raise ValueError(f"{path}: neither a SEV nor a ticket export")
