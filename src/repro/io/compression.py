"""Transparent gzip support for line-oriented interchange files.

The cold storage tier (:mod:`repro.storage`) keeps partitions as
``.jsonl.gz``; the one JSONL reader and writer in :mod:`repro.io`
open every path through :func:`open_text`, so a compressed export
behaves exactly like a plain one — ``analyze`` and ``stream
--replay`` accept either without a flag.  ``.jsonl.gz`` is the only
compressed interchange suffix (:func:`repro.io.data_format`).

Only the ``.gz`` suffix selects compression: the helpers never sniff
file magic, so a mis-named file fails loudly in the JSON parser
instead of silently decompressing.
"""

from __future__ import annotations

import gzip
from pathlib import Path
from typing import IO, Union

PathLike = Union[str, Path]

__all__ = ["is_gzip_path", "open_text", "strip_gz_suffix"]


def is_gzip_path(path: PathLike) -> bool:
    """Whether ``path`` names a gzip-compressed file (``*.gz``)."""
    return str(path).lower().endswith(".gz")


def strip_gz_suffix(path: PathLike) -> str:
    """The file name with a trailing ``.gz`` removed (for sniffing)."""
    name = str(path)
    return name[:-3] if name.lower().endswith(".gz") else name


def open_text(path: PathLike, mode: str = "r") -> IO[str]:
    """Open a text file, decompressing/compressing ``*.gz`` paths.

    ``mode`` is a plain text mode (``"r"``, ``"w"``, ``"a"``); the
    gzip variant is opened in the matching text mode with UTF-8, the
    encoding :func:`open` defaults to on every platform this library
    supports.
    """
    if is_gzip_path(path):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")
