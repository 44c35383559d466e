"""Bit-exact persistence of dimension tables.

Wire format v5 (all integers little-endian, fixed regardless of host):

    magic   4 bytes  b"RDIM"
    version u16      5
    n_max   u32
    then one 16-byte record per n = 0..n_max (see
    :class:`~reinhardt.dimsets.DimTable`):
        low     u64   run of ones from index 0 in S(n)
        count   u64   size of S(n)

A table is its lows and counts: every set follows from them by the
build's own steps, so the n_max = 1000 file takes 16 026 bytes.  A load
checks the magic, the version, and then the exact length that n_max
gives, before it builds anything: a short stream names its first
incomplete record, and trailing bytes are refused.  It then compares
every record with :func:`~reinhardt.dimsets.build_table` (n_max), which
it returns, by the row check a :class:`~reinhardt.dimsets.DimTable`
makes: the first that differs, out of range or not, raises
:class:`TableCorruptionError` naming it.  That check catches any corrupt
or reordered record or word, so the file carries no checksum.

Format v5 replaced v4, which chained a CRC-32 through its records, on
purpose.  Files of versions 1 to 4 are not read:
:class:`UnsupportedFormatError` names their version.  No CLI command
reads or writes a table file.  Serialization reads an immutable table,
so concurrent use needs no coordination.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from .dimsets import DimTable, _first_wrong_row

MAGIC = b"RDIM"
VERSION = 5
_HEADER = struct.Struct("<HI")  # version, n_max
_START = len(MAGIC) + _HEADER.size
_RECORD = 16  # bytes: low and count, each a u64


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


class TableCorruptionError(ValueError):
    """The stream is structurally broken or stores a row the build does not give."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


def save_table(table: DimTable, sink: BinaryIO) -> int:
    """Write the table in format v5; returns the byte count (identical
    tables give byte-identical output)."""
    rows = [0] * (2 * (table.n_max + 1))
    rows[0::2], rows[1::2] = table.low, table.count
    data = MAGIC + _HEADER.pack(VERSION, table.n_max) + struct.pack(f"<{len(rows)}Q", *rows)
    sink.write(data)
    return len(data)


def load_table(source: BinaryIO) -> DimTable:
    """Read and validate a table written by :func:`save_table`: the stream
    whole, then the magic, the version, the length, and each row against
    the build (:func:`~reinhardt.dimsets._first_wrong_row`), whose table
    it returns."""
    data = source.read()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if len(data) < _START:
        raise TableCorruptionError("truncated stream while reading header")
    version, n_max = _HEADER.unpack_from(data, len(MAGIC))
    if version != VERSION:
        raise UnsupportedFormatError(
            f"table format version {version}; only version {VERSION} is read"
        )
    end = _START + _RECORD * (n_max + 1)
    if len(data) < end:
        n = (len(data) - _START) // _RECORD
        raise TableCorruptionError(f"truncated stream while reading record {n}", record_index=n)
    if len(data) > end:
        raise TableCorruptionError("trailing bytes after the last record")
    rows = struct.unpack_from(f"<{2 * (n_max + 1)}Q", data, _START)
    lows, counts = rows[0::2], rows[1::2]
    del rows  # not held through the build: 1.3 MiB at n_max = 10^5
    table, n = _first_wrong_row(lows, counts)
    if n is not None:
        raise TableCorruptionError(
            f"record {n} stores low {lows[n]} and count {counts[n]}, but the build"
            f" gives low {table.low[n]} and count {table.count[n]}",
            record_index=n,
        )
    return table
