"""Bit-exact persistence of dimension tables.

Wire format v4 (all integers little-endian, fixed regardless of host):

    magic   4 bytes  b"RDIM"
    version u16      4
    n_max   u32
    then one 20-byte record per n = 0..n_max (see
    :class:`~reinhardt.dimsets.DimTable`):
        low     u64   run of ones from index 0 in S(n)
        count   u64   size of S(n)
        crc     u32   CRC-32 (zlib) of the header and of the low and
                      count fields of records 0..n

A table is its lows and counts: every set follows from them by the
build's own steps, so the n_max = 1000 file takes 20 030 bytes.  The
CRCs chain from byte 0, so the last record's CRC covers the whole file,
a load names the first bad record, and swapped records or words fail.
The chain leaves the stored CRCs out: a CRC-32 over some bytes and
their own CRC always ends in the same state (the residue 0x2144DF1C),
so a chain through them would restart at every record and let whole
records swap places unseen.  A load then compares every record with
:func:`~reinhardt.dimsets.build_table` (n_max), which it returns, by the
row check a :class:`~reinhardt.dimsets.DimTable` makes: behind valid
CRCs, the first that differs, out of range or not, raises
:class:`TableCorruptionError`.

Format v4 replaced v3, which stored each set's tail, on purpose.  Files
of versions 1 to 3 are not read: :class:`UnsupportedFormatError` names
their version.  No CLI command reads or writes a table file.
Serialization reads an immutable table, so concurrent use needs no
coordination.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO

from .dimsets import DimTable, _first_wrong_row

MAGIC = b"RDIM"
VERSION = 4
_HEADER = struct.Struct("<HI")  # version, n_max
_RECORD = struct.Struct("<QQI")  # low, count, crc


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


class TableCorruptionError(ValueError):
    """The stream is structurally broken or fails its checksum."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


def save_table(table: DimTable, sink: BinaryIO) -> int:
    """Write the table in format v4; returns the byte count (identical
    tables give byte-identical output)."""
    data = bytearray(MAGIC + _HEADER.pack(VERSION, table.n_max))
    crc = zlib.crc32(data)
    for low, count in zip(table.low, table.count):
        crc = zlib.crc32(struct.pack("<QQ", low, count), crc)
        data += _RECORD.pack(low, count, crc)
    sink.write(data)
    return len(data)


def load_table(source: BinaryIO) -> DimTable:
    """Read and validate a table written by :func:`save_table`: the stream
    whole, then the magic, the version, each record's CRC in order, that
    no byte follows the last record, and each row against the build
    (:func:`~reinhardt.dimsets._first_wrong_row`), whose table it returns."""
    data = source.read()
    magic = data[: len(MAGIC)]
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    end = len(MAGIC) + _HEADER.size
    if len(data) < end:
        raise TableCorruptionError("truncated stream while reading header")
    version, n_max = _HEADER.unpack_from(data, len(MAGIC))
    if version != VERSION:
        raise UnsupportedFormatError(
            f"table format version {version}; only version {VERSION} is read"
        )
    crc = zlib.crc32(data[:end])
    lows, counts = [], []
    for n in range(n_max + 1):
        start, end = end, end + _RECORD.size
        if len(data) < end:
            raise TableCorruptionError(f"truncated stream while reading record {n}", record_index=n)
        lo, size, stored = _RECORD.unpack_from(data, start)
        crc = zlib.crc32(data[start : start + 16], crc)
        if stored != crc:
            raise TableCorruptionError(
                f"record {n} checksum mismatch: stored {stored:#010x}, computed {crc:#010x}",
                record_index=n,
            )
        lows.append(lo)
        counts.append(size)
    if len(data) > end:
        raise TableCorruptionError("trailing bytes after the last record")
    table, n = _first_wrong_row(lows, counts)
    if n is not None:
        raise TableCorruptionError(
            f"record {n} stores low {lows[n]} and count {counts[n]}, but the build"
            f" gives low {table.low[n]} and count {table.count[n]}",
            record_index=n,
        )
    return table
