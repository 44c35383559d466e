"""Bit-exact persistence of dimension tables.

Wire format v4 (all integers little-endian, fixed regardless of host):

    magic   4 bytes  b"RDIM"
    version u16      4
    n_max   u32
    then one 20-byte record per n = 0..n_max (see
    :class:`~reinhardt.dimsets.DimTable`):
        low     u64   run of ones from index 0 in S(n)
        count   u64   size of S(n); 1 <= low <= count <= (n^2 - n)/2 + 1
        crc     u32   CRC-32 (zlib) of the header and of the low and
                      count fields of records 0..n

A table is its lows and counts: every set follows from them by the
build's own steps, so the n_max = 1000 file takes 20 030 bytes.  The
CRCs chain from byte 0, so record k's CRC covers the header and records
0..k (their CRCs are checked in turn): a read that stops after record k
has checked exactly the bytes it used, and the last record's CRC covers
the whole file.  The chain leaves the stored CRCs out on purpose: a
CRC-32 run over some bytes followed by their own CRC always ends in the
same state (the residue 0x2144DF1C), so a chain through them would
restart at every record and let whole records swap places unseen.  A
stored low or count that the recurrence disagrees with behind valid CRCs
is caught when its set is rebuilt, which for S(0..K) is at load; as a
low also seeds the next set's step, a wrong one gives that set whole or
an error, never a wrong set.

Format v4 replaced v3, which stored each set's tail, on purpose.  Files
of versions 1 to 3 are not read: :class:`OldFormatError` says so.  No CLI
command reads or writes a table file.  Serialization reads an immutable
table, so concurrent use needs no coordination.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO

from .dimsets import DimTable, set_bit_length

MAGIC = b"RDIM"
VERSION = 4
_HEADER = struct.Struct("<HI")  # version, n_max
_RECORD = struct.Struct("<QQI")  # low, count, crc


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


class OldFormatError(UnsupportedFormatError):
    """The stream is a table file of an earlier format version."""


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


def _read_exact(source: BinaryIO, count: int, what: str, record: int | None) -> bytes:
    data = source.read(count)
    if len(data) != count:
        raise TableCorruptionError(
            f"truncated stream while reading {what}"
            + (f" of record {record}" if record is not None else ""),
            record_index=record,
        )
    return data


def load_table(source: BinaryIO, n_max: int | None = None) -> DimTable:
    """Read and validate a table written by :func:`save_table`.

    Returns the table for n = 0..n_max, or all stored records when
    ``n_max`` is None or the file stops below it.  The read stops after
    the last record it returns, having checked the magic, the version,
    and each of those records' CRC and range.  A read that reaches the
    file's last record also checks that no bytes follow it.
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    header = magic + _read_exact(source, _HEADER.size, "header", None)
    version, stored_n_max = _HEADER.unpack_from(header, len(MAGIC))
    if version != VERSION:
        error = OldFormatError if version < VERSION else UnsupportedFormatError
        raise error(f"table format version {version}; only version {VERSION} is read")
    last = stored_n_max if n_max is None else min(n_max, stored_n_max)
    crc = zlib.crc32(header)
    low, count = [], []
    for n in range(last + 1):
        record = _read_exact(source, _RECORD.size, "record", n)
        lo, size, stored = _RECORD.unpack(record)
        crc = zlib.crc32(record[:16], crc)
        if stored != crc:
            raise TableCorruptionError(
                f"record {n} checksum mismatch: stored {stored:#010x},"
                f" computed {crc:#010x}",
                record_index=n,
            )
        if not 1 <= lo <= size <= set_bit_length(n):
            raise TableCorruptionError(
                f"record {n} declares low {lo} and count {size},"
                f" outside 1 <= low <= count <= {set_bit_length(n)}",
                record_index=n,
            )
        low.append(lo)
        count.append(size)
    if last == stored_n_max and source.read(1):
        raise TableCorruptionError("trailing bytes after the last record")
    return DimTable(low, count)
