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
reads the header, then at most the records n_max gives and one byte,
and checks the magic, the version and the exact length before it builds
anything: a short stream names its first incomplete record, and
trailing bytes are refused.  It returns ``DimTable(low, count)`` of the
records, whose row check against the build raises
:class:`~reinhardt.dimsets.TableCorruptionError` naming the first that
differs, out of range or not.  That check catches any corrupt or
reordered record or word, so the file carries no checksum.

Format v5 replaced v4, which chained a CRC-32 through its records, on
purpose.  Files of versions 1 to 4 are not read:
:class:`UnsupportedFormatError` names their version.  No CLI command
reads or writes a table file.  Serialization reads an immutable table,
so concurrent use needs no coordination.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from .dimsets import DimTable, TableCorruptionError

MAGIC = b"RDIM"
VERSION = 5
_HEADER = struct.Struct("<HI")  # version, n_max
_START = len(MAGIC) + _HEADER.size
_RECORD = 16  # bytes: low and count, each a u64
_READ = 1 << 20  # bytes asked of the stream at most per read


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


def save_table(table: DimTable, sink: BinaryIO) -> int:
    """Write the table in format v5; returns the byte count (identical
    tables give byte-identical output)."""
    rows = [0] * (2 * (table.n_max + 1))
    rows[0::2], rows[1::2] = table.low, table.count
    data = MAGIC + _HEADER.pack(VERSION, table.n_max) + struct.pack(f"<{len(rows)}Q", *rows)
    sink.write(data)
    return len(data)


def load_table(source: BinaryIO) -> DimTable:
    """Read and validate a table written by :func:`save_table`: the magic,
    the version and the length, then ``DimTable(low, count)`` of its
    records, which checks each row against the build."""
    data = _read(source, _START, bytearray())
    magic = bytes(data[: len(MAGIC)])
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
    _read(source, end + 1, data)
    if len(data) < end:
        n = (len(data) - _START) // _RECORD
        raise TableCorruptionError(f"truncated stream while reading record {n}", record_index=n)
    if len(data) > end:
        raise TableCorruptionError("trailing bytes after the last record")
    rows = struct.unpack_from(f"<{2 * (n_max + 1)}Q", data, _START)
    lows, counts = rows[0::2], rows[1::2]
    del data, rows  # not held through the build: 3 MiB at n_max = 10^5
    return DimTable(lows, counts)


def _read(source: BinaryIO, size: int, data: bytearray) -> bytearray:
    """``data`` extended from ``source`` to ``size`` bytes, or to the end of
    the stream if that comes first.  No read asks for more than
    :data:`_READ` bytes: a file's ``read(k)`` allocates k bytes up front."""
    while len(data) < size and (chunk := source.read(min(size - len(data), _READ))):
        data += chunk
    return data
