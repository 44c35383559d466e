"""Bit-exact persistence of dimension tables.

Wire format (all integers little-endian, fixed regardless of host):

    magic   4 bytes  b"RDIM"
    version u16      1
    n_max   u32
    then one record per set, n = 0..n_max:
        bit_length  u64   must equal (n^2 - n)/2 + 1
        words       ceil(bit_length / 64) x u64, padding bits zero
    checksum u64     sum of all data words above, modulo 2^64

The checksum covers the data words only; the bit_length fields are fully
determined by n and validated structurally.  Serialization reads an
immutable table, so concurrent use needs no coordination.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

from .dimsets import DimSet, DimTable, set_bit_length

MAGIC = b"RDIM"
VERSION = 1
_WORD_MASK = (1 << 64) - 1


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


class TableCorruptionError(ValueError):
    """The stream is structurally broken or fails its checksum."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


def save_table(table: DimTable, sink: BinaryIO) -> int:
    """Write the table; returns the byte count (identical tables give
    byte-identical output)."""
    written = 0

    def put(data: bytes) -> None:
        nonlocal written
        try:
            sink.write(data)
        except OSError as exc:
            raise OSError(f"write failed after {written} bytes: {exc}") from exc
        written += len(data)

    put(MAGIC)
    put(struct.pack("<HI", VERSION, table.n_max))
    checksum = 0
    for dimset in table.sets:
        length = dimset.length
        nwords = (length + 63) // 64
        put(struct.pack("<Q", length))
        data = dimset.bits.to_bytes(nwords * 8, "little")
        checksum = (checksum + sum(struct.unpack(f"<{nwords}Q", data))) & _WORD_MASK
        put(data)
    put(struct.pack("<Q", checksum))
    return written


def _read_exact(source: BinaryIO, count: int, what: str, record: int | None) -> bytes:
    data = source.read(count)
    if len(data) != count:
        raise TableCorruptionError(
            f"truncated stream while reading {what}"
            + (f" of record {record}" if record is not None else ""),
            record_index=record,
        )
    return data


def load_table(source: BinaryIO) -> DimTable:
    """Read and validate a table written by :func:`save_table`.

    Validates the magic, version, every record's bit length, zero
    padding, and the footer checksum before returning anything.
    """
    header = source.read(len(MAGIC))
    if header != MAGIC:
        raise UnsupportedFormatError(f"bad magic {header!r}, expected {MAGIC!r}")
    version, n_max = struct.unpack("<HI", _read_exact(source, 6, "header", None))
    if version != VERSION:
        raise UnsupportedFormatError(f"unsupported version {version}, expected {VERSION}")
    checksum = 0
    sets: list[DimSet] = []
    for n in range(n_max + 1):
        (length,) = struct.unpack("<Q", _read_exact(source, 8, "bit length", n))
        expected = set_bit_length(n)
        if length != expected:
            raise TableCorruptionError(
                f"record {n} declares bit length {length}, expected {expected}",
                record_index=n,
            )
        nwords = (length + 63) // 64
        data = _read_exact(source, nwords * 8, "set words", n)
        checksum = (checksum + sum(struct.unpack(f"<{nwords}Q", data))) & _WORD_MASK
        bits = int.from_bytes(data, "little")
        if bits >> length:
            raise TableCorruptionError(
                f"record {n} has nonzero padding bits", record_index=n
            )
        sets.append(DimSet(n, bits))
    (stored,) = struct.unpack("<Q", _read_exact(source, 8, "checksum", None))
    if source.read(1):
        raise TableCorruptionError("trailing bytes after checksum")
    if stored != checksum:
        raise TableCorruptionError(
            f"checksum mismatch: stored {stored:#018x}, computed {checksum:#018x}"
        )
    return DimTable(tuple(sets))
