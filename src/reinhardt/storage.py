"""Bit-exact persistence of dimension tables.

Wire format v3 (all integers little-endian, fixed regardless of host):

    magic   4 bytes  b"RDIM"
    version u16      3
    n_max   u32
    then one record per set, n = 0..n_max, holding the set's canonical
    (low, tail) form (see :class:`~reinhardt.dimsets.DimSet`):
        low         u64   run of ones from index 0
        tail_bits   u64   bit length of the tail; low + tail_bits is at
                          most (n^2 - n)/2 + 1
        words       ceil(tail_bits / 64) x u64, the tail, padding bits zero
        crc         u32   CRC-32 (zlib) of every byte of the file before it

A tail's top bit (tail_bits - 1) is set and its bit 0 is clear.  A record
costs the size of the set's tail, not of its full range: the n_max = 1000
file takes 2.8 MB instead of 21 MB.  Each record's CRC chains from byte
0, so record k's CRC covers the header and records 0..k: a read that
stops after record k has checked exactly the bytes it used, and the last
record's CRC covers the whole file.

Versions 1 and 2 are still read.  Their records hold a u64 bit length,
which must equal (n^2 - n)/2 + 1, and the full set in
ceil(bit_length / 64) words.  A v2 record ends with the same chained
CRC.  A v1 record has none; after the last record a u64 footer holds the
sum of all data words modulo 2^64.  That sum can only be checked at the
end, so a v1 file is always read in full.  Only v3 is written.
Serialization reads an immutable table, so concurrent use needs no
coordination.
"""

from __future__ import annotations

import struct
import zlib
from typing import BinaryIO

from .dimsets import DimSet, DimTable, set_bit_length

MAGIC = b"RDIM"
VERSION = 3
_V1, _V2 = 1, 2
_WORD_MASK = (1 << 64) - 1


class UnsupportedFormatError(ValueError):
    """The stream is not a table file this version understands."""


class TableCorruptionError(ValueError):
    """The stream is structurally broken or fails its checksum."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


def save_table(table: DimTable, sink: BinaryIO) -> int:
    """Write the table in format v3; returns the byte count (identical
    tables give byte-identical output)."""
    written = 0
    crc = 0

    def put(data: bytes) -> None:
        nonlocal written, crc
        try:
            sink.write(data)
        except OSError as exc:
            raise OSError(f"write failed after {written} bytes: {exc}") from exc
        written += len(data)
        crc = zlib.crc32(data, crc)

    put(MAGIC + struct.pack("<HI", VERSION, table.n_max))
    for dimset in table.sets:
        tail_bits = dimset.tail.bit_length()
        put(struct.pack("<QQ", dimset.low, tail_bits))
        put(dimset.tail.to_bytes((tail_bits + 63) // 64 * 8, "little"))
        put(struct.pack("<I", crc))
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


def _read_header(source: BinaryIO) -> tuple[bytes, int, int]:
    """The header bytes, version and stored n_max."""
    magic = source.read(len(MAGIC))
    if magic != MAGIC:
        raise UnsupportedFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    fields = _read_exact(source, 6, "header", None)
    version, stored_n_max = struct.unpack("<HI", fields)
    if version not in (_V1, _V2, VERSION):
        raise UnsupportedFormatError(
            f"unsupported version {version}, expected {_V1}, {_V2} or {VERSION}"
        )
    return magic + fields, version, stored_n_max


def table_version(source: BinaryIO) -> int:
    """Format version of the table file at the stream's position, which
    is left unchanged; the stream must be seekable."""
    start = source.tell()
    try:
        return _read_header(source)[1]
    finally:
        source.seek(start)


def load_table(source: BinaryIO, n_max: int | None = None) -> DimTable:
    """Read and validate a table written by :func:`save_table`.

    Returns the sets for n = 0..n_max, or all stored sets when ``n_max``
    is None or the file stops below it.  A v3 or v2 read stops after the
    last record it returns, having checked the magic, version, and each
    of those records' declared lengths, CRC and padding, and for v3 the
    canonical form.  A read that reaches the file's last record also
    checks that no bytes follow it.  A v1 file is read in full and its
    footer checksum checked before anything is returned.
    """
    if n_max is not None and n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    header, version, stored_n_max = _read_header(source)
    last = stored_n_max
    if n_max is not None and version != _V1:
        last = min(n_max, stored_n_max)
    crc = zlib.crc32(header)
    crc_size = 0 if version == _V1 else 4
    word_sum = 0
    sets: list[DimSet] = []
    for n in range(last + 1):
        full = set_bit_length(n)
        if version == VERSION:
            lengths = _read_exact(source, 16, "lengths", n)
            low, width = struct.unpack("<QQ", lengths)
            if low + width > full:
                raise TableCorruptionError(
                    f"record {n} declares low {low} and tail length {width},"
                    f" over the {full} bits of n={n}",
                    record_index=n,
                )
        else:
            lengths = _read_exact(source, 8, "bit length", n)
            (width,) = struct.unpack("<Q", lengths)
            if width != full:
                raise TableCorruptionError(
                    f"record {n} declares bit length {width}, expected {full}",
                    record_index=n,
                )
        size = (width + 63) // 64 * 8
        record = _read_exact(source, size + crc_size, "set words", n)
        if crc_size:
            crc = zlib.crc32(memoryview(record)[:size], zlib.crc32(lengths, crc))
            (stored,) = struct.unpack_from("<I", record, size)
            if stored != crc:
                raise TableCorruptionError(
                    f"record {n} checksum mismatch: stored {stored:#010x},"
                    f" computed {crc:#010x}",
                    record_index=n,
                )
            crc = zlib.crc32(record[size:], crc)
        else:
            words_total = sum(struct.unpack(f"<{size // 8}Q", record))
            word_sum = (word_sum + words_total) & _WORD_MASK
        # Copy the words out of the read buffer and free it before making
        # the int, so the allocator can reuse that space for later records.
        # Converting straight from the read buffer left a hole per record:
        # a full v2 load at n_max = 1000 peaked at 56 MiB RSS instead of 36
        # (glibc malloc, Python 3.11).
        words = record[:size]
        del record
        bits = int.from_bytes(words, "little")
        if bits >> width:
            raise TableCorruptionError(
                f"record {n} has nonzero padding bits", record_index=n
            )
        if version != VERSION:
            sets.append(DimSet(n, bits))
        elif bits.bit_length() == width and not bits & 1:
            sets.append(DimSet.from_prefix_tail(n, low, bits))
        else:
            raise TableCorruptionError(
                f"record {n} tail is not in canonical form", record_index=n
            )
    if version == _V1:
        (footer,) = struct.unpack("<Q", _read_exact(source, 8, "checksum", None))
        if footer != word_sum:
            raise TableCorruptionError(
                f"checksum mismatch: stored {footer:#018x}, computed {word_sum:#018x}"
            )
    if last == stored_n_max and source.read(1):
        raise TableCorruptionError("trailing bytes after the last record")
    if n_max is not None:
        del sets[n_max + 1 :]
    return DimTable(tuple(sets))
