"""Writers for the superseded table formats v1 and v2, written
independently of the library, so that tests can check those files are
still read."""

import struct
import zlib


def dump_v1(table) -> bytes:
    """Format v1: header, records without CRCs, then the sum of all data
    words mod 2^64."""
    parts = [b"RDIM", struct.pack("<HI", 1, table.n_max)]
    total = 0
    for dimset in table.sets:
        nwords = (dimset.length + 63) // 64
        data = dimset.bits.to_bytes(nwords * 8, "little")
        total += sum(struct.unpack(f"<{nwords}Q", data))
        parts += [struct.pack("<Q", dimset.length), data]
    parts.append(struct.pack("<Q", total % 2**64))
    return b"".join(parts)


def dump_v2(table) -> bytes:
    """Format v2: header, then per record its bit length, the full set's
    words and the chained CRC-32."""
    data = bytearray(b"RDIM" + struct.pack("<HI", 2, table.n_max))
    for dimset in table.sets:
        nwords = (dimset.length + 63) // 64
        data += struct.pack("<Q", dimset.length) + dimset.bits.to_bytes(nwords * 8, "little")
        data += struct.pack("<I", zlib.crc32(data))
    return bytes(data)
