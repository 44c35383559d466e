import io
import struct

import pytest

from reinhardt import (
    TableCorruptionError,
    UnsupportedFormatError,
    build_table,
    load_table,
    save_table,
)


def _dump(table) -> bytes:
    buf = io.BytesIO()
    count = save_table(table, buf)
    data = buf.getvalue()
    assert count == len(data)
    return data


class TestRoundTrip:
    @pytest.mark.parametrize("n_max", [0, 1, 4, 100])
    def test_identity(self, n_max):
        table = build_table(n_max)
        loaded = load_table(io.BytesIO(_dump(table)))
        assert loaded.n_max == table.n_max
        assert all(a.bits == b.bits for a, b in zip(loaded.sets, table.sets))

    def test_byte_identical_saves(self):
        table = build_table(12)
        assert _dump(table) == _dump(table)

    def test_set_four_record_decodes(self):
        loaded = load_table(io.BytesIO(_dump(build_table(4))))
        assert loaded.sets[4].to_set() == {4, 6, 8, 10, 16}

    def test_desk_scale_table_survives(self, big_table):
        from reinhardt import compact_count, noncompact_count

        loaded = load_table(io.BytesIO(_dump(big_table)))
        assert compact_count(loaded, 1000) == 464692
        ns = range(2, big_table.n_max)
        assert [noncompact_count(loaded, n) for n in ns] == [
            noncompact_count(big_table, n) for n in ns
        ]

    def test_trivial_table_layout(self):
        data = _dump(build_table(0))
        # magic, version, n_max, one record (length 1, one word = 1), checksum 1
        assert data[:4] == b"RDIM"
        version, n_max = struct.unpack("<HI", data[4:10])
        assert (version, n_max) == (1, 0)
        (bit_length,) = struct.unpack("<Q", data[10:18])
        assert bit_length == 1
        (word,) = struct.unpack("<Q", data[18:26])
        assert word == 1
        (checksum,) = struct.unpack("<Q", data[26:34])
        assert checksum == 1
        assert len(data) == 34


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(UnsupportedFormatError, match="magic"):
            load_table(io.BytesIO(b"NOPE" + b"\x00" * 30))

    def test_bad_version(self):
        data = bytearray(_dump(build_table(2)))
        data[4] = 9
        with pytest.raises(UnsupportedFormatError, match="version"):
            load_table(io.BytesIO(bytes(data)))

    def test_single_bit_corruption_detected(self):
        data = bytearray(_dump(build_table(4)))
        data[18] ^= 0x01  # first data word of record 0
        with pytest.raises(TableCorruptionError, match="checksum"):
            load_table(io.BytesIO(bytes(data)))

    def test_padding_corruption_names_record(self):
        data = bytearray(_dump(build_table(4)))
        # record 0 has bit length 1; its highest word bit is padding
        data[25] ^= 0x80
        with pytest.raises(TableCorruptionError, match="record 0"):
            load_table(io.BytesIO(bytes(data)))

    def test_bit_length_mismatch_names_record(self):
        data = bytearray(_dump(build_table(4)))
        data[10] ^= 0xFF
        with pytest.raises(TableCorruptionError, match="record 0"):
            load_table(io.BytesIO(bytes(data)))

    def test_truncation_names_first_incomplete_record(self):
        data = _dump(build_table(4))
        with pytest.raises(TableCorruptionError) as err:
            load_table(io.BytesIO(data[:20]))
        assert err.value.record_index == 0
        with pytest.raises(TableCorruptionError, match="truncated"):
            load_table(io.BytesIO(data[:-4]))

    def test_trailing_garbage(self):
        data = _dump(build_table(2)) + b"\x00"
        with pytest.raises(TableCorruptionError, match="trailing"):
            load_table(io.BytesIO(data))
