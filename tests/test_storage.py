import io
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reinhardt import (
    DimTable,
    TableCorruptionError,
    UnsupportedFormatError,
    build_table,
    load_table,
    save_table,
)
from reinhardt.dimsets import set_bit_length

from old_formats import dump_v1, dump_v2


def _dump(table) -> bytes:
    buf = io.BytesIO()
    count = save_table(table, buf)
    data = buf.getvalue()
    assert count == len(data)
    return data


def _words(n: int) -> int:
    return (set_bit_length(n) + 63) // 64


def _v2_record_start(n: int) -> int:
    """Offset of record n's bit-length field in a v2 file."""
    return 10 + sum(12 + 8 * _words(k) for k in range(n))


def _tail_words(dimset) -> int:
    return (dimset.tail.bit_length() + 63) // 64


def _record_ends(table) -> list[int]:
    """Offset just past each record's CRC in the table's v3 file."""
    ends, pos = [], 10
    for dimset in table.sets:
        pos += 20 + 8 * _tail_words(dimset)
        ends.append(pos)
    return ends


def _record_starts(table) -> list[int]:
    """Offset of each record's ``low`` field in the table's v3 file."""
    return [10] + _record_ends(table)[:-1]


def _reseal(data: bytearray, ends: list[int]) -> None:
    """Recompute the CRC that closes each record ending at ``ends``, in place."""
    for end in ends:
        data[end - 4 : end] = struct.pack("<I", zlib.crc32(data[: end - 4]))


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
        # magic, version, n_max, one record (low 1, empty tail, CRC-32)
        assert data[:4] == b"RDIM"
        version, n_max = struct.unpack("<HI", data[4:10])
        assert (version, n_max) == (3, 0)
        low, tail_bits = struct.unpack("<QQ", data[10:26])
        assert (low, tail_bits) == (1, 0)
        (crc,) = struct.unpack("<I", data[26:30])
        assert crc == zlib.crc32(data[:26])
        assert len(data) == 30

    def test_each_crc_covers_every_byte_before_it(self):
        table = build_table(40)
        data = _dump(table)
        ends = _record_ends(table)
        assert ends[-1] == len(data)
        assert any(_tail_words(s) > 1 for s in table.sets)  # multi-word tails too
        for end in ends:
            (crc,) = struct.unpack("<I", data[end - 4 : end])
            assert crc == zlib.crc32(data[: end - 4])

    def test_records_hold_canonical_low_and_tail(self):
        table = build_table(40)
        data = _dump(table)
        for dimset, start in zip(table.sets, _record_starts(table)):
            low, tail_bits = struct.unpack_from("<QQ", data, start)
            words = data[start + 16 : start + 16 + 8 * _tail_words(dimset)]
            tail = int.from_bytes(words, "little")
            assert (low, tail_bits) == (dimset.low, tail.bit_length())
            assert tail & 1 == 0 and ((tail + 1) << low) - 1 == dimset.bits

    def test_file_is_tail_sized(self, big_table):
        # the full sets take 21 MB at n_max = 1000 (the v2 size)
        table = DimTable(big_table.sets[:1001])
        assert len(_dump(table)) < 3 * 10**6


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
        table = build_table(4)
        data = bytearray(_dump(table))
        data[_record_starts(table)[4] + 16] ^= 0x01  # first tail word of record 4
        with pytest.raises(TableCorruptionError, match="checksum"):
            load_table(io.BytesIO(bytes(data)))

    def test_padding_corruption_names_record(self):
        table = build_table(4)
        data = bytearray(_dump(table))
        # record 3's tail has 2 bits in one word; its highest word bit is padding
        data[_record_starts(table)[3] + 23] ^= 0x80
        with pytest.raises(TableCorruptionError, match="record 3"):
            load_table(io.BytesIO(bytes(data)))

    def test_padding_checked_behind_valid_crcs(self):
        table = build_table(4)
        data = bytearray(_dump(table))
        data[_record_starts(table)[3] + 23] ^= 0x80
        _reseal(data, _record_ends(table))
        with pytest.raises(TableCorruptionError, match="record 3 has nonzero padding"):
            load_table(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize(
        "field,value,message",
        [
            (0, 3, "declares low 3"),  # low + tail length over the 4 bits
            (8, 1, "nonzero padding"),  # tail 0b10 read as 1 bit
            (16, 0b11, "canonical"),  # bit 0 set: the run of ones is longer
            (16, 0, "canonical"),  # tail shorter than its declared 2 bits
        ],
    )
    def test_inconsistent_record_behind_valid_crcs(self, field, value, message):
        # record 3 is S(3) = {3, 5, 9}: low 2, tail 0b10 (2 bits, one word)
        table = build_table(4)
        data = bytearray(_dump(table))
        start = _record_starts(table)[3]
        data[start + field : start + field + 8] = struct.pack("<Q", value)
        _reseal(data, _record_ends(table))
        with pytest.raises(TableCorruptionError, match=f"record 3 .*{message}"):
            load_table(io.BytesIO(bytes(data)))

    def test_bit_length_mismatch_names_record(self):
        data = bytearray(_dump(build_table(4)))
        data[10] ^= 0xFF
        with pytest.raises(TableCorruptionError, match="record 0"):
            load_table(io.BytesIO(bytes(data)))

    def test_oversized_tail_length_refused_before_reading(self):
        data = bytearray(_dump(build_table(4)))
        data[25] ^= 0x80  # record 0's tail length becomes about 2^63
        with pytest.raises(TableCorruptionError, match="record 0 declares low 1"):
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


class TestPrefixRead:
    @pytest.fixture(scope="class")
    def table300(self):
        return build_table(300)

    @pytest.mark.parametrize("k", [0, 1, 7, 64, 300])
    def test_prefix_equals_built_sets(self, table300, k):
        loaded = load_table(io.BytesIO(_dump(table300)), k)
        assert loaded.sets == table300.sets[: k + 1]

    @pytest.mark.parametrize("k", [0, 1, 7, 64, 299])
    def test_read_stops_at_end_of_record(self, table300, k):
        source = io.BytesIO(_dump(table300))
        load_table(source, k)
        assert source.tell() == _record_ends(table300)[k]

    def test_request_beyond_file_returns_whole_table(self):
        table = build_table(6)
        assert load_table(io.BytesIO(_dump(table)), 40).sets == table.sets

    def test_full_read_checks_trailing_bytes(self):
        data = _dump(build_table(6)) + b"\x00"
        assert load_table(io.BytesIO(data), 5).n_max == 5
        for n_max in (None, 6, 7):
            with pytest.raises(TableCorruptionError, match="trailing"):
                load_table(io.BytesIO(data), n_max)

    def test_negative_request_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            load_table(io.BytesIO(_dump(build_table(2))), -1)


class TestVersion1:
    def test_trivial_table_layout(self):
        data = dump_v1(build_table(0))
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

    @pytest.mark.parametrize("n_max", [0, 1, 4, 100])
    def test_loads_same_table(self, n_max):
        table = build_table(n_max)
        assert load_table(io.BytesIO(dump_v1(table))).sets == table.sets

    def test_prefix_request_reads_whole_file(self):
        table = build_table(20)
        source = io.BytesIO(dump_v1(table))
        assert load_table(source, 7).sets == table.sets[:8]
        assert source.tell() == len(source.getvalue())

    @pytest.mark.parametrize("n_max", [None, 3])
    def test_footer_flip_raises_checksum(self, n_max):
        data = bytearray(dump_v1(build_table(20)))
        data[-3] ^= 0x10
        with pytest.raises(TableCorruptionError, match="checksum"):
            load_table(io.BytesIO(bytes(data)), n_max)


class TestVersion2:
    def test_trivial_table_layout(self):
        data = dump_v2(build_table(0))
        # magic, version, n_max, one record (length 1, one word = 1, CRC-32)
        assert data[:4] == b"RDIM"
        version, n_max = struct.unpack("<HI", data[4:10])
        assert (version, n_max) == (2, 0)
        (bit_length,) = struct.unpack("<Q", data[10:18])
        assert bit_length == 1
        (word,) = struct.unpack("<Q", data[18:26])
        assert word == 1
        (crc,) = struct.unpack("<I", data[26:30])
        assert crc == zlib.crc32(data[:26])
        assert len(data) == 30

    @pytest.mark.parametrize("n_max", [0, 1, 4, 100])
    def test_loads_same_table(self, n_max):
        table = build_table(n_max)
        assert load_table(io.BytesIO(dump_v2(table))).sets == table.sets

    @pytest.mark.parametrize("k", [0, 7, 19])
    def test_prefix_read_stops_at_end_of_record(self, k):
        table = build_table(20)
        source = io.BytesIO(dump_v2(table))
        assert load_table(source, k).sets == table.sets[: k + 1]
        assert source.tell() == _v2_record_start(k + 1)

    def test_word_flip_raises_checksum(self):
        data = bytearray(dump_v2(build_table(4)))
        data[_v2_record_start(4) + 8] ^= 0x01  # first data word of record 4
        with pytest.raises(TableCorruptionError, match="record 4 checksum"):
            load_table(io.BytesIO(bytes(data)))

    def test_padding_and_bit_length_checked_behind_valid_crcs(self):
        table = build_table(4)
        ends = [_v2_record_start(k + 1) for k in range(5)]
        data = bytearray(dump_v2(table))
        data[_v2_record_start(3) + 15] ^= 0x80  # record 3 has 4 bits in one word
        _reseal(data, ends)
        with pytest.raises(TableCorruptionError, match="record 3 has nonzero padding"):
            load_table(io.BytesIO(bytes(data)))
        data = bytearray(dump_v2(table))
        data[_v2_record_start(2)] ^= 0x01
        _reseal(data, ends)
        with pytest.raises(TableCorruptionError, match="record 2 declares bit length 3"):
            load_table(io.BytesIO(bytes(data)))


FUZZ_N_MAX = 12
_FUZZ_TABLE = build_table(FUZZ_N_MAX)
_FUZZ_DATA = _dump(_FUZZ_TABLE)
_FUZZ_ENDS = _record_ends(_FUZZ_TABLE)
# starts of the magic, version and n_max fields, then of every record's
# low and tail-length fields, each tail word and its CRC
_FIELD_STARTS = sorted(
    {0, 4, 6}
    | {start + field for start in _record_starts(_FUZZ_TABLE) for field in (0, 8)}
    | {end - 4 for end in _FUZZ_ENDS}
    | {
        start + 16 + 8 * w
        for start, dimset in zip(_record_starts(_FUZZ_TABLE), _FUZZ_TABLE.sets)
        for w in range(_tail_words(dimset))
    }
)


@st.composite
def _corruptions(draw):
    """One word flipped, or two words swapped, in the fuzz table's v3 bytes;
    returns the bytes and the lowest offset touched."""
    data = bytearray(_FUZZ_DATA)
    width = draw(st.sampled_from([1, 4, 8]))
    offsets = st.one_of(
        st.sampled_from(_FIELD_STARTS), st.integers(0, len(data) - 1)
    ).map(lambda i: min(i, len(data) - width))
    first = draw(offsets)
    if draw(st.booleans()):
        span = int.from_bytes(data[first : first + width], "little")
        span ^= draw(st.integers(1, 2 ** (8 * width) - 1))
        data[first : first + width] = span.to_bytes(width, "little")
        return bytes(data), first
    second = draw(offsets.filter(lambda j: abs(j - first) >= width))
    a, b = data[first : first + width], data[second : second + width]
    data[first : first + width], data[second : second + width] = b, a
    return bytes(data), min(first, second)


def _sets_or_none(data: bytes, n_max: int | None):
    try:
        return load_table(io.BytesIO(data), n_max).sets
    except (TableCorruptionError, UnsupportedFormatError):
        return None


class TestCorruptionFuzz:
    @settings(max_examples=400)
    @given(_corruptions())
    def test_single_corruption_detected_or_harmless(self, case):
        data, first_touched = case
        assert _sets_or_none(data, None) in (None, _FUZZ_TABLE.sets)
        for k, end in enumerate(_FUZZ_ENDS):
            expected = _FUZZ_TABLE.sets[: k + 1]
            got = _sets_or_none(data, k)
            if first_touched >= end:
                assert got == expected  # the read never reached the change
            else:
                assert got in (None, expected)

    def test_swapped_words_in_last_record_detected(self):
        # the v1 word sum cannot see this: both words stay in the file
        table = build_table(100)
        data = bytearray(_dump(table))
        start = _record_starts(table)[100] + 16
        nwords = _tail_words(table.sets[100])
        words = [data[start + 8 * w : start + 8 * w + 8] for w in range(nwords)]
        other = next(w for w in range(1, len(words)) if words[w] != words[0])
        data[start : start + 8] = words[other]
        data[start + 8 * other : start + 8 * other + 8] = words[0]
        with pytest.raises(TableCorruptionError, match="record 100 checksum"):
            load_table(io.BytesIO(bytes(data)))
        assert load_table(io.BytesIO(bytes(data)), 99).sets == table.sets[:100]
