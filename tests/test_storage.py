import hashlib
import io
import re
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
    compact_count,
    load_table,
    noncompact_count,
    save_table,
)
from reinhardt import dimsets
from reinhardt.dimsets import full_set_limit

HEADER, RECORD = 10, 20  # bytes: magic, version and n_max; low, count and CRC


@pytest.fixture(scope="module")
def table300():
    return build_table(300)


def _dump(table) -> bytes:
    buf = io.BytesIO()
    count = save_table(table, buf)
    data = buf.getvalue()
    assert count == len(data)
    return data


def _record_start(n: int) -> int:
    """Offset of record n's ``low`` field."""
    return HEADER + RECORD * n


def _record_end(n: int) -> int:
    """Offset just past record n's CRC."""
    return HEADER + RECORD * (n + 1)


def _chain(data: bytes, n: int) -> int:
    """CRC-32 of the header and of the low and count fields of records 0..n."""
    crc = zlib.crc32(data[:HEADER])
    for k in range(n + 1):
        crc = zlib.crc32(data[_record_start(k) : _record_start(k) + 16], crc)
    return crc


def _reseal(data: bytearray) -> None:
    """Recompute the CRC that closes each record, in place, in one pass."""
    crc = zlib.crc32(data[:HEADER])
    for n in range((len(data) - HEADER) // RECORD):
        crc = zlib.crc32(data[_record_start(n) : _record_start(n) + 16], crc)
        data[_record_end(n) - 4 : _record_end(n)] = struct.pack("<I", crc)


def _put(data: bytearray, n: int, field: int, value: int) -> None:
    """Overwrite record n's ``low`` (field 0) or ``count`` (field 8)."""
    start = _record_start(n) + field
    data[start : start + 8] = struct.pack("<Q", value)


class TestRoundTrip:
    @pytest.mark.parametrize("n_max", [0, 1, 4, 100])
    def test_identity(self, n_max):
        table = build_table(n_max)
        loaded = load_table(io.BytesIO(_dump(table)))
        assert loaded == table and loaded.n_max == table.n_max
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
        assert loaded.sets[1001] == big_table.sets[1001]

    def test_trivial_table_layout(self):
        data = _dump(build_table(0))
        # magic, version, n_max, one record (low 1, count 1, CRC-32)
        assert data[:4] == b"RDIM"
        version, n_max = struct.unpack("<HI", data[4:10])
        assert (version, n_max) == (4, 0)
        low, count = struct.unpack("<QQ", data[10:26])
        assert (low, count) == (1, 1)
        (crc,) = struct.unpack("<I", data[26:30])
        assert crc == zlib.crc32(data[:26])
        assert len(data) == 30

    def test_each_crc_covers_every_byte_before_it(self):
        # every byte but the earlier CRCs, each of which is checked in turn
        data = _dump(build_table(40))
        assert len(data) == _record_end(40)
        for n in range(41):
            end = _record_end(n)
            (crc,) = struct.unpack("<I", data[end - 4 : end])
            assert crc == _chain(data, n)

    def test_records_hold_low_and_count(self):
        table = build_table(40)
        data = _dump(table)
        for n, dimset in enumerate(table.sets):
            low, count = struct.unpack_from("<QQ", data, _record_start(n))
            assert (low, count) == (dimset.low, len(dimset)) == (table.low[n], table.count[n])

    def test_file_is_twenty_bytes_a_record(self):
        assert len(_dump(build_table(1000))) == 20030  # the tails took 2 743 974 bytes

    def test_bytes_at_the_build_limit(self, table4097):
        # pins the build bit for bit one past the CLI's inline limit
        data = _dump(table4097)
        assert len(data) == 81970
        assert (
            hashlib.sha256(data).hexdigest()
            == "85062e03e07c6734df467447956ecb6c25a840771643812875c4a8d6a504300e"
        )

    def test_one_pass_of_the_small_sets_per_table(self, monkeypatch):
        # the build hands its S(0..K) to its table, and a load returns the
        # build it checks the records against; a table made directly
        # builds once to check its rows and keeps that build's S(0..K)
        calls, real = [], dimsets._small_sets
        monkeypatch.setattr(dimsets, "_small_sets", lambda k: calls.append(k) or real(k))
        table = build_table(1000)
        assert calls == [full_set_limit(1000)]
        data = _dump(table)
        calls.clear()
        assert load_table(io.BytesIO(data)) == table
        assert calls == [full_set_limit(1000)]
        calls.clear()
        assert DimTable(table.low, table.count) == table
        assert calls == [full_set_limit(1000)]


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(UnsupportedFormatError, match="magic"):
            load_table(io.BytesIO(b"NOPE" + b"\x00" * 30))

    def test_bad_version(self):
        data = bytearray(_dump(build_table(2)))
        data[4] = 9
        with pytest.raises(UnsupportedFormatError, match="version"):
            load_table(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 5, 0xFFFF])
    def test_only_older_versions_are_old_format_errors(self, version):
        data = bytearray(_dump(build_table(2)))
        data[4:6] = struct.pack("<H", version)
        with pytest.raises(UnsupportedFormatError, match=f"version {version};"):
            load_table(io.BytesIO(bytes(data)))

    def test_single_bit_corruption_detected(self):
        data = bytearray(_dump(build_table(4)))
        data[_record_start(4) + 8] ^= 0x01  # record 4's count
        with pytest.raises(TableCorruptionError, match="record 4 checksum"):
            load_table(io.BytesIO(bytes(data)))

    def test_bit_length_mismatch_names_record(self):
        data = bytearray(_dump(build_table(4)))
        data[10] ^= 0xFF
        with pytest.raises(TableCorruptionError, match="record 0"):
            load_table(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize(
        "field,value",
        [(0, 0), (0, 4), (8, 1), (8, 5)],
        ids=["low-0", "low-over-count", "count-under-low", "count-over-range"],
    )
    def test_out_of_range_record_behind_valid_crcs(self, field, value):
        # record 3 is S(3) = {3, 5, 9}: low 2, count 3, of the 4 indices of n = 3
        data = bytearray(_dump(build_table(4)))
        _put(data, 3, field, value)
        _reseal(data)
        with pytest.raises(TableCorruptionError, match="record 3 stores") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == 3

    @pytest.mark.parametrize("field", [0, 8], ids=["low", "count"])
    @pytest.mark.parametrize("n", [30, 90])
    def test_recurrence_mismatch_detected_when_the_set_is_rebuilt(self, field, n):
        # n_max = 100 keeps S(0..52) in full; the load checks every row,
        # S(30)'s and S(90)'s alike, against the build's rows
        table = build_table(100)
        assert full_set_limit(100) == 52
        data = bytearray(_dump(table))
        stored = struct.unpack_from("<Q", data, _record_start(n) + field)[0]
        _put(data, n, field, stored - 1)
        _reseal(data)
        with pytest.raises(TableCorruptionError, match=f"record {n} stores") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == n

    @pytest.mark.parametrize("field", [0, 8], ids=["low", "count"])
    @pytest.mark.parametrize("n", [*range(full_set_limit(300) + 1), *range(70, 301, 10)])
    def test_a_wrong_row_fails_when_the_table_is_made(self, table300, n, field):
        # every n <= K = 66, whose set the table keeps, and every 10th n
        # above, whose set it rebuilds on access: low[n] or count[n] one off
        # either way fails DimTable(low, count) and the load of the same
        # rows behind resealed CRCs, each naming n
        data = _dump(table300)
        for delta in (-1, 1):
            low, count = list(table300.low), list(table300.count)
            row = count if field else low
            row[n] += delta
            made = (
                f"S({n}) has low {table300.low[n]} and {table300.count[n]} values,"
                f" but the table stores low {low[n]} and count {count[n]}"
            )
            with pytest.raises(ValueError, match=re.escape(made)):
                DimTable(low, count)
            edited = bytearray(data)
            _put(edited, n, field, row[n])
            _reseal(edited)
            loaded = f"record {n} stores low {low[n]} and count {count[n]}, but the build"
            with pytest.raises(TableCorruptionError, match=loaded) as err:
                load_table(io.BytesIO(bytes(edited)))
            assert err.value.record_index == n

    def test_count_above_k_behind_valid_crcs_fails_the_load(self):
        # n_max = 200 keeps S(0..60) in full; a count of 150 lowered by 2,
        # which would serve c(150) and h(149) 2 low, fails the load and a
        # table made from the same rows alike
        table = build_table(200)
        assert full_set_limit(200) == 60
        data = bytearray(_dump(table))
        _put(data, 150, 8, table.count[150] - 2)
        _reseal(data)
        with pytest.raises(TableCorruptionError, match="record 150 stores low") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == 150
        assert (compact_count(table, 150), noncompact_count(table, 149)) == (9167, 127)
        count = [*table.count[:150], table.count[150] - 2, *table.count[151:]]
        with pytest.raises(ValueError, match=r"^S\(150\) has low \d+ and 9168 values"):
            DimTable(table.low, count)

    def test_truncation_names_first_incomplete_record(self):
        data = _dump(build_table(4))
        with pytest.raises(TableCorruptionError) as err:
            load_table(io.BytesIO(data[:20]))
        assert err.value.record_index == 0
        assert str(err.value) == "truncated stream while reading record 0"
        with pytest.raises(TableCorruptionError) as err:
            load_table(io.BytesIO(data[:-4]))
        assert (str(err.value), err.value.record_index) == (
            "truncated stream while reading record 4", 4
        )

    def test_trailing_garbage(self):
        data = _dump(build_table(2)) + b"\x00"
        with pytest.raises(TableCorruptionError, match="trailing"):
            load_table(io.BytesIO(data))

    def test_swapped_records_detected(self):
        data = bytearray(_dump(build_table(20)))
        seven, eight = slice(_record_start(7), _record_end(7)), slice(_record_end(7), _record_end(8))
        data[seven], data[eight] = data[eight], data[seven]
        with pytest.raises(TableCorruptionError, match="record 7 checksum"):
            load_table(io.BytesIO(bytes(data)))


FUZZ_N_MAX = 12
_FUZZ_TABLE = build_table(FUZZ_N_MAX)
_FUZZ_DATA = _dump(_FUZZ_TABLE)
# starts of the magic, version and n_max fields, then of every record's
# low, count and CRC
_FIELD_STARTS = sorted(
    {0, 4, 6}
    | {_record_start(n) + field for n in range(FUZZ_N_MAX + 1) for field in (0, 8, 16)}
)


@st.composite
def _corruptions(draw):
    """One word flipped, or two words swapped, in the fuzz table's v4 bytes."""
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
        return bytes(data)
    second = draw(offsets.filter(lambda j: abs(j - first) >= width))
    a, b = data[first : first + width], data[second : second + width]
    data[first : first + width], data[second : second + width] = b, a
    return bytes(data)


def _sets_or_none(data: bytes):
    try:
        return tuple(load_table(io.BytesIO(data)).sets)
    except ValueError:  # corruption, an unknown format, or a set that rebuilds wrong
        return None


class TestCorruptionFuzz:
    @settings(max_examples=400)
    @given(_corruptions())
    def test_single_corruption_detected_or_harmless(self, data):
        assert _sets_or_none(data) in (None, tuple(_FUZZ_TABLE.sets))

    def test_swapped_words_in_last_record_detected(self):
        data = bytearray(_dump(build_table(100)))
        start = _record_start(100)
        low, count = data[start : start + 8], data[start + 8 : start + 16]
        assert low != count
        data[start : start + 16] = count + low
        with pytest.raises(TableCorruptionError, match="record 100 checksum"):
            load_table(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("n_max,records", [(100, range(101)), (1000, (0, 1, 500, 999, 1000))])
    def test_every_single_byte_corruption_names_its_record(self, n_max, records):
        # every byte of the header and of the given records, two flips each;
        # each record's CRC is checked before the next record's
        data = _dump(build_table(n_max))
        positions = [*range(HEADER), *(p for n in records for p in range(_record_start(n), _record_end(n)))]
        missed = []
        for pos in positions:
            for flip in (0x01, 0xFF):
                corrupted = bytearray(data)
                corrupted[pos] ^= flip
                n = max(0, (pos - HEADER) // RECORD)  # the header is under record 0's CRC
                try:
                    load_table(io.BytesIO(bytes(corrupted)))
                except TableCorruptionError as exc:
                    if exc.record_index != n:
                        missed.append((pos, flip))
                except UnsupportedFormatError:
                    if pos >= 6:  # only the magic and the version name no record
                        missed.append((pos, flip))
                else:
                    missed.append((pos, flip))
        assert missed == []
