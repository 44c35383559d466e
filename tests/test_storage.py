import hashlib
import io
import os
import re
import struct
import subprocess
import sys

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

HEADER, RECORD = 10, 16  # bytes: magic, version and n_max; low and count


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
    """Offset just past record n's ``count``."""
    return HEADER + RECORD * (n + 1)


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
        # magic, version, n_max, one record (low 1, count 1)
        assert data[:4] == b"RDIM"
        version, n_max = struct.unpack("<HI", data[4:10])
        assert (version, n_max) == (5, 0)
        low, count = struct.unpack("<QQ", data[10:26])
        assert (low, count) == (1, 1)
        assert len(data) == 26

    def test_records_hold_low_and_count(self):
        table = build_table(40)
        data = _dump(table)
        assert len(data) == _record_end(40)
        for n, dimset in enumerate(table.sets):
            low, count = struct.unpack_from("<QQ", data, _record_start(n))
            assert (low, count) == (dimset.low, len(dimset)) == (table.low[n], table.count[n])

    def test_file_is_sixteen_bytes_a_record(self):
        assert len(_dump(build_table(1000))) == 16026  # the tails took 2 743 974 bytes

    def test_bytes_at_the_build_limit(self, table4097):
        # pins the build bit for bit one past the CLI's inline limit
        data = _dump(table4097)
        assert len(data) == 65578
        assert (
            hashlib.sha256(data).hexdigest()
            == "66d80753ef2a0ef5114f4b991de98c016d76e87776b2f072cb3e90811228c805"
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

    @pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 0xFFFF])
    def test_only_older_versions_are_old_format_errors(self, version):
        data = bytearray(_dump(build_table(2)))
        data[4:6] = struct.pack("<H", version)
        with pytest.raises(UnsupportedFormatError, match=f"version {version};"):
            load_table(io.BytesIO(bytes(data)))

    def test_a_v4_file_is_an_old_format(self):
        # format v4's dump of build_table(0): one record of low 1, count 1
        # and the CRC-32 that chained through it
        v4 = bytes.fromhex("5244494d0400000000000100000000000000010000000000000076a87541")
        with pytest.raises(UnsupportedFormatError, match="version 4; only version 5 is read"):
            load_table(io.BytesIO(v4))

    def test_length_is_checked_before_the_build(self, monkeypatch):
        # a header claiming n_max = 2^32 - 1 over one record fails at record
        # 1 without building anything
        data = bytearray(_dump(build_table(0)))
        data[6:10] = struct.pack("<I", 2**32 - 1)
        calls = []
        monkeypatch.setattr(dimsets, "_small_sets", lambda k: calls.append(k))
        with pytest.raises(TableCorruptionError) as err:
            load_table(io.BytesIO(bytes(data)))
        assert (str(err.value), err.value.record_index) == (
            "truncated stream while reading record 1", 1
        )
        assert len(data) == 26 and calls == []

    def test_a_huge_claimed_n_max_is_read_in_bounded_steps(self, tmp_path, monkeypatch):
        # from a file, whose read(k) allocates k bytes up front, the same
        # header fails at record 1: no read asks for 16 * 2^32 bytes
        data = bytearray(_dump(build_table(0)))
        data[6:10] = struct.pack("<I", 2**32 - 1)
        path = tmp_path / "huge.rdim"
        path.write_bytes(data)
        calls = []
        monkeypatch.setattr(dimsets, "_small_sets", lambda k: calls.append(k))
        with open(path, "rb") as fh, pytest.raises(TableCorruptionError) as err:
            load_table(fh)
        assert (str(err.value), err.value.record_index) == (
            "truncated stream while reading record 1", 1
        )
        assert calls == []

    def test_trailing_bytes_are_refused_unread(self, tmp_path):
        # an n_max = 0 table followed by 64 MiB of zeros: the load reads one
        # byte past the record and refuses the rest.  The child reports its
        # own VmHWM: its ru_maxrss would include this process, which it
        # starts as a copy of
        path = tmp_path / "padded.rdim"
        with open(path, "wb") as fh:
            fh.write(_dump(build_table(0)))
            fh.truncate(26 + (64 << 20))
        probe = (
            "import sys\n"
            "from reinhardt import TableCorruptionError, load_table\n"
            "try:\n"
            "    with open(sys.argv[1], 'rb') as fh:\n"
            "        load_table(fh)\n"
            "except TableCorruptionError as exc:\n"
            "    print(exc)\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
        )
        src = os.path.dirname(os.path.dirname(dimsets.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe, str(path)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout
        message, hwm_kib = out.splitlines()
        assert message == "trailing bytes after the last record"
        assert int(hwm_kib) / 1024 <= 20

    def test_single_bit_corruption_detected(self):
        data = bytearray(_dump(build_table(4)))
        data[_record_start(4) + 8] ^= 0x01  # record 4's count
        with pytest.raises(TableCorruptionError, match="record 4 stores"):
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
    def test_out_of_range_record_fails_the_row_check(self, field, value):
        # record 3 is S(3) = {3, 5, 9}: low 2, count 3, of the 4 indices of
        # n = 3; a load and a table made from the same rows name it alike
        data = bytearray(_dump(build_table(4)))
        _put(data, 3, field, value)
        with pytest.raises(TableCorruptionError, match="record 3 stores") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == 3
        low, count = list(build_table(4).low), list(build_table(4).count)
        (count if field else low)[3] = value
        with pytest.raises(TableCorruptionError, match="record 3 stores") as made:
            DimTable(low, count)
        assert (str(made.value), made.value.record_index) == (str(err.value), 3)

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
        with pytest.raises(TableCorruptionError, match=f"record {n} stores") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == n

    @pytest.mark.parametrize("field", [0, 8], ids=["low", "count"])
    @pytest.mark.parametrize("n", [*range(full_set_limit(300) + 1), *range(70, 301, 10)])
    def test_a_wrong_row_fails_when_the_table_is_made(self, table300, n, field):
        # every n <= K = 66, whose set the table keeps, and every 10th n
        # above, whose set it rebuilds on access: low[n] or count[n] one off
        # either way fails DimTable(low, count) and the load of the same
        # rows with one error, naming n
        data = _dump(table300)
        for delta in (-1, 1):
            low, count = list(table300.low), list(table300.count)
            row = count if field else low
            row[n] += delta
            wrong = (
                f"record {n} stores low {low[n]} and count {count[n]}, but the build"
                f" gives low {table300.low[n]} and count {table300.count[n]}"
            )
            with pytest.raises(TableCorruptionError, match=f"^{re.escape(wrong)}$") as made:
                DimTable(low, count)
            assert made.value.record_index == n
            edited = bytearray(data)
            _put(edited, n, field, row[n])
            with pytest.raises(TableCorruptionError, match=f"^{re.escape(wrong)}$") as err:
                load_table(io.BytesIO(bytes(edited)))
            assert err.value.record_index == n

    def test_count_above_k_fails_the_load_and_the_table(self):
        # n_max = 200 keeps S(0..60) in full; a count of 150 lowered by 2,
        # which would serve c(150) and h(149) 2 low, fails the load and a
        # table made from the same rows alike
        table = build_table(200)
        assert full_set_limit(200) == 60
        data = bytearray(_dump(table))
        _put(data, 150, 8, table.count[150] - 2)
        with pytest.raises(TableCorruptionError, match="record 150 stores low") as err:
            load_table(io.BytesIO(bytes(data)))
        assert err.value.record_index == 150
        assert (compact_count(table, 150), noncompact_count(table, 149)) == (9167, 127)
        count = [*table.count[:150], table.count[150] - 2, *table.count[151:]]
        wrong = r"^record 150 stores low \d+ and count 9166, but the build gives low \d+ and count 9168$"
        with pytest.raises(TableCorruptionError, match=wrong) as made:
            DimTable(table.low, count)
        assert (str(made.value), made.value.record_index) == (str(err.value), 150)

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
        with pytest.raises(TableCorruptionError, match="record 7 stores"):
            load_table(io.BytesIO(bytes(data)))


FUZZ_N_MAX = 12
_FUZZ_TABLE = build_table(FUZZ_N_MAX)
_FUZZ_DATA = _dump(_FUZZ_TABLE)
# starts of the magic, version and n_max fields, then of every record's
# low and count
_FIELD_STARTS = sorted(
    {0, 4, 6}
    | {_record_start(n) + field for n in range(FUZZ_N_MAX + 1) for field in (0, 8)}
)


@st.composite
def _corruptions(draw):
    """One word flipped, or two words swapped, in the fuzz table's v5 bytes."""
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
        with pytest.raises(TableCorruptionError, match="record 100 stores"):
            load_table(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("n_max,records", [(100, range(101)), (1000, (0, 1, 500, 999, 1000))])
    def test_every_single_byte_corruption_names_its_record(self, n_max, records):
        # every byte of the header and of the given records, two flips each:
        # a record byte names its record, a byte of n_max fails the length
        # check before any build, and the magic and the version are not
        # this format
        data = _dump(build_table(n_max))
        positions = [*range(HEADER), *(p for n in records for p in range(_record_start(n), _record_end(n)))]
        missed = []
        for pos in positions:
            for flip in (0x01, 0xFF):
                corrupted = bytearray(data)
                corrupted[pos] ^= flip
                try:
                    load_table(io.BytesIO(bytes(corrupted)))
                except TableCorruptionError as exc:
                    if pos < HEADER:
                        named = pos >= 6 and str(exc).startswith(("truncated", "trailing"))
                    else:
                        named = exc.record_index == (pos - HEADER) // RECORD
                    if not named:
                        missed.append((pos, flip))
                except UnsupportedFormatError:
                    if pos >= 6:  # only the magic and the version name no record
                        missed.append((pos, flip))
                else:
                    missed.append((pos, flip))
        assert missed == []
