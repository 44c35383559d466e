import contextlib
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib

import pytest

import reinhardt.cli
import reinhardt.storage
import reinhardt.verifiers
from reinhardt import build_table, lemma, save_table
from reinhardt.classify import classify_dimension
from reinhardt.cli import main
from reinhardt.lemma import square_sum_counts
from reinhardt.sequences import _ratio_row, growth_sequence

CHUNK = reinhardt.cli._CHUNK  # rows per JSON write, before any test patches it


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def row_documents():
    """(argv, format, expected stdout) of `table` and `sequence` windows,
    the stdout built from the library's rows: CSV as one join, and JSON as
    one ``json.dumps`` of the whole document.  The JSON windows hold 1, 2,
    21 and 29 rows, and CHUNK and CHUNK + 1 rows."""
    docs = []

    def add(argv, header, json_header, rows):
        csv = ",".join(header) + "\n" + "".join(
            ",".join("" if v is None else str(v) for v in row) + "\n" for row in rows
        )
        objects = [dict(zip(json_header, row)) for row in rows]
        docs.append((argv, "json", json.dumps({"rows": objects}, ensure_ascii=False) + "\n"))
        if len(rows) < CHUNK:
            docs.append((argv, "csv", csv))

    for lo, hi in ((4, 4), (4, 5), (2, 30), (2, CHUNK + 1), (2, CHUNK + 2)):
        counts = square_sum_counts(lo, hi + 1)
        rows = [
            _ratio_row(n, counts[n - lo], counts[n - lo + 1] if n < hi else None)
            for n in range(lo, hi + 1)
        ]
        argv = ("table", "--min-n", str(lo), "--max-n", str(hi), "--force")
        add(argv, ("n", "c", "c/n^2", "h", "h/n"), ("n", "c", "c_over_n2", "h", "h_over_n"), rows)
    for n_max in (1, 20, CHUNK - 1, CHUNK):
        rows = [(r.n, r.reach, 2 * r.threshold, r.anchor) for r in growth_sequence(n_max)]
        add(("sequence", "--max-n", str(n_max)), ("n", "f", "2g", "k"), ("n", "f", "2g", "k"), rows)
    return docs


class _Writes(list):
    """A text stream that keeps each write as one item."""

    write = list.append


class TestTable:
    def test_small_range_with_edge_row(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "5", "--min-n", "4", "--no-cache")
        assert code == 0
        assert out.splitlines() == [
            "n,c,c/n^2,h,h/n",
            "4,4,0.2500,1,0.2500",
            "5,6,0.2400,,",
        ]

    def test_row_20_counts(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "21", "--min-n", "20", "--no-cache")
        assert code == 0
        assert out.splitlines()[1] == "20,117,0.2925,11,0.5500"

    def test_row_100_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--max-n", "101", "--min-n", "100", "--no-cache")
        assert code == 0
        assert out.splitlines()[1] == "100,3880,0.3880,81,0.8100"

    def test_json_matches_csv_data(self, capsys):
        code, out, _ = run(
            capsys, "table", "--max-n", "5", "--min-n", "4", "--format", "json", "--no-cache"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"] == [
            {"n": 4, "c": 4, "c_over_n2": "0.2500", "h": 1, "h_over_n": "0.2500"},
            {"n": 5, "c": 6, "c_over_n2": "0.2400", "h": None, "h_over_n": None},
        ]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "table", "--max-n", "4", "--out", str(target), "--no-cache"
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,c,c/n^2,h,h/n\n")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--max-n", "4", "--min-n", "1", "--no-cache")
        assert code == 1 and "min_n" in err

    def test_force_guard(self, capsys):
        code, out, err = run(capsys, "table", "--max-n", "5000", "--no-cache")
        assert (code, out) == (1, "")
        assert err == "error: `table` prints rows to n=4096 unless --force is given\n"

    def test_uncached_table_at_4096_runs_in_small_memory(self):
        # The table holds two ints per n and S(0..160); the tails took 108 MiB.
        # The child reports its own VmHWM: its ru_maxrss would include the
        # memory of this process, which it starts as a copy of.
        probe = (
            "import io\n"
            "from contextlib import redirect_stdout\n"
            "import reinhardt.cli\n"
            "with redirect_stdout(io.StringIO()) as out:\n"
            "    code = reinhardt.cli.main(['table', '--max-n', '4096', '--no-cache'])\n"
            "with open('/proc/self/status') as fh:\n"
            "    hwm = next(l.split()[1] for l in fh if l.startswith('VmHWM:'))\n"
            "print(code, out.getvalue().count('\\n'), int(hwm))\n"
        )
        src = os.path.dirname(os.path.dirname(reinhardt.cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
        ).stdout
        code, lines, hwm_kib = map(int, out.split())
        assert (code, lines) == (0, 4096)  # the header and n = 2..4096
        assert hwm_kib / 1024 < 32


class TestBuildLimit:
    def test_one_limit_for_every_command(self, capsys, monkeypatch):
        monkeypatch.delenv("REINHARDT_CACHE", raising=False)
        queries = (("15", "101"), ("10", "30"))
        expected = [run(capsys, "classify", "--n", n, "--dim", d) for n, d in queries]
        assert [code for code, _, _ in expected] == [0, 0]
        monkeypatch.setattr(reinhardt.cli, "BUILD_LIMIT", 10)
        assert run(capsys, "table", "--max-n", "11", "--no-cache") == (
            1,
            "",
            "error: `table` prints rows to n=10 unless --force is given\n",
        )
        # neither `table` nor `set` builds a table; --force lifts either limit
        assert run(capsys, "set", "--n", "11", "--no-cache") == (
            1,
            "",
            "error: S(11) holds about 60 values; `set` prints at most S(10)"
            " unless --force is given\n",
        )
        for argv in (("table", "--max-n", "11"), ("set", "--n", "11")):
            code, out, _ = run(capsys, *argv, "--force", "--no-cache")
            assert code == 0 and out
        # classify builds no table, so the limit does not concern it: the
        # same answers at n = 15 and at n = 10, whose successor passes it
        assert [run(capsys, "classify", "--n", n, "--dim", d) for n, d in queries] == expected

    def test_verify_suites_that_build_obey_the_limit(self, capsys, monkeypatch):
        # the suites' own limit, not BUILD_LIMIT: sequences builds the table
        # to max_n, numh to max_n + 1, and past the limit neither builds
        limit = reinhardt.verifiers.TABLE_MAX_N
        assert limit == 100_000
        monkeypatch.setattr(reinhardt.cli, "BUILD_LIMIT", 10)
        for suite, max_n in (("sequences", "11"), ("numh", "10")):
            assert run(capsys, "verify", "--suite", suite, "--max-n", max_n)[0] == 0

        def no_build(n_max):
            raise AssertionError(f"built to n={n_max}")

        monkeypatch.setattr(reinhardt.verifiers, "build_table", no_build)
        for suite, max_n in (("sequences", limit + 1), ("numh", limit)):
            assert run(capsys, "verify", "--suite", suite, "--max-n", str(max_n)) == (
                1,
                "",
                f"error: suites build tables to n={limit}, this one needs n={limit + 1}\n",
            )

    def test_sequences_runs_to_the_limit(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "sequences", "--max-n", "100000")
        assert (code, err) == (0, "")
        assert {"n_hi,100000", "status,pass"} <= set(out.splitlines())


def _save(path, table):
    with open(path, "wb") as fh:
        save_table(table, fh)


class TestCache:
    def test_classify_ignores_env_cache(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("REINHARDT_CACHE", raising=False)
        # 13 = 3^2 + 2^2 is below n^2 - 2: the membership rung decides it
        argv = ("classify", "--n", "5", "--dim", "13")
        expected = run(capsys, *argv)
        assert expected[0] == 0 and "status,compact_bad" in expected[1].splitlines()
        cache = tmp_path / "env.rdim"
        _save(cache, build_table(6))
        calls = []
        monkeypatch.setattr(reinhardt.storage, "load_table", lambda *args: calls.append(args))
        monkeypatch.setenv("REINHARDT_CACHE", str(cache))
        assert run(capsys, *argv) == expected and calls == []
        blob = bytearray(cache.read_bytes())
        blob[-3] ^= 0x10  # a file that fails its checksum is not read either
        cache.write_bytes(bytes(blob))
        assert run(capsys, *argv) == expected
        assert cache.read_bytes() == blob and [p.name for p in tmp_path.iterdir()] == ["env.rdim"]

    _KINDS = [
        "corrupt", "foreign", "old-format", "short", "covering", "missing-dir", "env", "resealed"
    ]

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize(
        "argv", [("set", "--n", "20"), ("set", "--n", "90")], ids=["20", "90"]
    )  # from the small sets, and one step past them
    def test_set_touches_no_cache(self, capsys, tmp_path, monkeypatch, kind, argv):
        self._check_touches_no_cache(capsys, tmp_path, monkeypatch, kind, argv)

    @pytest.mark.parametrize("kind", _KINDS)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_touches_no_cache(self, capsys, tmp_path, monkeypatch, kind, fmt):
        argv = ("table", "--min-n", "89", "--max-n", "100", "--format", fmt)
        self._check_touches_no_cache(capsys, tmp_path, monkeypatch, kind, argv)

    def _check_touches_no_cache(self, capsys, tmp_path, monkeypatch, kind, argv):
        # no command reads or writes a cache, whatever file --cache or
        # $REINHARDT_CACHE names: `resealed` stores count(90) one low behind
        # valid CRCs, which a command that read it would print
        monkeypatch.delenv("REINHARDT_CACHE", raising=False)
        expected = run(capsys, *argv, "--no-cache")
        assert expected[0] == 0 and expected[2] == ""
        cache = tmp_path / "t.rdim"
        if kind in ("corrupt", "short", "covering", "env"):
            _save(cache, build_table(10 if kind == "short" else 100))
        if kind in ("corrupt", "env"):
            blob = bytearray(cache.read_bytes())
            blob[12] ^= 0x10  # in record 0, so any read of the file fails
            cache.write_bytes(bytes(blob))
        elif kind == "resealed":
            _save(cache, build_table(100))
            blob = bytearray(cache.read_bytes())
            at = 10 + 20 * 90 + 8  # record 90's count, after the 10-byte header
            struct.pack_into("<Q", blob, at, struct.unpack_from("<Q", blob, at)[0] - 1)
            crc = zlib.crc32(blob[:10])
            for start in range(10, len(blob), 20):  # reseal each record's CRC
                crc = zlib.crc32(blob[start : start + 16], crc)
                struct.pack_into("<I", blob, start + 16, crc)
            cache.write_bytes(bytes(blob))
        elif kind == "foreign":
            cache.write_bytes(b"not a table at all\n")
        elif kind == "old-format":
            cache.write_bytes(b"RDIM" + struct.pack("<HI", 3, 30) + b"\x01" * 64)
        elif kind == "missing-dir":
            cache = tmp_path / "missing" / "t.rdim"
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def no_cache(*args):
            raise AssertionError("a command read or wrote a cache")

        for name in ("load_table", "save_table"):
            monkeypatch.setattr(reinhardt.storage, name, no_cache)
        if kind == "env":
            monkeypatch.setenv("REINHARDT_CACHE", str(cache))
            assert run(capsys, *argv) == expected
        else:
            assert run(capsys, *argv, "--cache", str(cache)) == expected
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSet:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "set", "--n", "5", "--no-cache")
        assert code == 0
        assert out.splitlines() == ["n,values", "5,5 7 9 11 13 17 25"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "set", "--n", "2", "--format", "json", "--no-cache")
        assert json.loads(out) == {"rows": [{"n": 2, "values": [2, 4]}]}

    # stdout of the list-and-join implementation this streaming output
    # replaced (n = 250 and 803), and of the writer that formatted every
    # value of the dense run one at a time (the rest)
    @pytest.mark.parametrize(
        "argv,size,sha256",
        [
            (
                ("--n", "250"),
                155281,
                "547f88dbabcb187c9c6c3dcbadf0b8b2dc2196f40e6d935e02b24ba054486f0c",
            ),
            (
                ("--n", "250", "--format", "json"),
                182056,
                "70b6afc1b8266fb9f05d4db74fc1e31917cae402141e47890a3a2962d3256683",
            ),
            (
                ("--n", "803"),
                2023995,
                "3e4284e886e1b05f5c48a7d3fb9e65fef0e2f45576771a8f4bc0a1a1e16bf38d",
            ),
            # both ends of the dense run's whole centuries: below, at and past 100
            (
                ("--n", "0"),
                13,
                "947fc7d92b18f075585f615315c016b52c747f51274718ff2bd850e09fb78dc8",
            ),
            (
                ("--n", "0", "--format", "json"),
                36,
                "235f0c2f32055e3a0e397848fe770c56eb3d581b3368edea334ed82901240773",
            ),
            (
                ("--n", "1"),
                13,
                "2c135c3799f3fdde4ee828875fb0d1a676de93fc200f54e3953bccbaa62eb061",
            ),
            (
                ("--n", "1", "--format", "json"),
                36,
                "5b659c214f59f38561706405e404025f91aa5ca099c00ff7bd2eb827187bf3dc",
            ),
            (
                ("--n", "2"),
                15,
                "7903f0baeb52f80aa8d226c7ca775d59b5e65061fc504bdc58adefd93118840b",
            ),
            (
                ("--n", "2", "--format", "json"),
                39,
                "8f387b6a5a2436ad6554e463550e1982434df80bbbdcf6e6cd0c5acfcee5810a",
            ),
            (
                ("--n", "49"),
                3685,
                "ea32d563f2070ec0a70efed5a29da74161c7a591324be906c55fc15228385805",
            ),
            (
                ("--n", "49", "--format", "json"),
                4542,
                "c4d794897e91afdb9691e1016bc1975b3877b0defaa5177fe6b40b15c33bef3f",
            ),
            (
                ("--n", "50"),
                3872,
                "9ed4498aa67f688ae91bd505527fc6198af95e009f9cf66ce00dfd9be065efed",
            ),
            (
                ("--n", "50", "--format", "json"),
                4766,
                "1f52999d3cada01fa5d257c493163bde934222a0e5abe4a20477a9fcc074a516",
            ),
            (
                ("--n", "99"),
                18550,
                "43a594af619fb6a815d63e85b88536aa7fab6e2fd0fa0df689fb2075beaecbe3",
            ),
            (
                ("--n", "99", "--format", "json"),
                22370,
                "2aadfd5b881cd3df7380b3adfdb5887a1d516f0e086d686fb53a5d7a9ae36726",
            ),
            (
                ("--n", "100"),
                18969,
                "acdf261aa42b17382fa8ea757d1aff47191ede8a43c3cec3b1a6f4a758a9eeb9",
            ),
            (
                ("--n", "100", "--format", "json"),
                22872,
                "0c1a4bac766d9fc253a3522ad1a93317db51431975066da876da65ace2c54887",
            ),
            (
                ("--n", "101"),
                19380,
                "6e76e1f05f181bf6f67892c49545e263470f08826e547ad06a63e9e5539465ce",
            ),
            (
                ("--n", "101", "--format", "json"),
                23365,
                "7f5fc0dbaccca1146adfb4b343a2f9faef828668d338e5ac405f8f9df5ac4462",
            ),
            (
                ("--n", "150"),
                49671,
                "d346bedcc37975b44f4c9ceec286026c09a830d94b06f89c2aba9b7c91f290fe",
            ),
            (
                ("--n", "150", "--format", "json"),
                58861,
                "1f5be95d61b3cd608af7fffa127ac543c23087f36c21b54095d6026c28bd2a43",
            ),
            (
                ("--n", "801"),
                2013408,
                "17e3745d2d0598398acb71f189876632e8a6c816e960e747ab2a01187928c390",
            ),
            (
                ("--n", "801", "--format", "json"),
                2308815,
                "8f95358094b42cc0f63bdecd38df0039158b80e872e0c08d30a58e48d823594f",
            ),
            (
                ("--n", "1000"),
                3198866,
                "448cb0dfcae203bcb79ff6bf9a4e66dbf7d53588afce8f10f23ddfa7b84e499f",
            ),
            (
                ("--n", "1000", "--format", "json"),
                3663581,
                "89a8e3c365c1220cd9eee55735385cf94227f7bb52c123ca091a7ffe907d1a2c",
            ),
        ],
        ids=["250-csv", "250-json", "803-csv"]
        + [
            f"{n}-{fmt}"
            for n in (0, 1, 2, 49, 50, 99, 100, 101, 150, 801, 1000)
            for fmt in ("csv", "json")
        ],
    )
    def test_large_set_goldens(self, capsys, argv, size, sha256):
        code, out, _ = run(capsys, "set", *argv, "--no-cache")
        assert code == 0 and len(out.encode()) == size
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("chunk", [1, 3, 7, CHUNK])
    def test_chunked_output_equals_one_join(self, capsys, monkeypatch, chunk, row_documents):
        values = [5, 7, 9, 11, 13, 17, 25]
        monkeypatch.setattr(reinhardt.cli, "_CHUNK", chunk)
        assert run(capsys, "set", "--n", "5", "--no-cache")[1] == (
            "n,values\n5," + " ".join(map(str, values)) + "\n"
        )
        out = run(capsys, "set", "--n", "5", "--format", "json", "--no-cache")[1]
        assert out == json.dumps({"rows": [{"n": 5, "values": values}]}) + "\n"
        for argv, fmt, want in row_documents:
            assert run(capsys, *argv, "--format", fmt) == (0, want, ""), (argv, fmt)
        # the one-record documents: the text of one json.dumps of what they hold
        out = run(capsys, "classify", "--n", "4", "--dim", "12", "--format", "json")[1]
        assert out == json.dumps(json.loads(out), ensure_ascii=False) + "\n"
        record = reinhardt.cli._classification_record(classify_dimension(4, 12))
        assert json.loads(out) == {"rows": [record]} and len(record["realizations"]) == 4
        out = run(capsys, "verify", "--suite", "brute", "--max-n", "12", "--format", "json")[1]
        assert out == json.dumps(json.loads(out), ensure_ascii=False) + "\n"
        assert list(json.loads(out)["rows"][0]) == [
            "suite", "n_lo", "n_hi", "status", "elapsed_s", "notes", "counterexamples"
        ]

    @pytest.mark.parametrize("sep", [" ", ", "])
    def test_run_writer_equals_its_definition(self, sep):
        # every start below 301 and every run of up to 600 values: values
        # below 100, whole centuries and partial ones at either end
        for lo in range(301):
            want = sep.join(map(str, range(lo, lo + 1200, 2)))
            ends = [0]  # ends[k]: the length of the first k values, joined
            for v in range(lo, lo + 1200, 2):
                ends.append(ends[-1] + (len(sep) if ends[-1] else 0) + len(str(v)))
            for k, hi in enumerate(range(lo, lo + 1201, 2)):
                out = _Writes()
                lead = reinhardt.cli._write_run(lo, hi, sep, out)
                assert "".join(out) == want[: ends[k]], (lo, hi)
                assert lead == (sep if k else ""), (lo, hi)

    @pytest.mark.parametrize("centuries", [1, 3])
    def test_run_writer_batches_whole_centuries(self, monkeypatch, centuries):
        monkeypatch.setattr(reinhardt.cli, "_CENTURIES", centuries)
        for lo, hi in [(5, 1205), (100, 1000), (101, 1001), (250, 2752), (1999, 2999)]:
            out = _Writes()
            reinhardt.cli._write_run(lo, hi, ", ", out)
            assert "".join(out) == ", ".join(map(str, range(lo, hi, 2)))
            # no write holds more than a batch: the ", " before each value
            # but the first counts its values
            assert max(w.count(",") for w in out) <= 50 * centuries

    def test_inline_threshold(self, capsys):
        code, _, err = run(capsys, "set", "--n", "4097", "--no-cache")
        assert code == 1 and "`set` prints at most S(4096) unless --force" in err


class TestClassify:
    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "5", "--dim", "35")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "field,value"
        assert "status,ball" in lines

    def test_noncompact_with_realizations(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--dim", "12")
        assert code == 0
        assert "status,noncompact_good" in out
        assert out.count("realization,") == 4

    def test_unrealizable_parity(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--dim", "15")
        assert code == 0
        assert "status,unrealizable" in out and "parity" in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "4", "--dim", "16", "--format", "json")
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["status"] == "n_squared"
        assert "ProductB2B2" in {f["tag"] for f in row["families"]}
        assert {"parts": [3, 1], "marks": [[3, 1]], "blocks": 2, "marked": 1} in row["realizations"]

    @pytest.mark.parametrize(
        "dim, status",
        [
            (25_010_000, "ball"),
            (25_000_002, "ball_times_disc"),
            (25_000_000, "n_squared"),
            (25_000_004, "unrealizable"),  # the gap above n^2
            (24_999_999, "unrealizable"),  # parity
            (4_998, "unrealizable"),  # below n
            (25_010_002, "unrealizable"),  # above n^2 + 2n
            # the membership rung, from a table built to 5001: the last value
            # of the prefix of S(5000), the first above it, and past it
            (23_843_718, "compact_bad"),
            (23_843_720, "noncompact_good"),
            (23_843_722, "compact_bad"),
            (24_980_010, "general_only"),
            (24_980_000, "unrealizable"),
            (24_999_998, "unrealizable"),  # n^2 - 2
        ],
    )
    def test_values_decided_by_n_read_no_table(self, capsys, monkeypatch, tmp_path, dim, status):
        from reinhardt import classify, dimsets, lemma, storage

        def no_table(*args):
            raise AssertionError("classify read or built a table")

        def base_only(k):
            assert k == dimsets.MARKED_ORACLE_MAX_N, f"built to n={k}"
            return real_build(k)

        real_build = lemma._small_sets
        for module, name in ((storage, "load_table"), (dimsets, "build_table")):
            monkeypatch.setattr(module, name, no_table)
        monkeypatch.setattr(classify, "_small_sets", base_only)
        classify._small_squares.cache_clear()  # so the base is built under the patch
        cache = tmp_path / "corrupt.rdim"
        cache.write_bytes(b"RDIM" + b"\xff" * 40)
        monkeypatch.setenv("REINHARDT_CACHE", str(cache))
        code, out, err = run(capsys, "classify", "--n", "5000", "--dim", str(dim))
        assert (code, err) == (0, "")
        assert f"status,{status}" in out.splitlines()

    def test_rejects_small_n(self, capsys):
        code, _, err = run(capsys, "classify", "--n", "1", "--dim", "3")
        assert code == 1 and "n >= 2" in err

    # byte-exact stdout of an upper-half query at n = 50, where the
    # realization order (mark count, parts, greedy marks) is visible
    def test_n50_csv_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "50", "--dim", "2216")
        assert code == 0
        assert out == (
            "field,value\n"
            "n,50\n"
            "dim,2216\n"
            "status,noncompact_good\n"
            "notes,\n"
            'realization,"(46,2,2) marks[46] (blocks=3, marked=1)"\n'
            'realization,"(47,2,1) marks[1] (blocks=3, marked=1)"\n'
            'realization,"(46,2,1,1) marks[46,1] (blocks=4, marked=2)"\n'
            'realization,"(47,1,1,1) marks[1x2] (blocks=4, marked=2)"\n'
            'realization,"(46,1,1,1,1) marks[46,1x2] (blocks=5, marked=3)"\n'
        )

    def test_n50_json_golden(self, capsys):
        code, out, _ = run(capsys, "classify", "--n", "50", "--dim", "2216", "--format", "json")
        assert code == 0
        assert out == (
            '{"rows": [{"n": 50, "dim": 2216, "status": "noncompact_good", "notes": "",'
            ' "families": [], "realizations": ['
            '{"parts": [46, 2, 2], "marks": [[46, 1]], "blocks": 3, "marked": 1},'
            ' {"parts": [47, 2, 1], "marks": [[1, 1]], "blocks": 3, "marked": 1},'
            ' {"parts": [46, 2, 1, 1], "marks": [[46, 1], [1, 1]], "blocks": 4, "marked": 2},'
            ' {"parts": [47, 1, 1, 1], "marks": [[1, 2]], "blocks": 4, "marked": 2},'
            ' {"parts": [46, 1, 1, 1, 1], "marks": [[46, 1], [1, 2]], "blocks": 5, "marked": 3}'
            "]}]}\n"
        )


class TestWitness:
    def test_marked_egg(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4", "--dim", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "|z¹|²+|z²|⁴<1"
        assert "not verified" in lines[1]

    def test_plain_egg(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4", "--dim", "10")
        assert out.splitlines()[0] == "|z¹|⁴+|z²|⁶<1"

    def test_index_selects_alternative(self, capsys):
        code, out, _ = run(capsys, "witness", "--n", "4", "--dim", "12", "--index", "1")
        assert code == 0
        assert out.splitlines()[0] == "|z¹|⁴+|z²|²<1"

    def test_no_smooth_bounded_witness(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "4", "--dim", "14")
        assert code == 1 and "at most one marked block" in err

    def test_index_out_of_range(self, capsys):
        code, _, err = run(capsys, "witness", "--n", "4", "--dim", "12", "--index", "9")
        assert code == 1 and "out of range" in err

    @pytest.mark.parametrize(
        "index,golden",
        [
            (
                "0",
                "|z¹|⁴+|z²|⁶+|z³|⁸<1\n"
                "canonical candidate; automorphism group not verified by this library"
                " (construction egg, claimed dimension 741)\n",
            ),
            (
                "5",
                "|z¹|⁴+|z²|⁶+|z³|²+|z⁴|⁸+|z⁵|¹⁰+|z⁶|¹²+|z⁷|¹⁴+|z⁸|¹⁶<1\n"
                "canonical candidate; automorphism group not verified by this library"
                " (construction marked_egg, claimed dimension 741)\n",
            ),
        ],
    )
    def test_n35_golden(self, capsys, index, golden):
        code, out, _ = run(capsys, "witness", "--n", "35", "--dim", "741", "--index", index)
        assert code == 0 and out == golden


class TestVerify:
    @pytest.mark.parametrize(
        "suite,max_n",
        [
            ("bounds", 12),
            ("lemma-largest", 12),
            ("arms", 12),
            ("brute", 12),
            ("prop7", 20),
            ("sequences", 30),
        ],
    )
    def test_pass_suites_exit_zero(self, capsys, suite, max_n):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", str(max_n))
        assert code == 0
        assert "status,pass" in out

    def test_report_only_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "numh", "--max-n", "40")
        assert code == 0
        assert "status,report-only" in out

    def test_sequences_json_includes_frozen_anchor(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "sequences", "--max-n", "30", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["rows"][0]["status"] == "pass"

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus", "--max-n", "5"])
        assert err.value.code == 2


class TestSequence:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "sequence", "--max-n", "18")
        lines = out.splitlines()
        assert lines[0] == "n,f,2g,k"
        assert lines[1] == "0,0,4,"
        assert lines[5] == "4,10,18,1"
        assert lines[19] == "18,142,164,7"

    def test_rows_past_100000(self, capsys):
        # no row limit: the walk holds no list that grows with n
        code, out, _ = run(capsys, "sequence", "--max-n", "100001")
        lines = out.splitlines()
        assert (code, len(lines)) == (0, 1 + 100_002)
        f = lemma.reach(100_001)
        n, f_out, g2, _ = lines[-1].split(",")
        assert (int(n), int(f_out), int(g2)) == (100_001, f, f + 100_001 + 4)

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_max_n_below_1_exits_1_before_any_row(self, capsys, max_n):
        code, out, err = run(capsys, "sequence", "--max-n", max_n)
        assert (code, out, err) == (1, "", f"error: max_n must be positive, got {max_n}\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_memory_per_row_is_the_walks_alone(self, fmt):
        # tracemalloc peaks of `sequence` at 20 000 and 80 000 rows, stdout
        # to a null sink.  Per extra row, on CPython 3.11: 287 B in CSV and
        # 434 B in JSON when the command held its rows, 41 B and 48 B when
        # it wrote them as they were made but its walk kept every reach(n),
        # and none now that the walk reads reach(kappa) from a walk behind it
        peaks = []
        for n_max in (20_000, 80_000):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert main(["sequence", "--max-n", str(n_max), "--format", fmt]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 60_000 < 2

    def test_json_null_anchor_at_zero(self, capsys):
        code, out, _ = run(capsys, "sequence", "--max-n", "2", "--format", "json")
        doc = json.loads(out)
        assert doc["rows"][0] == {"n": 0, "f": 0, "2g": 4, "k": None}


class TestArgv:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["tabel", "--max-n", "5"],  # unknown command
            ["table", "--max-n", "5", "--bogus"],  # unknown option
            ["table", "--max", "5"],  # options are spelled in full
            ["set", "--n", "5", "stray"],
            ["classify", "--n", "5"],  # missing required option
            ["table", "--max-n"],  # missing value
            ["table", "--max-n", "--no-cache"],
            ["set", "--n", "five"],  # bad int
            ["set", "--n=5.0"],
            ["verify", "--suite", "bogus", "--max-n", "5"],  # bad choice
            ["sequence", "--max-n", "5", "--format", "xml"],
            ["set", "--n", "5", "--no-cache=yes"],  # a flag takes no value
        ],
    )
    def test_usage_error_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        captured = capsys.readouterr()
        assert err.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert "reinhardt: error: " in captured.err

    @pytest.mark.parametrize(
        "spaced,joined",
        [
            (["set", "--n", "12", "--no-cache"], ["set", "--n=12", "--no-cache"]),
            (
                ["table", "--max-n", "5", "--min-n", "4", "--format", "json", "--no-cache"],
                ["table", "--max-n=5", "--min-n=4", "--format=json", "--no-cache"],
            ),
            (
                ["verify", "--suite", "bounds", "--max-n", "12"],
                ["verify", "--suite=bounds", "--max-n=12"],
            ),
            # the last of a repeated option wins
            (["witness", "--n", "4", "--dim", "12", "--index", "1"],
             ["witness", "--n=4", "--dim", "12", "--index", "9", "--index=1"]),
        ],
    )
    def test_equals_form_gives_the_same_output(self, capsys, spaced, joined):
        first = run(capsys, *spaced)
        assert first[0] == 0 and first[1]
        assert run(capsys, *joined) == first

    def test_dash_and_negative_number_are_values(self, capsys):
        code, out, err = run(capsys, "set", "--n", "-3", "--no-cache")
        assert (code, out) == (1, "") and "non-negative" in err
        dash = run(capsys, "table", "--max-n", "5", "--out", "-", "--no-cache")
        assert dash == run(capsys, "table", "--max-n", "5", "--no-cache")

    def test_help_lists_every_command_option_and_suite(self, capsys):
        for argv in (["--help"], ["-h"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            for command, (_, options) in reinhardt.cli._COMMANDS.items():
                assert command in captured.out
                for flag, *_ in options:
                    assert flag in captured.out
            for suite in reinhardt.cli._SUITES:
                assert suite in captured.out

    @pytest.mark.parametrize("command", list(reinhardt.cli._COMMANDS))
    def test_command_help_lists_its_options(self, capsys, command):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: reinhardt {command} ")
        for flag, *_ in reinhardt.cli._COMMANDS[command][1]:
            assert f"\n  {flag}" in out
        if command == "verify":
            for suite in reinhardt.cli._SUITES:
                assert suite in out


class TestProcess:
    """`main()` called with no argv, as a process's entry point, freezes
    the heap once the command has run; a caller passing argv keeps its own."""

    def test_in_process_main_leaves_the_freeze_count(self, capsys):
        import gc

        before = gc.get_freeze_count()
        for argv in (("set", "--n", "5", "--no-cache"), ("set", "--n", "-1")):
            run(capsys, *argv)
        assert gc.get_freeze_count() == before

    @staticmethod
    def _child(*args):
        src = os.path.dirname(os.path.dirname(reinhardt.cli.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("REINHARDT_CACHE", None)
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True
        )

    @pytest.mark.parametrize(
        "argv,code,out,err",
        [
            (["set", "--n", "5"], 0, "n,values\n5,5 7 9 11 13 17 25\n", ""),
            (["set", "--n", "-1"], 1, "", "error: n must be non-negative, got -1\n"),
            (
                ["set", "--nn", "3"],
                2,
                "",
                "usage: reinhardt set [-h] --n N [--format {csv,json}] [--cache CACHE]"
                " [--no-cache] [--force]\nreinhardt: error: unrecognized arguments: --nn\n",
            ),
            (["--help"], 0, reinhardt.cli._help(None) + "\n", ""),
        ],
        ids=["set", "error", "usage", "help"],
    )
    def test_child_exit_code_and_streams(self, argv, code, out, err):
        child = self._child("-m", "reinhardt.cli", *argv)
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err)

    def test_classify_answers_past_10_8(self):
        # no size limit: reach(n) is compact at 10^30 and 10^100, and an n
        # of 4301 digits, past Python's int parse limit, is a usage error
        for n in (10**30, 10**100):
            f = lemma.reach(n)
            child = self._child("-m", "reinhardt.cli", "classify", "--n", str(n), "--dim", str(f))
            assert (child.returncode, child.stderr) == (0, ""), n
            assert child.stdout == (
                f"field,value\nn,{n}\ndim,{f}\nstatus,compact_bad\n"
                "notes,realization enumeration skipped for n > 80\n"
            )
        child = self._child("-m", "reinhardt.cli", "classify", "--n", "1" + "0" * 4300, "--dim", "5")
        assert (child.returncode, child.stdout) == (2, "")
        assert "error: argument --n: invalid int value" in child.stderr

    def test_entry_point_freezes_after_the_command(self):
        probe = (
            "import gc, sys\n"
            "from reinhardt.cli import main\n"
            "sys.argv[1:] = ['set', '--n', '5', '--no-cache']\n"
            "code = main()\n"
            "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        child = self._child("-c", probe)
        assert child.stdout == "n,values\n5,5 7 9 11 13 17 25\n"
        assert child.stderr == "0 True\n"
