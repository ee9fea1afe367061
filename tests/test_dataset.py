import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemine.dataset import (
    Dataset,
    Descriptives,
    IngestError,
    StudyMeta,
    UnknownUnitError,
    UnitTable,
    _median,
    describe,
    ingest_csv,
    merge,
    normalize_units,
    read_unit_table,
    split_by_assay,
    write_csv,
)
from curvemine.synth import SummaryRow, reconstruct_dataset

import reference_ingest
from conftest import make_dataset
from reference_ingest import rows


CSV_BAKER = """study_id,x,y
A,-0.6,100
A,7.0,250
A,-0.2,150
"""


class TestIngest:
    def test_three_rows_synthesizes_study_meta(self):
        d = ingest_csv(CSV_BAKER)
        assert len(d) == 3
        meta = d.study("A")
        assert meta.min_age == -0.6
        assert meta.max_age == 7.0
        assert meta.median_age == -0.2
        assert meta.n_observations == 3

    def test_singleton_zero(self):
        d = ingest_csv("study_id,x,y\nA,0,0\n")
        meta = d.study("A")
        assert meta.min_age == meta.max_age == meta.median_age == 0.0

    def test_row_order_preserved(self):
        d = ingest_csv(CSV_BAKER)
        assert d.xs.tolist() == [-0.6, 7.0, -0.2]

    def test_500_rows_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        rows = ["study_id,x,y"]
        per_study = {}
        for i in range(500):
            sid = f"s{i % 7}"
            x = float(np.round(rng.uniform(-1.0, 60.0), 6))
            rows.append(f"{sid},{x},{rng.uniform(0, 10):.6f}")
            per_study.setdefault(sid, []).append(x)
        d = ingest_csv("\n".join(rows) + "\n")
        for sid, ages in per_study.items():
            ages = sorted(ages)
            n = len(ages)
            med = ages[n // 2] if n % 2 else 0.5 * (ages[n // 2 - 1] + ages[n // 2])
            meta = d.study(sid)
            assert meta.min_age == ages[0]
            assert meta.max_age == ages[-1]
            assert meta.median_age == pytest.approx(med)

    def test_missing_column(self):
        with pytest.raises(IngestError, match="missing required column"):
            ingest_csv("study_id,x\nA,1\n")

    def test_bad_rows_abort_with_row_numbers(self):
        csv_text = "study_id,x,y\nA,1,5\nA,nope,5\nA,2,-3\n"
        with pytest.raises(IngestError) as exc:
            ingest_csv(csv_text)
        assert "row 3" in str(exc.value)
        assert "row 4" in str(exc.value)

    def test_skip_bad_rows_opt_in(self):
        csv_text = "study_id,x,y\nA,1,5\nA,nope,5\nA,2,3\n"
        d = ingest_csv(csv_text, skip_bad_rows=True)
        assert len(d) == 2

    def test_age_floor(self):
        with pytest.raises(IngestError):
            ingest_csv("study_id,x,y\nA,-2.0,5\n")

    def test_empty_file(self):
        with pytest.raises(IngestError):
            ingest_csv("")
        with pytest.raises(IngestError):
            ingest_csv("study_id,x,y\n")

    def test_schema_mapping(self):
        d = ingest_csv("ref,age,count\nA,5,10\n",
                       schema={"study_id": "ref", "x": "age", "y": "count"})
        assert d.xs.tolist() == [5.0]

    def test_round_trip_fixed_point(self):
        csv_text = ("study_id,x,y,unit,assay_id,weight\n"
                    "A,-0.6,100.5,ng/ml,k1,1.0\nB,7.0,3.25,,,2.5\n")
        d1 = ingest_csv(csv_text)
        buf = io.StringIO()
        write_csv(d1, buf)
        d2 = ingest_csv(buf.getvalue())
        assert rows(d1) == rows(d2)
        buf2 = io.StringIO()
        write_csv(d2, buf2)
        assert buf.getvalue() == buf2.getvalue()


@pytest.fixture
def reader_calls(monkeypatch):
    """The texts csv.reader is handed while the test runs."""
    calls = []
    real = csv.reader

    def spy(lines, *args, **kwargs):
        calls.append(lines)
        return real(lines, *args, **kwargs)

    monkeypatch.setattr(csv, "reader", spy)
    return calls


class TestReadPaths:
    """Plain text is split without csv.reader; quoted text goes through it."""

    def test_synth_replicate_never_calls_csv_reader(self, reader_calls):
        rows = [SummaryRow(x=x, n=3000, mean=50.0 + x, sd=5.0, family=f)
                for x, f in ((-0.5, "normal"), (3.0, "lognormal"), (20.0, "normal"))]
        d = reconstruct_dataset(rows, seed=3)
        buf = io.StringIO()
        write_csv(d, buf)
        again = ingest_csv(io.StringIO(buf.getvalue()), label=d.label)
        assert reader_calls == []
        assert again == d
        for col in ("xs", "ys", "weights"):
            assert getattr(again, col).tobytes() == getattr(d, col).tobytes()

    def test_quoted_table_calls_csv_reader(self, reader_calls):
        d = ingest_csv('study_id,x,y\n"Lee, 2004",1,2\n')
        assert len(reader_calls) == 1
        assert d.study_ids == ["Lee, 2004"]

    @pytest.mark.parametrize("skip_bad_rows", [False, True])
    def test_ragged_rows_of_whole_total_width_match_reference(self, skip_bad_rows):
        # 4 + 2 cells are two rows' worth: split as one, they would read as
        # rows (A, 1, 2) and (the line end, 4, 5).
        text = "study_id,x,y\nA,1,2,3\n4,5\n"

        def outcome(ingest):
            try:
                return ingest(text, skip_bad_rows=skip_bad_rows)
            except IngestError as exc:
                return str(exc)

        assert outcome(ingest_csv) == outcome(reference_ingest.ingest_csv)

    def test_labels_first_seen_in_later_chunks_match_reference(self, reader_calls):
        # 10,000 rows span several chunks; labels, units and assays first
        # appear in different chunks, and some weights are empty.
        lines = ["weight,x,study_id,y,assay_id,unit"]
        for i in range(10_000):
            lines.append(f"{'' if i % 7 else 0.5 + i % 3},{i % 120 / 2 - 1},"
                         f"s{i // 3000},{i * 0.37},{'' if i % 5 else f'k{i // 4500}'},"
                         f"{'ng/ml' if i > 6000 and i % 2 else ''}")
        whole = "\n".join(lines) + "\n"
        lines[8601] = "1.5,2,s9"  # the third chunk: a short row, a bad age
        lines[9001] = "0.5,abc,s9,2.0,,"
        broken = "\n".join(lines) + "\n"

        def outcome(ingest, text, skip_bad_rows):
            try:
                return ingest(io.StringIO(text), skip_bad_rows=skip_bad_rows, label="t")
            except IngestError as exc:
                return str(exc)

        for text, skip_bad_rows, n in ((whole, False, 10_000), (broken, False, None),
                                       (broken, True, 9_998)):
            got = outcome(ingest_csv, text, skip_bad_rows)
            assert reader_calls == []
            want = outcome(reference_ingest.ingest_csv, text, skip_bad_rows)
            reader_calls.clear()  # the reference reads through csv.reader
            if n is None:
                assert got == want == (
                    "rejected rows:\n"
                    "  row 8602: could not convert string to float: ''\n"
                    "  row 9002: could not convert string to float: 'abc'")
                continue
            for col in ("xs", "ys", "weights"):
                assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
            for col in ("study_ids", "units", "assay_ids"):
                assert getattr(got, col) == getattr(want, col)
            assert got == want
            assert len(got) == n

    def test_write_ingest_write_round_trip_with_quoted_labels(self, reader_calls):
        d = Dataset.from_points(
            [-0.5, 1.0, 1.0], [2.0, 0.25, 3.0],
            study=['Lee, "2004"', "B", 'Lee, "2004"'],
            unit=['ng/ml, "dry"', "", 'ng/ml, "dry"'], assay=[None, 'k"1', None])
        first = io.StringIO()
        write_csv(d, first)
        again = ingest_csv(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_csv(again, second)
        assert reader_calls  # quoted labels take the csv.reader path
        assert second.getvalue() == first.getvalue()
        for col in ("study_ids", "units", "assay_ids"):
            assert getattr(again, col) == getattr(d, col)
        assert again == d

    def test_label_holding_cr_is_quoted_and_reads_back(self):
        d = ingest_csv('study_id,x,y,unit,assay_id,weight\n"s\rt",1.0,2.0,count,,1.0\n')
        assert d.study_ids == ["s\rt"]
        buf = io.StringIO()
        write_csv(d, buf)
        assert buf.getvalue() == ('study_id,x,y,unit,assay_id,weight\n'
                                  '"s\rt",1.0,2.0,count,,1.0\n')
        assert ingest_csv(buf.getvalue()) == d


HEADER = "study_id,x,y,unit,assay_id,weight"


def _point_lines(n: int) -> list[str]:
    """A header and n plain data rows: studies, ages, units, assays and
    weights repeat, and some weights are empty; every y is its own."""
    return [HEADER] + [f"s{i % 3},{i % 120 / 2 - 1},{i * 0.37},"
                       f"{'ng/ml' if i % 2 else ''},{'k1' if i % 5 == 0 else ''},"
                       f"{'' if i % 7 else 0.5}" for i in range(n)]


def _ingested(ingest, source, **kw):
    """The dataset ingest reads from source, or its IngestError's text."""
    try:
        return ingest(source, label="t", **kw)
    except IngestError as exc:
        return str(exc)


def _assert_same(got, want) -> None:
    """got is want: the same error text, or the same columns bit for bit and
    the same label codes and tables (so no dropped row's label has a code)."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for col in ("xs", "ys", "weights"):
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
    for col in ("_study", "_unit", "_assay"):
        assert getattr(got, col).table == getattr(want, col).table
        assert getattr(got, col).codes.tobytes() == getattr(want, col).codes.tobytes()
    assert got == want


class TestParts:
    """A source is read one part at a time: its first 4,096 lines (the
    header and rows 2 to 4,096 when no line is blank), then blocks of as
    many characters. Whatever falls on a part's edge reads as the
    row-at-a-time reference reads it, and csv.reader is called at most once
    per read."""

    @staticmethod
    def check(lines, reader_calls, skip_bad_rows=False, end="\n"):
        """The text of lines read from a file and as a str, each against
        the reference."""
        text = "\n".join(lines) + end
        want = _ingested(reference_ingest.ingest_csv, io.StringIO(text),
                         skip_bad_rows=skip_bad_rows)
        for source in (io.StringIO(text), text):
            reader_calls.clear()  # the reference reads through csv.reader
            got = _ingested(ingest_csv, source, skip_bad_rows=skip_bad_rows)
            assert len(reader_calls) <= 1
            _assert_same(got, want)
        return got

    @pytest.mark.parametrize("skip_bad_rows", [False, True])
    def test_quoted_label_straddling_row_4096(self, reader_calls, skip_bad_rows):
        lines = _point_lines(9_000)
        lines[4095] = 's1,2.0,3.0,"two'  # row 4,096 starts on line 4,096, the
        lines[4096] = 'lines",k2,1.5'      # first part's last, and ends on 4,097
        lines[6001] = "s2,abc,1,,,"        # line 6,002 is row 6,001
        got = self.check(lines, reader_calls, skip_bad_rows)
        if skip_bad_rows:
            assert len(got) == 8_998
            assert got.units[4094] == "two\nlines"
        else:
            assert got == ("rejected rows:\n"
                           "  row 6001: could not convert string to float: 'abc'")

    @pytest.mark.parametrize("line", [
        's9,1.0,2.0,"Lee, 2004",,1.0',                   # a quote
        "s9,1.0,2.0,,,1.0\r",                            # a CRLF line end
        f"{'n' * 70_000},1.0,2.0,{'u' * 70_000},,1.0",   # a line over the limit
    ], ids=["quote", "crlf", "long_line"])
    @pytest.mark.parametrize("skip_bad_rows", [False, True])
    def test_first_line_csv_must_read_in_a_later_part(self, reader_calls, line,
                                                      skip_bad_rows):
        lines = _point_lines(12_000)
        lines[9_000] = line
        lines[11] = "s1,1.0,-2.0,,,"  # a bad row in the first, plain part
        for i in range(9_001, 12_001, 2):  # and bad rows read by csv.reader
            lines[i] = lines[i].replace(",", ",x", 1)
        got = self.check(lines, reader_calls, skip_bad_rows)
        if skip_bad_rows:
            assert len(got) == 12_000 - 1501
        else:
            assert got.startswith("rejected rows:\n  row 12: value -2.0 must be")
            assert got.count("\n") == 1501

    @pytest.mark.parametrize("skip_bad_rows", [False, True])
    def test_bad_rows_in_several_parts(self, reader_calls, skip_bad_rows):
        lines = _point_lines(14_000)
        lines[100] = "s1,abc,1,,,"
        lines[5_000] = "dropped,1,2,mm3,k9,0"  # labels seen on no other row
        lines[5_001] = "late,1,2,cm,,"          # first seen after a dropped row
        lines[9_500] = "s2,-1.5,1,,,"
        lines[13_999] = "s0,1,-0.5,,,"
        got = self.check(lines, reader_calls, skip_bad_rows)
        if skip_bad_rows:
            assert len(got) == 13_996
            assert got._study.table == ("s0", "s1", "s2", "late")
            assert got._unit.table == ("", "ng/ml", "cm")
            assert got._assay.table == ("k1", None)
        else:
            assert got == (
                "rejected rows:\n"
                "  row 101: could not convert string to float: 'abc'\n"
                "  row 5001: weight 0.0 must be > 0\n"
                "  row 9501: age -1.5 must be finite and >= -1.0\n"
                "  row 14000: value -0.5 must be finite and >= 0")

    @pytest.mark.parametrize("quote", [False, True])
    def test_blank_lines_at_part_edges(self, reader_calls, quote):
        lines = _point_lines(10_000)
        for i in (1, 4_094, 4_095, 4_096, 4_097, *range(8_180, 8_200), 9_999):
            lines[i] = ""
        if quote:
            lines[7_000] = 's1,1.0,2.0,"quoted",,'
        lines[9_000] = "s1,nope,1,,,"
        got = self.check(lines + ["", ""], reader_calls)
        assert got.endswith("row 8976: could not convert string to float: 'nope'")
        assert len(self.check(lines + ["", ""], reader_calls, skip_bad_rows=True)) == 9_973

    @pytest.mark.parametrize("n", [4_094, 4_095, 4_096, 9_000])
    @pytest.mark.parametrize("last", ["s1,1.0,2.0,,,", 's1,1.0,2.0,"q",,'])
    def test_no_final_newline(self, reader_calls, n, last):
        lines = _point_lines(n)
        lines[-1] = last
        got = self.check(lines, reader_calls, end="")
        assert len(got) == n
        assert got.study_ids[-1] in ("s1", "q")

    def test_crlf_line_ends_read_without_csv_reader(self, reader_calls):
        lines = _point_lines(9_000)
        got = _ingested(ingest_csv, "\r\n".join(lines) + "\r\n")
        assert reader_calls == []
        _assert_same(got, reference_ingest.ingest_csv(
            io.StringIO("\n".join(lines) + "\n"), label="t"))

    def test_str_stringio_and_file_read_alike(self, tmp_path, reader_calls):
        lines = _point_lines(9_000)
        lines[6_000] = 's1,1.0,2.0,"a\rb",,1.0\r'  # a quoted \r, a CRLF end
        lines[8_000] = 's2,1.0,2.0,"two\r\nlines",,'
        text = "\n".join(lines) + "\n"
        path = tmp_path / "points.csv"
        path.write_text(text, encoding="utf-8", newline="")
        want = reference_ingest.ingest_csv(io.StringIO(text), label="t")
        with open(path, encoding="utf-8", newline="") as fh:
            _assert_same(reference_ingest.ingest_csv(fh, label="t"), want)
        reader_calls.clear()
        for source in (text, io.StringIO(text), "file"):
            if source == "file":
                with open(path, encoding="utf-8", newline="") as fh:
                    got = ingest_csv(fh, label="t")
            else:
                got = ingest_csv(source, label="t")
            assert len(reader_calls) == 1
            reader_calls.clear()
            _assert_same(got, want)
        assert got.units[5_999] == "a\rb"
        assert got.units[7_999] == "two\r\nlines"

    def test_csv_error_in_a_later_part_raises_ahead_of_bad_rows(self):
        lines = _point_lines(9_000)
        lines[10] = "s1,abc,1,,,"
        lines[8_999] = f"{'B' * 200_000},1.0,2.0,,,"
        with pytest.raises(IngestError) as exc:
            ingest_csv("\n".join(lines) + "\n")
        assert str(exc.value) == "row 9000: field larger than field limit (131072)"

    @staticmethod
    def _points(n=120_000):
        rng = np.random.default_rng(5)
        return Dataset.from_points(rng.integers(-2, 110, n) / 2, rng.lognormal(8, 1, n),
                                   study=[f"s{i % 8}" for i in range(n)])

    @staticmethod
    def _peak_past_columns(d, source):
        """The traced peak of reading d back from source, less its finished
        columns. It stays below one copy of the text: a read that holds the
        text (or its lines) whole exceeds it."""
        tracemalloc.start()
        try:
            again = ingest_csv(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == d
        return peak - len(d) * (3 * 8 + 3 * np.dtype(np.intp).itemsize)

    def test_a_file_is_read_without_a_whole_copy_of_its_text(self, tmp_path):
        d = self._points()
        path = tmp_path / "points.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_csv(d, fh)
        with open(path, encoding="utf-8", newline="") as fh:
            # ASCII: a byte a character
            assert self._peak_past_columns(d, fh) < path.stat().st_size

    def test_a_str_is_read_without_a_copy_of_it(self):
        d = self._points()
        buf = io.StringIO()
        write_csv(d, buf)
        text = buf.getvalue()
        del buf
        assert self._peak_past_columns(d, text) < len(text)


class TestUnits:
    def test_synonym_label(self):
        t = UnitTable({"ng/ml": ("µg/l", 1.0)})
        d = make_dataset([1.0], [3.5], unit="ng/ml")
        out = normalize_units(d, t)
        assert out.units == ["µg/l"]
        assert out.ys.tolist() == [3.5]

    def test_already_canonical_identity(self):
        t = UnitTable({"µg/l": ("µg/l", 1.0)})
        d = make_dataset([1.0, 2.0], [3.5, 4.5], unit="µg/l")
        assert normalize_units(d, t) == d

    def test_factor_arithmetic(self):
        t = UnitTable({"mm3": ("ml", 0.001)})
        d = make_dataset([1.0], [2000.0], unit="mm3")
        assert normalize_units(d, t).ys[0] == pytest.approx(2.0)

    def test_unknown_unit_names_label(self):
        t = UnitTable({})
        d = make_dataset([1.0], [1.0], unit="cubits")
        with pytest.raises(UnknownUnitError, match="cubits"):
            normalize_units(d, t)

    def test_ages_untouched(self):
        t = UnitTable({"mm3": ("ml", 0.001)})
        d = make_dataset([1.0, 5.0, 9.0], [10.0, 20.0, 30.0], unit="mm3")
        assert describe(normalize_units(d, t), axis="x") == describe(d, axis="x")

    def test_config_file_parse(self):
        t = read_unit_table("# units\nng/ml = µg/l,1.0\nmm3 = ml,0.001\nMIS = AMH\n")
        assert t.resolve("ng/ml") == ("µg/l", 1.0)
        assert t.resolve("mm3") == ("ml", 0.001)
        assert t.resolve("MIS") == ("AMH", 1.0)
        # canonical labels resolve to themselves
        assert t.resolve("ml") == ("ml", 1.0)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            UnitTable({"a": ("b", -1.0)})

    @pytest.mark.parametrize("text, target, final", [
        ("a = b,2\nb = c,3\n", "b", "c"),   # chain
        ("a = b\nb = a\n", "b", "a"),       # cycle
    ])
    def test_alias_of_an_alias_rejected(self, text, target, final):
        with pytest.raises(ValueError, match=f"^unit alias 'a' maps to '{target}', "
                           f"which is itself an alias of '{final}'$"):
            read_unit_table(text)

    @given(st.dictionaries(st.sampled_from("abcd"),
                           st.tuples(st.sampled_from("abcd"),
                                     st.sampled_from([0.5, 1.0, 3.0, 1000.0])),
                           min_size=1, max_size=4),
           st.lists(st.integers(0, 7), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_normalizing_twice_equals_once(self, entries, picks):
        try:
            t = UnitTable(entries)
        except ValueError:   # only a self-map with a factor, or a chain
            assert any((c == a and f != 1.0) or (c != a and c in entries
                                                 and entries[c][0] != c)
                       for a, (c, f) in entries.items())
            return
        labels = sorted(t.entries)
        units = [labels[i % len(labels)] for i in picks]
        d = Dataset.from_points(np.arange(len(units), dtype=float),
                                np.linspace(1.0, 2.0, len(units)),
                                study="s", unit=units)
        once = normalize_units(d, t)
        assert normalize_units(once, t) == once

    def test_non_numeric_factor_names_its_line(self):
        with pytest.raises(ValueError, match=r"^unit table line 3: could not "
                           r"convert string to float: 'abc'$"):
            read_unit_table("# units\nng/ml = µg/l\nmega = count,abc\n")

    def test_line_without_equals_names_its_line(self):
        with pytest.raises(ValueError, match=r"^unit table line 2: expected "
                           r"'alias = canonical,factor'$"):
            read_unit_table("# units\nng/ml µg/l\n")


class TestMerge:
    def test_identity_element(self):
        d = make_dataset([1.0, 2.0], [3.0, 4.0])
        empty = Dataset.from_points([], [], studies=(), label="")
        assert rows(merge([d, empty])) == rows(d)

    def test_table_counts_sum_to_325(self):
        counts = [11, 11, 15, 19, 122, 86, 52, 9]
        parts = [
            make_dataset(np.linspace(0, 50, c), np.ones(c), study_id=f"s{i}")
            for i, c in enumerate(counts)
        ]
        assert len(merge(parts)) == 325

    def test_partition_recombine_oracle(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.uniform(0, 50, 200), rng.uniform(0, 9, 200))
        labels = rng.integers(0, 3, 200)
        parts = []
        for g in range(3):
            keep = labels == g
            parts.append(Dataset.from_points(d.xs[keep], d.ys[keep], study="s",
                                             studies=d.studies))
        back = merge(parts)
        for axis in ("x", "y"):
            assert describe(back, axis) == describe(d, axis)

    def test_conflicting_metadata(self):
        a = Dataset.from_points([], [], studies=(StudyMeta("s", year=1999),))
        b = Dataset.from_points([], [], studies=(StudyMeta("s", year=2000),))
        with pytest.raises(ValueError, match="conflicting"):
            merge([a, b])

    @given(st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_merge_order_invariance(self, order):
        rng = np.random.default_rng(11)
        parts = [
            make_dataset(rng.uniform(0, 9, 5), rng.uniform(0, 9, 5),
                         study_id=f"s{i}")
            for i in range(4)
        ]
        base = describe(merge(parts), "y")
        assert describe(merge([parts[i] for i in order]), "y") == base


class TestDescribe:
    def test_overall_row_ages(self):
        d = make_dataset([-0.6, 32.0, 51.0], [1.0, 2.0, 3.0])
        desc = describe(d, axis="x")
        assert desc.min == -0.6
        assert desc.max == 51.0
        assert desc.median == 32.0

    def test_singleton(self):
        d = make_dataset([5.0], [7.0])
        desc = describe(d, axis="y")
        assert desc.min == desc.max == desc.median == desc.mean == 7.0
        assert desc.sd == 0.0

    @pytest.mark.parametrize("median", [_median, reference_ingest._median],
                             ids=["program", "reference"])
    def test_median_of_values_near_the_largest_float(self, median):
        # the sum of the middle two overflows; halving each first does not
        big = 8.98846567431158e+307
        assert median([big, big]) == big
        assert median(np.array([1.5e308, 1.7e308])) == 0.5 * 1.5e308 + 0.5 * 1.7e308
        assert median([-1.7e308, 1.7e308]) == 0.0
        assert median([0.1, 0.2]) == 0.5 * (0.1 + 0.2)  # a finite sum keeps its bits

    @pytest.mark.parametrize("ys, mean, sd", [
        # np.std squares the deviations 5e159
        ([1e160, 0.0], 5e159, math.sqrt(0.5) * 1e160),
        # np.mean sums two values near the largest float
        ([8.98846567431158e+307] * 2, 8.98846567431158e+307, 0.0),
        ([1.7976931348623157e308, 0.0], 0.5 * 1.7976931348623157e308,
         math.sqrt(0.5) * 1.7976931348623157e308),
    ])
    def test_moments_of_values_whose_sums_overflow(self, ys, mean, sd):
        # RuntimeWarning is an error here, so no overflow escapes either
        desc = describe(make_dataset(np.arange(len(ys)), ys), axis="y")
        assert desc.mean == pytest.approx(mean, rel=1e-15)
        assert desc.sd == pytest.approx(sd, rel=1e-15)

    def test_moments_scaled_back_equal_the_unscaled_bits(self):
        # what describe computes where it must scale is what numpy gives
        # for the same values at a smaller exponent, where nothing overflows
        ys = np.random.default_rng(3).uniform(0, 1, 101)
        small = describe(make_dataset(np.arange(101), ys), axis="y")
        big = describe(make_dataset(np.arange(101), np.ldexp(ys, 1023)), axis="y")
        with np.errstate(over="ignore"):  # these sums overflow
            assert math.isinf(np.sum(np.ldexp(ys, 1023)))
        assert (big.mean, big.sd) == (math.ldexp(small.mean, 1023),
                                      math.ldexp(small.sd, 1023))

    def test_even_count_median_is_midpoint_mean(self):
        d = make_dataset([0, 1, 2, 3], [1.0, 2.0, 10.0, 20.0])
        assert describe(d, axis="y").median == pytest.approx(6.0)

    def test_streaming_oracle(self):
        rng = np.random.default_rng(5)
        ys = rng.uniform(0, 100, 1000)
        d = make_dataset(np.arange(1000.0), ys)
        desc = describe(d, axis="y")
        # independent second pass
        n = len(ys)
        mean = sum(ys) / n
        var = sum((v - mean) ** 2 for v in ys) / (n - 1)
        assert desc.mean == pytest.approx(mean, rel=1e-12)
        assert desc.sd == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            describe(Dataset.from_points([], [], studies=()), "y")

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="axis must be 'x' or 'y', got 'z'"):
            describe(make_dataset([1.0], [2.0]), "z")

    @pytest.mark.parametrize("kw, message", [
        (dict(count=0, min=1.0, max=1.0, median=1.0), "count must be >= 1"),
        (dict(min=1.0, max=2.0, median=3.0), "require min <= median <= max"),
        (dict(min=1.0, max=2.0, median=1.5, sd=-1.0), "sd must be >= 0"),
    ])
    def test_descriptives_rules(self, kw, message):
        with pytest.raises(ValueError, match=message):
            Descriptives(**{"count": 2, "mean": 1.5, "sd": 0.5, **kw})


class TestSplitByAssay:
    def test_basic_partition(self):
        d = Dataset.from_points([1, 2, 3], [1, 2, 3], study="s",
                                assay=["A", "A", "B"])
        out = split_by_assay(d)
        assert {k: len(v) for k, v in out.items()} == {"A": 2, "B": 1}

    def test_single_assay_identity(self):
        d = make_dataset([1, 2, 3], [1, 2, 3], assay="A")
        out = split_by_assay(d)
        assert list(out) == ["A"]
        assert rows(out["A"]) == rows(d)

    def test_missing_assay_lists_studies(self):
        d = Dataset.from_points([1, 2], [1, 2], study=["good", "bad"],
                                assay=["A", None])
        with pytest.raises(ValueError, match="bad"):
            split_by_assay(d)

    @pytest.mark.parametrize("label, want", [("", "A"), ("cohort", "cohort/A")])
    def test_parts_are_labelled_by_assay(self, label, want):
        d = Dataset.from_points([1, 2], [1, 2], assay="A", label=label)
        assert split_by_assay(d)["A"].label == want

    def test_merge_back_oracle(self):
        rng = np.random.default_rng(9)
        xs, ys = rng.uniform(0, 9, 100), rng.uniform(0, 9, 100)
        assay = [rng.choice(["A", "B", "C"]) for _ in range(100)]
        d = Dataset.from_points(xs, ys, study="s", assay=assay)
        parts = split_by_assay(d)
        assert sum(len(v) for v in parts.values()) == len(d)
        back = merge(list(parts.values()))
        assert sorted(rows(back), key=lambda p: (p.x, p.y)) == \
            sorted(rows(d), key=lambda p: (p.x, p.y))


class TestInvariants:
    @pytest.mark.parametrize("change, message", [
        (dict(x=[-1.5]), "age -1.5 must be finite and >= -1.0"),
        (dict(y=[-0.1]), "value -0.1 must be finite and >= 0"),
        (dict(y=[float("nan")]), "value nan must be finite and >= 0"),
        (dict(weight=0.0), "weight 0.0 must be > 0"),
        (dict(study="ghost", studies=()), "point references unknown study 'ghost'"),
    ], ids=["age", "negative_y", "nan_y", "zero_weight", "unknown_study"])
    def test_row_rules(self, change, message):
        kw = {"x": [1.0], "y": [1.0], "study": "s", **change}
        with pytest.raises(ValueError) as exc:
            Dataset.from_points(kw.pop("x"), kw.pop("y"), **kw)
        assert str(exc.value) == message

    def test_attributes_cannot_be_set(self):
        d = make_dataset([1.0], [2.0])
        with pytest.raises(AttributeError, match="Dataset is immutable: "
                           "cannot set 'label'"):
            d.label = "other"

    @pytest.mark.parametrize("kw, message", [
        (dict(n_observations=0), "n_observations must be >= 1"),
        (dict(min_age=1.0, median_age=0.5, max_age=2.0),
         "study s: require min_age <= median_age <= max_age"),
    ])
    def test_study_meta_rules(self, kw, message):
        with pytest.raises(ValueError, match=message):
            StudyMeta("s", **kw)

    def test_columns_built_once_and_read_only(self):
        i = np.arange(5.0)
        d = Dataset.from_points(i, 2.0 * i, study="s", weight=1.0 + i)
        for name, want in (("xs", [0, 1, 2, 3, 4]), ("ys", [0, 2, 4, 6, 8]),
                           ("weights", [1, 2, 3, 4, 5])):
            col = getattr(d, name)
            assert getattr(d, name) is col
            with pytest.raises(ValueError):
                col[0] = 99.0
            with pytest.raises(ValueError):
                col += 1.0
            assert getattr(d, name).tolist() == want
        assert i.flags.writeable  # the dataset owns a copy
        assert d == Dataset.from_points(d.xs, d.ys, weight=d.weights,
                                        study=d.study_ids, unit=d.units,
                                        assay=d.assay_ids)


class TestFromPoints:
    @pytest.mark.parametrize("x, y, kw, message", [
        ([1.0, 2.0], [1.0], {}, "x, y and weight must be 1-D and of one length, "
                                "got shapes (2,), (1,) and (2,)"),
        ([1.0, 2.0], [1.0, 2.0], {"weight": [1.0]}, "got shapes (2,), (2,) and (1,)"),
        ([[1.0], [2.0]], [[1.0], [2.0]], {}, "must be 1-D"),
        ([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], {"study": ["a", "b"]},
         "study has 2 labels for 3 rows"),
        ([1.0], [1.0], {"assay": ["A", "B"]}, "assay has 2 labels for 1 rows"),
    ], ids=["y_length", "weight_length", "2d_x", "study_labels", "assay_labels"])
    def test_malformed_columns_named(self, x, y, kw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Dataset.from_points(x, y, **kw)

    def test_scalar_labels_apply_to_every_row(self):
        d = Dataset.from_points([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], weight=2.0,
                                study="s", unit="ml", assay="A")
        assert (d.study_ids, d.units, d.assay_ids) == (["s"] * 3, ["ml"] * 3, ["A"] * 3)
        assert d.weights.tolist() == [2.0] * 3
        d = Dataset.from_points([1.0, 2.0], [4.0, 5.0])
        assert (d.study_ids, d.units, d.assay_ids) == ([""] * 2, [""] * 2, [None] * 2)

    def test_studies_sorted_by_id(self):
        studies = (StudyMeta("b"), StudyMeta("a"))
        d = Dataset.from_points([], [], studies=studies)
        assert [s.study_id for s in d.studies] == ["a", "b"]

    def test_equality_by_value(self):
        assert Dataset.from_points([0.0, 1.0], [0.0, 2.0]) \
            == Dataset.from_points([-0.0, 1.0], [-0.0, 2.0])
        assert Dataset.from_points([0.0], [1.0], unit="ml") \
            != Dataset.from_points([0.0], [1.0], unit="l")
        assert Dataset.from_points([0.0], [1.0]) != Dataset.from_points([0.0], [1.0], label="t")

    def test_equality_ignores_label_tables(self):
        d = Dataset.from_points([1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                                study=["a", "b", "a"], assay=["A", "B", "A"])
        part = split_by_assay(d)["A"]  # keeps d's label tables, "b" and "B" unused
        direct = Dataset.from_points([1.0, 3.0], [4.0, 6.0], study="a", assay="A",
                                     label="A")
        assert part == direct
        assert merge([part], label="A") == part  # merge drops the unused labels
        back = merge(list(split_by_assay(d).values()))
        assert back == Dataset.from_points([1.0, 3.0, 2.0], [4.0, 6.0, 5.0],
                                           study=["a", "a", "b"], assay=["A", "A", "B"])
