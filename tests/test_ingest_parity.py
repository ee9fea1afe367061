"""The column-store dataset layer against the row-at-a-time reference, on
generated point tables: ingest gives the same columns, labels and studies
bit for bit, or the same IngestError text; write -> ingest -> write is
byte-stable; describe, normalize_units and split agree with the reference.
write_csv writes what csv.writer writes, and what it writes reads back,
alike with and without skip_bad_rows. A read of the cache entry
write_points stores gives what a fresh parse gives."""

import csv
import hashlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import reference_ingest
from curvemine import dataset
from curvemine.dataset import (
    Dataset,
    IngestError,
    UnitTable,
    UnknownUnitError,
    describe,
    ingest_cached,
    ingest_csv,
    normalize_units,
    write_csv,
)
from curvemine.validate import split

LOGICAL = ("study_id", "x", "y", "unit", "assay_id", "weight")
REMAP = {"study_id": "ref", "x": "age", "y": "count", "unit": "u",
         "assay_id": "kit", "weight": "w"}

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-3.0, 80.0).map(repr),
    st.integers(-5, 100).map(str),
    st.sampled_from(["", " 1.5", "2.5 ", " 7 ", "1_0", "1__0", "nope", "-2",
                     "-1", "-1.0000001", "0", "-0", "-0.0", "nan", "inf",
                     "-inf", "1e400", "0x10", "0.5", "-0.5", "1e-320"]),
)
# Numbers every row rule accepts, so that some tables read whole.
good_numbers = st.one_of(
    st.floats(0.001, 80.0).map(repr),
    st.sampled_from(["1", "2.5", " 7 ", "1_0", "0.5", "1e-320"]),
)
LABELS = ("", "A", "B", "s1", " A", "ng/ml", "k1", "nope")
labels = st.sampled_from(LABELS)
# Labels csv.writer quotes (a comma, a doubled quote, an embedded newline),
# written quoted.
QUOTED = ("a,b", 'say "hi"', "two\nlines")
quoted_labels = st.sampled_from(['"' + q.replace('"', '""') + '"' for q in QUOTED])


@st.composite
def point_tables(draw):
    """CSV text plus the schema that reads it."""
    cols = [c for c in LOGICAL
            if c in ("study_id", "x", "y") or draw(st.booleans())]
    cols += draw(st.lists(st.sampled_from(["note", "x", "unit", "weight"]),
                          max_size=2))  # extra and repeated names
    cols = draw(st.permutations(cols))
    if draw(st.integers(0, 30)) == 0:
        cols = cols[1:]  # a required column may go missing
    remap = draw(st.booleans())
    header = [REMAP.get(c, c) if remap else c for c in cols]
    lines = [""] if draw(st.integers(0, 30)) == 0 else []
    number_cells = good_numbers if draw(st.integers(0, 3)) == 0 else numbers
    label_cells = labels | quoted_labels if draw(st.integers(0, 3)) == 0 else labels
    lines.append(",".join(header))
    for _ in range(draw(st.integers(0, 10))):
        cells = [draw(label_cells if c in ("study_id", "unit", "assay_id", "note")
                      else number_cells) for c in cols]
        cut = draw(st.integers(0, 4))
        if cut == 1:     # short row
            cells = cells[:draw(st.integers(1, len(cells)))]
        elif cut == 2:   # long row
            cells += draw(st.lists(number_cells | label_cells, min_size=1, max_size=2))
        if draw(st.integers(0, 40)) == 0:  # a line over csv.field_size_limit()
            cells += ["n" * 70_000] * 2
        lines.append(",".join(cells))
        if draw(st.integers(0, 6)) == 0:
            lines.append("")  # blank line
    schema = dict(REMAP) if remap else None
    eol = "\r\n" if draw(st.integers(0, 4)) == 0 else "\n"
    return eol.join(lines) + eol, schema


# One table resolves some labels, with factors that cannot overflow; the
# other resolves every label, and its factor for "" can overflow. (Labels
# resolve before any value is scaled, so when one table does both, the
# unknown label is named even if an earlier row overflows.)
UNIT_TABLES = (UnitTable({"ng/ml": ("µg/l", 0.001), "A": ("B", 1.0), "": ("count", 0.5)}),
               UnitTable({u: ("count", 1e300 if u == "" else 1.0) for u in LABELS + QUOTED}))


def _outcome(call, *args, **kw):
    try:
        return call(*args, **kw)
    except (IngestError, UnknownUnitError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _rows(outcome) -> str:
    """A dataset's rows, repr'd so the sign of a zero counts, or an error's text."""
    return outcome if isinstance(outcome, str) else repr(reference_ingest.rows(outcome))


def _written(d) -> str:
    buf = io.StringIO()
    write_csv(d, buf)
    return buf.getvalue()


# The fourth row's y overflows under the second unit table and the fifth
# row's unit (the last of its repeated "unit" columns) is in neither table:
# both sides name the unknown label.
UNKNOWN_AFTER_OVERFLOW = ("study_id,x,y,unit,unit\n" + "s,1,1,A,A\n" * 3
                          + "s,1,1.8e8,,\n" + "s,1,1,A," + "n" * 70_000 + "\n")


@given(point_tables(), st.booleans())
@example((UNKNOWN_AFTER_OVERFLOW, None), False)
@settings(max_examples=400, deadline=None)
def test_ingest_matches_row_reference(table, skip_bad_rows):
    text, schema = table
    kw = dict(schema=schema, skip_bad_rows=skip_bad_rows, label="t")
    want = _outcome(reference_ingest.ingest_csv, io.StringIO(text), **kw)
    got = _outcome(ingest_csv, io.StringIO(text), **kw)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for col in ("xs", "ys", "weights"):  # bit for bit: also the sign of a zero
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes()
    for col in ("study_ids", "units", "assay_ids"):
        assert repr(getattr(got, col)) == repr(getattr(want, col))
    assert repr(got.studies) == repr(want.studies)
    assert got == want

    text2 = _written(got)
    buf = io.StringIO()
    reference_ingest.write_csv(want, buf)
    assert text2 == buf.getvalue()
    again = ingest_csv(io.StringIO(text2), label="t")
    assert again == got
    assert _written(again) == text2

    for axis in ("x", "y"):
        assert repr(describe(got, axis)) == repr(reference_ingest.describe(want, axis))
    for units in UNIT_TABLES:
        normalized = _outcome(normalize_units, got, units)
        expected = _outcome(reference_ingest.normalize_units, want, units)
        assert _rows(normalized) == _rows(expected)
    if len(got) >= 4:
        for bins in (1, 3):
            parts = split(got, 0.5, seed=len(got), stratify_bins=bins)
            oracle = reference_ingest.split(want, 0.5, seed=len(got),
                                            stratify_bins=bins)
            for part, ref in zip(parts, oracle):
                assert _rows(part) == _rows(ref)
                assert (part.studies, part.label) == (ref.studies, ref.label)


# Labels for the writer: a comma, a quote and a newline need quoting, spaces,
# "%" and non-ASCII do not. csv.writer (Python 3.11, lineterminator "\n")
# leaves a "\r" unquoted, so labels holding one are checked for the round
# trip only.
WRITER_CHARS = ',"\n a%é中'
COLUMNS = ("study", "x", "y", "unit", "assay", "weight")
# Which columns hold one value on every row: none, each in turn, or all.
ONE_VALUE = [(), *((c,) for c in COLUMNS), COLUMNS]


@st.composite
def written_datasets(draw, cr: bool = False, one_value=None):
    """A dataset of no rows, one row, or more than one _CHUNK_ROWS part: a
    short pattern of (study, age, unit, assay, weight) rows, with at least
    two distinct weights and ages of 0.0 beside -0.0 now and then, repeated
    over the rows, and a y of its own on every row. Then the columns named
    by ``one_value`` (drawn from ONE_VALUE when None) hold their first row's
    value on every row."""
    text = st.text(alphabet=WRITER_CHARS + "\r" * cr, max_size=4)
    pattern = draw(st.lists(
        st.tuples(text, st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 80.0), text,
                  st.none() | text.filter(bool), st.floats(1e-3, 1e3)),
        min_size=2, max_size=12, unique_by=lambda row: row[4]))
    if cr:
        pattern[0] = (pattern[0][0] + "\r", *pattern[0][1:])
    if draw(st.integers(0, 3)):
        n = draw(st.integers(4096 + 1, 4096 + 5000))
    else:
        n = draw(st.sampled_from([0, 1]))
    rows = (pattern * (n // len(pattern) + 1))[:n]
    cols = {c: [row[i] for row in rows]
            for i, c in enumerate(("study", "x", "unit", "assay", "weight"))}
    cols["y"] = (draw(st.floats(0.0, 1e3)) + np.arange(n) / 7.0).tolist()
    for c in draw(st.sampled_from(ONE_VALUE)) if one_value is None else one_value:
        cols[c] = cols[c][:1] * n
    return Dataset.from_points(cols["x"], cols["y"], weight=cols["weight"],
                               study=cols["study"], unit=cols["unit"],
                               assay=cols["assay"])


def _read_back(d, text):
    again = ingest_csv(io.StringIO(text))
    for col in ("xs", "ys", "weights"):  # bit for bit: also the sign of a zero
        assert np.array_equal(getattr(again, col).view(np.int64),
                              getattr(d, col).view(np.int64)), col
    assert again == d


def _same_lines(got: str, want: str) -> None:
    """got == want, failing on the first line that differs: pytest's diff
    of two whole texts of this size would take minutes."""
    got, want = got.split("\n"), want.split("\n")
    for i, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"line {i}"
    assert len(got) == len(want)


# No explain phase: it traces every line run, which on 4k+ rows takes minutes.
WRITER_SETTINGS = settings(max_examples=25, deadline=None,
                           phases=set(Phase) - {Phase.explain})


def _matches_csv_writer(d):
    text = _written(d)
    buf = io.StringIO()
    reference_ingest.write_csv(d, buf)
    _same_lines(text, buf.getvalue())
    if len(d):  # no rows reads as an IngestError
        _read_back(d, text)


@given(written_datasets())
@WRITER_SETTINGS
def test_write_csv_matches_csv_writer(d):
    _matches_csv_writer(d)


@pytest.mark.parametrize("one_value", ONE_VALUE, ids=lambda cols: "+".join(cols) or "none")
@given(data=st.data())
@settings(WRITER_SETTINGS, max_examples=8)
def test_one_value_columns_match_csv_writer(one_value, data):
    """Each column in turn, and all of them, holding one value on every row:
    a column written once into the line template gives the same bytes."""
    _matches_csv_writer(data.draw(written_datasets(one_value=one_value)))


@given(written_datasets(cr=True))
@WRITER_SETTINGS
def test_labels_holding_cr_round_trip(d):
    if len(d):
        _read_back(d, _written(d))


def test_zero_beside_negative_zero_is_not_one_value():
    d = Dataset.from_points([0.0, -0.0, 0.0], [-0.0, 0.0, -0.0], weight=2.0)
    assert _written(d).splitlines()[1:] == [",0.0,-0.0,,,2.0", ",-0.0,0.0,,,2.0",
                                            ",0.0,-0.0,,,2.0"]
    _matches_csv_writer(d)


def test_label_one_value_per_part_but_not_per_file():
    """A label that is one value within each part of the read, but another
    from part to part, gets the codes and table the row reader gives."""
    n = 5000
    text = "study_id,x,y,unit,assay_id,weight\n" + "".join(
        f"{'a' if i < 4096 else 'b'},1.5,{i},u,,\n" for i in range(n))
    got, want = ingest_csv(text), reference_ingest.ingest_csv(text)
    assert got == want
    assert got._study.table == ("a", "b")
    assert got._study.codes.tolist() == [0] * 4096 + [1] * (n - 4096)
    assert got._unit.table == ("u",) and not got._unit.codes.any()


@pytest.mark.parametrize("column, cell", [("x", "nope"), ("x", "-2"),
                                          ("weight", "0"), ("y", "-1")])
def test_one_value_column_of_bad_cells_names_every_row(column, cell):
    """A bad cell on every row of a one-value column: every row is named,
    with the error text of the row reader."""
    rows = [{"study_id": "s", "x": "1.5", "y": "2.0", "weight": "1"} for _ in range(3)]
    for row in rows:
        row[column] = cell
    text = "study_id,x,y,weight\n" + "".join(
        f"{r['study_id']},{r['x']},{r['y']},{r['weight']}\n" for r in rows)
    want = _outcome(reference_ingest.ingest_csv, text)
    assert want.startswith("IngestError: rejected rows:")
    assert want.count("\n  row ") == 3
    assert _outcome(ingest_csv, text) == want


def _same_columns(got, want):
    """got == want, with x, y and weight bit for bit (0.0 beside -0.0) and
    labels, studies and label by repr."""
    for col in ("xs", "ys", "weights"):
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
    for col in ("study_ids", "units", "assay_ids", "studies", "label"):
        assert repr(getattr(got, col)) == repr(getattr(want, col)), col
    assert got == want


@given(written_datasets(cr=True))
@WRITER_SETTINGS
def test_written_text_reads_alike_with_and_without_skip_bad_rows(d):
    """What write_csv writes has no bad rows, so skip_bad_rows reads the
    same Dataset from it either way, and the cache key can leave it out."""
    if not len(d):  # no rows reads as an IngestError
        return
    text = _written(d)
    strict, skipping = (ingest_csv(io.StringIO(text), skip_bad_rows=skip, label="t")
                        for skip in (False, True))
    _same_columns(skipping, strict)
    for col in ("_study", "_unit", "_assay"):
        got, want = getattr(skipping, col), getattr(strict, col)
        assert np.array_equal(got.codes, want.codes) and got.table == want.table, col


@given(written_datasets(cr=True))
@WRITER_SETTINGS
def test_cache_hit_equals_a_fresh_parse(d):
    """Labels hold "%", ",", '"', "\r" and a newline, an assay may be
    empty, and ages hold 0.0 beside -0.0: the read that hits the entry
    write_points stored gives a fresh ingest_csv's dataset, and the digest
    of the bytes. A read of the same bytes written by hand parses them too,
    and leaves no entry."""
    if not len(d):  # no rows reads as an IngestError
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, by_hand = Path(tmp) / "w" / "points.csv", Path(tmp) / "h" / "points.csv"
        path.parent.mkdir()
        dataset.write_points(d, path)
        with open(path, encoding="utf-8", newline="") as fh:
            fresh = ingest_csv(fh, label="points")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        with pytest.MonkeyPatch.context() as mp:  # a hit parses nothing
            mp.setattr(dataset, "ingest_csv", None)
            hit = ingest_cached(path, label="points")
        by_hand.parent.mkdir()
        by_hand.write_bytes(path.read_bytes())
        miss = ingest_cached(by_hand, label="points")
        assert list(by_hand.parent.iterdir()) == [by_hand]
        for got, got_digest in (hit, miss):
            assert got_digest == digest
            _same_columns(got, fresh)


def _entry_of(path):
    return path.parent / "__curvemine_cache__" / f"{path.name}.cols"


def _changed(d, change):
    """d as drawn, with its first two unit labels merged by normalize_units
    (or its one label renamed), or with the rows of its first unit label
    left out by _take, which keeps that label in its tables, unused, and
    the other rows reversed, so that labels first appear in another order
    than their tables'."""
    if change == "units merged" and len(d):
        first, *rest = d._unit.table
        aliases = {first: (rest[0] if rest else "merged", 2.0)}
        return normalize_units(d, UnitTable(aliases | {u: (u, 1.0) for u in rest}))
    if change == "rows taken":
        return d._take(np.flatnonzero(d._unit.codes != d._unit.codes[:1])[::-1], "part")
    return d


@given(written_datasets(cr=True), st.sampled_from(["as drawn", "units merged",
                                                   "rows taken"]))
@WRITER_SETTINGS
def test_written_entry_equals_a_miss_entry(d, change):
    """The entry a writer stores for the point CSV it writes has the bytes
    of the entry ``_store`` makes, under the same key, of a fresh parse of
    those bytes; where they read as an IngestError (no rows), it stores
    none."""
    d = _changed(d, change)
    with tempfile.TemporaryDirectory() as tmp:
        written = Path(tmp) / "w" / "points.csv"
        written.parent.mkdir()
        dataset.write_points(d, written)
        with open(written, encoding="utf-8", newline="") as fh:
            digest = dataset._sha256(fh.buffer)
            fh.seek(0)
            try:
                parsed = ingest_csv(fh)
            except IngestError:
                assert not len(d)
                assert not _entry_of(written).parent.exists()
                return
        entry, key = dataset._entry(written, digest)
        assert entry == _entry_of(written)
        parsed_entry = Path(tmp) / "points.csv.cols"
        dataset._store(parsed_entry, key, parsed._x, parsed._y, parsed._weight,
                       [parsed._study, parsed._unit, parsed._assay])
        assert entry.read_bytes() == parsed_entry.read_bytes()


@pytest.mark.parametrize("label", ["a\0", "x" * (csv.field_size_limit() + 1)])
def test_writer_stores_no_entry_where_a_read_may_fail(tmp_path, label):
    """Python 3.10's csv rejects NUL, and every version a field longer
    than its limit: the writer stores no entry, and the next read parses."""
    d = Dataset.from_points([1.0, 2.0], [3.0, 4.0], study=["s", label])
    path = tmp_path / "points.csv"
    dataset.write_points(d, path)
    assert not _entry_of(path).parent.exists()
    dataset.write_points(d._take(np.array([0]), "s"), path)
    assert _entry_of(path).is_file()  # without the label, the entry is stored


@pytest.mark.parametrize("label", ["a\0", "\0", "b\0\0", "%,\"\r\n\0x"])
def test_cache_entry_keeps_labels_ending_in_nul(tmp_path, label):
    """An entry holds its label tables as JSON, which keeps a label
    ending in NUL."""
    d = Dataset.from_points([0.0, -0.0, 1.0], [2.0, 3.0, 4.0], weight=[1.0, 2.0, 1.0],
                            study=[label, "s", label], unit=label, assay=[None, label, ""])
    entry = tmp_path / "__curvemine_cache__" / "t.csv.cols"
    dataset._store(entry, ["key"], d._x, d._y, d._weight, [d._study, d._unit, d._assay])
    _same_columns(dataset._cached(entry, ["key"], ""), d)
    assert dataset._cached(entry, ["other key"], "") is None
