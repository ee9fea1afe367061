"""The column-store dataset layer against the row-at-a-time reference, on
generated point tables: ingest gives the same columns, labels and studies
bit for bit, or the same IngestError text; write -> ingest -> write is
byte-stable; describe, normalize_units and split agree with the reference."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ingest
from curvemine.dataset import (
    IngestError,
    UnitTable,
    UnknownUnitError,
    describe,
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
LABELS = ("", "A", "B", "s1", " A", "ng/ml", "k1", "nope")
labels = st.sampled_from(LABELS)


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
    lines.append(",".join(header))
    for _ in range(draw(st.integers(0, 10))):
        cells = [draw(labels if c in ("study_id", "unit", "assay_id", "note")
                      else numbers) for c in cols]
        cut = draw(st.integers(0, 4))
        if cut == 1:     # short row
            cells = cells[:draw(st.integers(1, len(cells)))]
        elif cut == 2:   # long row
            cells += draw(st.lists(numbers | labels, min_size=1, max_size=2))
        lines.append(",".join(cells))
        if draw(st.integers(0, 6)) == 0:
            lines.append("")  # blank line
    schema = dict(REMAP) if remap else None
    return "\n".join(lines) + "\n", schema


# One table resolves some labels, with factors that cannot overflow; the
# other resolves every label, and its factor for "" can overflow. (Labels
# resolve before any value is scaled, so when one table does both, the
# unknown label is named even if an earlier row overflows.)
UNIT_TABLES = (UnitTable({"ng/ml": ("µg/l", 0.001), "A": ("B", 1.0), "": ("count", 0.5)}),
               UnitTable({u: ("count", 1e300 if u == "" else 1.0) for u in LABELS}))


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


# Huge generated values overflow np.std's squares, in both implementations.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@given(point_tables(), st.booleans())
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
