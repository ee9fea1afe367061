"""Per-study datapoint collections: ingestion, unit normalization, merging, summaries.

Every observation keeps its study (and optionally assay) provenance so that
combined datasets can always be traced back to their sources. A Dataset is a
column store: float64 x, y and weight, and study, unit and assay as integer
codes into label tables, built and checked once per operation. Datasets are
immutable and all operations here are pure. ``Dataset.from_points`` builds
one from point columns; its name stays because the benchmark's trace wraps it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from itertools import count, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, TextIO

import numpy as np

__all__ = [
    "StudyMeta",
    "Dataset",
    "UnitTable",
    "Descriptives",
    "IngestError",
    "UnknownUnitError",
    "ingest_csv",
    "write_csv",
    "read_unit_table",
    "normalize_units",
    "merge",
    "describe",
    "split_by_assay",
]


class IngestError(ValueError):
    """Raised when CSV ingestion fails (bad rows, missing columns, empty input)."""


class UnknownUnitError(KeyError):
    """Raised when a point carries a unit label absent from the unit table."""


# Ages are years; negative values are pre-birth, floored at conception.
MIN_AGE = -1.0


def _check_row(x: float, y: float, w: float) -> None:
    """The rules every row obeys; the message names the first one broken."""
    if not math.isfinite(x) or x < MIN_AGE:
        raise ValueError(f"age {x!r} must be finite and >= {MIN_AGE}")
    if not math.isfinite(y) or y < 0:
        raise ValueError(f"value {y!r} must be finite and >= 0")
    if not (w > 0):
        raise ValueError(f"weight {w!r} must be > 0")


@dataclass(frozen=True)
class StudyMeta:
    """Descriptor of one source study: author, year, cohort size, age range."""

    study_id: str
    first_author: str = ""
    year: int = 0
    n_observations: int = 1
    min_age: float = 0.0
    max_age: float = 0.0
    median_age: float = 0.0

    def __post_init__(self):
        if self.n_observations < 1:
            raise ValueError("n_observations must be >= 1")
        if not (self.min_age <= self.median_age <= self.max_age):
            raise ValueError(
                f"study {self.study_id}: require min_age <= median_age <= max_age, "
                f"got {self.min_age}, {self.median_age}, {self.max_age}"
            )


class _Codes(NamedTuple):
    """A label column: per-row integer codes into a table of labels."""

    codes: np.ndarray
    table: tuple

    @staticmethod
    def of(name: str, values, n: int) -> "_Codes":
        """One label for all n rows (a str or None), or a sequence of n labels."""
        if values is None or isinstance(values, str):
            return _Codes(np.zeros(n, dtype=np.intp), (values,))
        if len(values) != n:
            raise ValueError(f"{name} has {len(values)} labels for {n} rows")
        index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        return _Codes(np.array(list(map(index.__getitem__, values)), dtype=np.intp),
                      tuple(index))

    def labels(self) -> list:
        return list(map(self.table.__getitem__, self.codes.tolist()))


class Dataset:
    """Immutable ordered collection of datapoints plus their study descriptors.

    ``xs``, ``ys`` and ``weights`` are read-only float64 columns;
    ``study_ids``, ``units`` and ``assay_ids`` are new per-row label lists.
    ``from_points`` is the constructor. The benchmark's trace
    (perfbench/spans.py) wraps the class from outside, so ``from_points``
    keeps its name and stays a staticmethod in ``Dataset.__dict__``, and
    ``xs``, ``ys`` and ``weights`` stay properties defined on the class.
    """

    @staticmethod
    def from_points(x, y, *, weight=1.0, study: str | Sequence = "",
                    unit: str | Sequence = "", assay: Optional[str] | Sequence = None,
                    studies: Optional[Iterable[StudyMeta]] = None,
                    label: str = "") -> "Dataset":
        """Build a dataset from point columns: ``weight`` is one number for all
        rows or one per row, and ``study``, ``unit`` and ``assay`` are each one
        label (a str, or None) for all rows or a sequence of one per row.
        ``studies`` is sorted by id; None synthesizes them from the rows."""
        x, y, weight = (np.array(c, dtype=float) for c in (x, y, weight))
        if weight.ndim == 0:
            weight = np.full(x.shape, weight)
        if x.ndim != 1 or not x.shape == y.shape == weight.shape:
            raise ValueError("x, y and weight must be 1-D and of one length, got "
                             f"shapes {x.shape}, {y.shape} and {weight.shape}")
        if studies is not None:
            studies = tuple(sorted(studies, key=lambda s: s.study_id))
        return Dataset._from_columns(
            x, y, weight, *(_Codes.of(name, labels, len(x)) for name, labels in
                            (("study", study), ("unit", unit), ("assay", assay))),
            studies, label)

    @classmethod
    def _from_columns(cls, x, y, weight, study: _Codes, unit: _Codes, assay: _Codes,
                      studies=None, label: str = "") -> "Dataset":
        """Every dataset is built here, from float64 columns it then owns, with
        the row rules on all rows at once; studies=None synthesizes them."""
        for col in (x, y, weight, study.codes, unit.codes, assay.codes):
            col.flags.writeable = False
        ok = np.isfinite(x) & (x >= MIN_AGE) & np.isfinite(y) & (y >= 0) & (weight > 0)
        if not ok.all():  # the first bad row raises its error
            i = int(np.argmin(ok))
            _check_row(float(x[i]), float(y[i]), float(weight[i]))
        if studies is None:
            studies = _synthesize_studies(x, study)
        known = {s.study_id for s in studies}
        unknown = np.array([sid not in known for sid in study.table], dtype=bool)[study.codes]
        if unknown.any():
            raise ValueError("point references unknown study "
                             f"{study.table[study.codes[unknown.argmax()]]!r}")
        d = cls.__new__(cls)
        d.__dict__.update(_x=x, _y=y, _weight=weight, _study=study, _unit=unit,
                          _assay=assay, studies=tuple(studies), label=label)
        return d

    def __len__(self) -> int:
        return len(self._x)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:  # numbers by value: 0.0 equals -0.0
        return (isinstance(other, Dataset) and len(self) == len(other)
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in ("_x", "_y", "_weight"))
                and all(getattr(self, c).labels() == getattr(other, c).labels()
                        for c in ("_study", "_unit", "_assay"))
                and (self.studies, self.label) == (other.studies, other.label))

    xs = property(lambda self: self._x)
    ys = property(lambda self: self._y)
    weights = property(lambda self: self._weight)
    study_ids = property(lambda self: self._study.labels())
    units = property(lambda self: self._unit.labels())
    assay_ids = property(lambda self: self._assay.labels())

    def study(self, study_id: str) -> StudyMeta:
        return {s.study_id: s for s in self.studies}[study_id]

    def _take(self, rows, label: str) -> "Dataset":
        """The rows a mask or index array selects, with the studies they cite."""
        study, unit, assay = (_Codes(c.codes[rows], c.table)
                              for c in (self._study, self._unit, self._assay))
        cited = {study.table[c] for c in np.unique(study.codes).tolist()}
        return Dataset._from_columns(
            self._x[rows], self._y[rows], self._weight[rows], study, unit, assay,
            tuple(s for s in self.studies if s.study_id in cited), label)


def _synthesize_studies(x: np.ndarray, study: _Codes) -> list[StudyMeta]:
    order = np.lexsort((x, study.codes))  # stable: tied ages keep row order
    ages = x[order]
    ends = np.searchsorted(study.codes[order], np.arange(len(study.table) + 1)).tolist()
    return sorted((StudyMeta(study_id=sid, n_observations=b - a,
                             min_age=float(ages[a]), max_age=float(ages[b - 1]),
                             median_age=float(_median(ages[a:b])))
                   for sid, a, b in zip(study.table, ends, ends[1:]) if b > a),
                  key=lambda s: s.study_id)


def _median(sorted_vals: Sequence[float]) -> float:
    n = len(sorted_vals)
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    return 0.5 * (sorted_vals[mid - 1] + sorted_vals[mid])


@dataclass(frozen=True)
class Descriptives:
    """Order and moment statistics of one dataset axis."""

    count: int
    min: float
    max: float
    median: float
    mean: float
    sd: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not (self.min <= self.median <= self.max):
            raise ValueError("require min <= median <= max")
        if self.sd < 0:
            raise ValueError("sd must be >= 0")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class UnitTable:
    """Alias resolution for unit labels (and label synonyms generally).

    Maps alias -> (canonical label, multiplicative factor). Canonical labels
    always map to themselves with factor 1, and an alias's target must be
    canonical, not another alias, so normalizing twice equals normalizing once.
    """

    entries: Mapping[str, tuple[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        fixed = dict(self.entries)
        for alias, (canon, factor) in list(fixed.items()):
            if not (factor > 0):
                raise ValueError(f"factor for {alias!r} must be > 0")
            if canon not in fixed:
                fixed[canon] = (canon, 1.0)
        for label, (target, factor) in fixed.items():
            if target == label and factor != 1.0:
                raise ValueError(f"canonical label {label!r} must map to itself with factor 1")
            if target != label and fixed[target][0] != target:
                raise ValueError(f"unit alias {label!r} maps to {target!r}, "
                                 f"which is itself an alias of {fixed[target][0]!r}")
        object.__setattr__(self, "entries", fixed)

    def resolve(self, alias: str) -> tuple[str, float]:
        try:
            return self.entries[alias]
        except KeyError:
            raise UnknownUnitError(f"unknown unit label {alias!r}") from None


def read_unit_table(source: TextIO | str) -> UnitTable:
    """Parse a key-value unit config: lines of ``alias = canonical,factor``.

    The factor may be omitted (defaults to 1.0, a pure synonym). Blank lines
    and ``#`` comments are ignored.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    entries: dict[str, tuple[str, float]] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"unit table line {lineno}: expected 'alias = canonical,factor'")
        alias, rhs = (part.strip() for part in line.split("=", 1))
        canon, _, factor = rhs.rpartition(",") if "," in rhs else (rhs, "", "1")
        try:
            entries[alias] = (canon.strip(), float(factor.strip()))
        except ValueError as exc:
            raise ValueError(f"unit table line {lineno}: {exc}") from None
    return UnitTable(entries=entries)


def ingest_csv(source: TextIO | str, schema: Optional[Mapping[str, str]] = None,
               skip_bad_rows: bool = False, label: str = "") -> Dataset:
    """Read a point CSV (header ``study_id,x,y,unit,assay_id,weight``) into a Dataset.

    ``schema`` maps logical column names to actual header names. Bad rows
    (non-numeric x/y, age < -1, negative y) abort ingestion with row-numbered
    diagnostics unless ``skip_bad_rows`` is set.

    The text is read whole. Plain text is split at ``\\n`` and ``,``, other
    text by ``csv.reader`` (see ``_rows``); one converter turns either rows
    into columns, so the result and the error text do not depend on which.
    """
    schema = dict(schema or {})
    header, rows = _rows(source if isinstance(source, str) else source.read())
    if header is None:
        raise IngestError("empty file: no CSV header found")

    colmap = {logical: schema.get(logical, logical)
              for logical in ("study_id", "x", "y", "unit", "assay_id", "weight")}
    for logical in ("study_id", "x", "y"):
        if colmap[logical] not in header:
            raise IngestError(f"missing required column {colmap[logical]!r}")

    # As in csv.DictReader, a repeated header name means its last column.
    position = {name: i for i, name in enumerate(header)}
    at = {logical: position.get(name) for logical, name in colmap.items()}
    rows, ncols, bad = list(rows), len(header), {}
    try:
        if rows:
            return _convert(rows, at, ncols, label)
    except ValueError:  # name every bad row; the header is row 1
        for a in range(0, len(rows), _CHUNK_ROWS):
            cells = _cells(rows[a:a + _CHUNK_ROWS], ncols)
            for rownum, x, y, w in zip(count(a + 2), *(
                    repeat("") if i is None else cells[i::ncols + 1]
                    for i in (at["x"], at["y"], at["weight"]))):
                try:
                    _check_row(float(x), float(y), float(w or "1"))
                except ValueError as exc:
                    bad[rownum] = f"row {rownum}: {exc}"
    if bad and not skip_bad_rows:
        raise IngestError("rejected rows:\n  " + "\n  ".join(bad.values()))
    rows = [row for rownum, row in enumerate(rows, start=2) if rownum not in bad]
    if not rows:
        raise IngestError("no valid data rows")
    return _convert(rows, at, ncols, label)


# Rows converted at a time: it bounds the cell strings alive at once.
_CHUNK_ROWS = 4096


def _rows(text: str):
    """The header row (None if there is none) and an iterator over the
    non-blank data rows, which csv.DictReader skips and does not count.
    Plain text (no ``"``, ``\\r`` or NUL, and no line longer than
    ``csv.field_size_limit()``), which no csv quoting, line-end or size rule
    applies to, gives its lines; other text gives csv.reader rows."""
    if text and not ('"' in text or "\r" in text or "\0" in text):
        lines = text.split("\n")
        if max(map(len, lines)) <= csv.field_size_limit():
            header = lines.pop(0)
            return header.split(",") if header else [], filter(None, lines)
    rows = _csv_rows(text)
    return next(rows, None), rows


def _csv_rows(text: str):
    """The header row, then every non-blank row, as csv.reader reads them; a
    row it cannot read raises IngestError naming it (the header is row 1)."""
    rownum = 1
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            if row or rownum == 1:
                yield row
                rownum += 1
    except csv.Error as exc:
        raise IngestError(f"row {rownum}: {exc}") from None


def _cells(chunk: list, ncols: int) -> list[str]:
    """The cells of a chunk of rows, ncols to a row and a filler cell after
    each, so that column i is cells[i::ncols + 1]. Plain lines are split in
    one go, with a NUL cell after every line; that every NUL lands on its
    stride shows every line has ncols cells. Else each row, a ragged line
    or a csv.reader row, gets empty cells or is cut to ncols, as in
    csv.DictReader."""
    stride = ncols + 1
    if isinstance(chunk[0], str):
        cells = ",\0,".join(chunk).split(",")
        if (len(cells) == len(chunk) * stride - 1
                and cells[ncols::stride].count("\0") == len(chunk) - 1):
            return cells
        chunk = [line.split(",") for line in chunk]
    pad = [""] * ncols
    return [cell for row in chunk
            for cell in (*row[:ncols], *pad[len(row):], "\0")]


def _convert(rows: list, at: Mapping[str, Optional[int]], ncols: int,
             label: str) -> Dataset:
    """The dataset of the data rows under a header of ncols names, built a
    chunk of rows at a time; a bad cell or row raises ValueError. Ages,
    weights and labels repeat, so each is converted once per distinct cell
    in a chunk; values rarely repeat, so float() runs on every y cell."""
    n, stride = len(rows), ncols + 1
    x, y, weight = np.empty(n), np.empty(n), np.ones(n)
    tables = {c: {} for c in ("study_id", "unit", "assay_id")}  # label -> code
    codes = {c: np.zeros(n, dtype=np.intp) for c in tables}
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        cells = _cells(rows[a:b], ncols)
        x[a:b] = _by_distinct(cells[at["x"]::stride], float, float)
        y[a:b] = np.fromiter(map(float, cells[at["y"]::stride]), float, b - a)
        if at["weight"] is not None:  # an empty weight is 1.0
            weight[a:b] = _by_distinct(cells[at["weight"]::stride],
                                       lambda w: float(w or "1"), float)
        for c, table in tables.items():
            if at[c] is not None:  # a new label takes the next code
                codes[c][a:b] = _by_distinct(cells[at[c]::stride],
                                             lambda s: table.setdefault(s, len(table)),
                                             np.intp)
    study, unit, assay = (_Codes(codes[c], tuple(t) or ("",)) for c, t in tables.items())
    assay = assay._replace(table=tuple(s or None for s in assay.table))  # "" is no assay
    return Dataset._from_columns(x, y, weight, study, unit, assay, None, label)


def _by_distinct(cells: list[str], convert, dtype):
    """convert() of each cell, called once per distinct cell; when all cells
    are one, that one value, for the caller to broadcast."""
    value = {cell: convert(cell) for cell in dict.fromkeys(cells)}
    if len(value) == 1:
        return value[cells[0]]
    return np.fromiter(map(value.__getitem__, cells), dtype, len(cells))


def write_csv(d: Dataset, sink: TextIO) -> None:
    """Serialize a dataset back to the point CSV schema (round-trip stable)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["study_id", "x", "y", "unit", "assay_id", "weight"])
    # ages repeat (synth draws many points per age): format each bit pattern once
    _, first, inv = np.unique(d.xs.view(np.int64), return_index=True,
                              return_inverse=True)
    x_cells = [repr(v) for v in d.xs[first].tolist()]
    writer.writerows(zip(  # csv writes a None assay as an empty cell
        d.study_ids, map(x_cells.__getitem__, inv.tolist()),
        map(repr, d.ys.tolist()), d.units, d.assay_ids, map(repr, d.weights.tolist())))


def normalize_units(d: Dataset, table: UnitTable) -> Dataset:
    """Rewrite every point to its canonical unit label, scaling y by the factor."""
    unit = d._unit
    canon, factor = list(unit.table), np.ones(len(unit.table))
    for c in dict.fromkeys(unit.codes.tolist()):  # labels in use, in row order
        canon[c], factor[c] = table.resolve(unit.table[c])
    with np.errstate(over="ignore"):  # a row scaled to inf is then rejected
        y = d.ys * factor[unit.codes]
    return Dataset._from_columns(d.xs, y, d.weights, d._study,
                                 _Codes(unit.codes, tuple(canon)), d._assay,
                                 d.studies, d.label)


def merge(ds: Sequence[Dataset], label: str = "") -> Dataset:
    """Combine datasets: point union, study union; conflicting metadata is an error."""
    studies: dict[str, StudyMeta] = {}
    for s in (s for d in ds for s in d.studies):
        if studies.setdefault(s.study_id, s) != s:
            raise ValueError(f"study_id {s.study_id!r} appears with conflicting metadata")
    x, y, weight = (np.concatenate([np.empty(0)] + [getattr(d, c) for d in ds])
                    for c in ("_x", "_y", "_weight"))
    study, unit, assay = ([v for d in ds for v in getattr(d, c)]
                          for c in ("study_ids", "units", "assay_ids"))
    return Dataset.from_points(x, y, weight=weight, study=study, unit=unit,
                               assay=assay, studies=studies.values(), label=label)


def describe(d: Dataset, axis: str = "y") -> Descriptives:
    """Exact order statistics and sample moments (sd with n-1 denominator)."""
    if len(d) == 0:
        raise ValueError("cannot describe an empty dataset")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    vals = np.sort(d.xs if axis == "x" else d.ys, kind="stable")
    return Descriptives(
        count=len(vals), min=float(vals[0]), max=float(vals[-1]),
        median=float(_median(vals)), mean=float(np.mean(vals)),
        sd=float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0)


def split_by_assay(d: Dataset) -> dict[str, Dataset]:
    """Partition a dataset by assay_id; every point must carry one."""
    missing = sorted({sid for sid, assay in zip(d.study_ids, d.assay_ids)
                      if assay is None})
    if missing:
        raise ValueError("points without assay_id in studies: " + ", ".join(missing))
    codes, table = d._assay
    groups = {table[c]: c for c in np.unique(codes).tolist()}
    return {name: d._take(codes == groups[name],
                          f"{d.label}/{name}" if d.label else name)
            for name in sorted(groups)}
