"""Per-study datapoint collections: ingestion, unit normalization, merging, summaries.

Every observation keeps its study (and optionally assay) provenance so that
combined datasets can always be traced back to their sources. A Dataset is a
column store: float64 x, y and weight, and study, unit and assay as integer
codes into label tables. Each operation builds and checks its result's columns
once; ``Dataset.points`` is built lazily, and no CLI path builds a DataPoint.
Datasets are immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, TextIO

import numpy as np

__all__ = [
    "DataPoint",
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


@dataclass(frozen=True)
class DataPoint:
    """One (age, value) observation with provenance.

    x is age in years (negative = pre-birth, >= -1.0), y is the measured
    value in the canonical unit.
    """

    x: float
    y: float
    unit: str = ""
    study_id: str = ""
    assay_id: Optional[str] = None
    weight: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.x) or self.x < MIN_AGE:
            raise ValueError(f"age {self.x!r} must be finite and >= {MIN_AGE}")
        if not math.isfinite(self.y) or self.y < 0:
            raise ValueError(f"value {self.y!r} must be finite and >= 0")
        if not (self.weight > 0):
            raise ValueError(f"weight {self.weight!r} must be > 0")


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
    def of(values: Sequence) -> "_Codes":
        index = {v: i for i, v in enumerate(dict.fromkeys(values))}
        return _Codes(np.array(list(map(index.__getitem__, values)), dtype=np.intp),
                      tuple(index))

    def labels(self) -> list:
        return list(map(self.table.__getitem__, self.codes.tolist()))


class Dataset:
    """Immutable ordered collection of datapoints plus their study descriptors.

    ``xs``, ``ys`` and ``weights`` are read-only float64 columns; ``points``
    is built on first read. The benchmark's trace (perfbench/spans.py) wraps
    the class from outside, so ``from_points`` stays a staticmethod in
    ``Dataset.__dict__`` and ``xs``, ``ys`` and ``weights`` stay properties
    defined on the class itself.
    """

    def __init__(self, points: Iterable[DataPoint],
                 studies: Iterable[StudyMeta], label: str = ""):
        studies = tuple(studies)  # kept in the given order
        self.__dict__.update(vars(Dataset.from_points(points, label, studies)),
                             studies=studies)

    @classmethod
    def _from_columns(cls, x, y, weight, study: _Codes, unit: _Codes, assay: _Codes,
                      studies=None, label: str = "", points=None) -> "Dataset":
        """Every dataset is built here, from float64 columns it then owns, with
        DataPoint's rules on all rows at once; studies=None synthesizes them."""
        for col in (x, y, weight, study.codes, unit.codes, assay.codes):
            col.flags.writeable = False
        ok = np.isfinite(x) & (x >= MIN_AGE) & np.isfinite(y) & (y >= 0) & (weight > 0)
        if not ok.all():  # the first bad row raises DataPoint's error
            i = int(np.argmin(ok))
            DataPoint(float(x[i]), float(y[i]), weight=float(weight[i]))
        if studies is None:
            studies = _synthesize_studies(x, study)
        known = {s.study_id for s in studies}
        unknown = np.array([sid not in known for sid in study.table], dtype=bool)[study.codes]
        if unknown.any():
            raise ValueError("point references unknown study "
                             f"{study.table[study.codes[unknown.argmax()]]!r}")
        d = cls.__new__(cls)
        d.__dict__.update(_x=x, _y=y, _weight=weight, _study=study, _unit=unit,
                          _assay=assay, studies=tuple(studies), label=label,
                          _points=points)
        return d

    def __len__(self) -> int:
        return len(self._x)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dataset is immutable: cannot set {name!r}")

    def __eq__(self, other) -> bool:
        return isinstance(other, Dataset) and (
            (self.points, self.studies, self.label) == (other.points, other.studies, other.label))

    @property
    def points(self) -> tuple[DataPoint, ...]:
        if self._points is None:
            self.__dict__["_points"] = tuple(map(
                DataPoint, self._x.tolist(), self._y.tolist(), self._unit.labels(),
                self._study.labels(), self._assay.labels(), self._weight.tolist()))
        return self._points

    xs = property(lambda self: self._x)
    ys = property(lambda self: self._y)
    weights = property(lambda self: self._weight)

    def study(self, study_id: str) -> StudyMeta:
        for s in self.studies:
            if s.study_id == study_id:
                return s
        raise KeyError(study_id)

    def _take(self, rows, label: str) -> "Dataset":
        """The rows a mask or index array selects, with the studies they cite."""
        study, unit, assay = (_Codes(c.codes[rows], c.table)
                              for c in (self._study, self._unit, self._assay))
        cited = {study.table[c] for c in np.unique(study.codes).tolist()}
        return Dataset._from_columns(
            self._x[rows], self._y[rows], self._weight[rows], study, unit, assay,
            tuple(s for s in self.studies if s.study_id in cited), label)

    @staticmethod
    def from_points(points: Iterable[DataPoint], label: str = "",
                    studies: Optional[Iterable[StudyMeta]] = None) -> "Dataset":
        """Build a dataset, synthesizing per-study metadata from the rows."""
        pts = tuple(points)
        if studies is not None:
            studies = tuple(sorted(studies, key=lambda s: s.study_id))
        return Dataset._from_columns(
            *(np.array([getattr(p, a) for p in pts], dtype=float)
              for a in ("x", "y", "weight")),
            *(_Codes.of([getattr(p, a) for p in pts]) for a in ("study_id", "unit", "assay_id")),
            studies, label, pts)


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
    always map to themselves with factor 1.
    """

    entries: Mapping[str, tuple[str, float]] = field(default_factory=dict)

    def __post_init__(self):
        fixed = dict(self.entries)
        for alias, (canon, factor) in list(fixed.items()):
            if not (factor > 0):
                raise ValueError(f"factor for {alias!r} must be > 0")
            if canon not in fixed:
                fixed[canon] = (canon, 1.0)
        for canon, (target, factor) in fixed.items():
            if target == canon and factor != 1.0:
                raise ValueError(f"canonical label {canon!r} must map to itself with factor 1")
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
        if "," in rhs:
            canon, factor_s = (part.strip() for part in rhs.rsplit(",", 1))
            factor = float(factor_s)
        else:
            canon, factor = rhs, 1.0
        entries[alias] = (canon, factor)
    return UnitTable(entries=entries)


def ingest_csv(source: TextIO | str,
               schema: Optional[Mapping[str, str]] = None,
               skip_bad_rows: bool = False,
               label: str = "") -> Dataset:
    """Read a point CSV (header ``study_id,x,y,unit,assay_id,weight``) into a Dataset.

    ``schema`` maps logical column names to actual header names. Bad rows
    (non-numeric x/y, age < -1, negative y) abort ingestion with row-numbered
    diagnostics unless ``skip_bad_rows`` is set.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    schema = dict(schema or {})
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise IngestError("empty file: no CSV header found")

    colmap = {logical: schema.get(logical, logical)
              for logical in ("study_id", "x", "y", "unit", "assay_id", "weight")}
    for logical in ("study_id", "x", "y"):
        if colmap[logical] not in header:
            raise IngestError(f"missing required column {colmap[logical]!r}")

    # Read as csv.DictReader reads: blank lines are skipped and not counted,
    # a repeated header name means its last column, a short row's missing
    # cells are empty, and extra cells are ignored.
    position = {name: i for i, name in enumerate(header)}
    at = {logical: position.get(name) for logical, name in colmap.items()}
    width = 1 + max(i for i in at.values() if i is not None)
    rows = list(filter(None, reader))
    if min(map(len, rows), default=width) < width:
        rows = [r + [""] * (width - len(r)) for r in rows]
    cells = {logical: [""] * len(rows) if i is None else [r[i] for r in rows]
             for logical, i in at.items()}
    cells["weight"] = [w or "1" for w in cells["weight"]]  # an empty weight is 1.0
    cells["assay_id"] = [a or None for a in cells["assay_id"]]

    def build() -> Dataset:  # float() per cell: float's syntax and bits
        return Dataset._from_columns(
            *(np.array(list(map(float, cells[c]))) for c in ("x", "y", "weight")),
            *(_Codes.of(cells[c]) for c in ("study_id", "unit", "assay_id")),
            label=label)

    bad = {}
    try:
        if rows:
            return build()
    except ValueError:  # name every bad row, in DataPoint's words
        for rownum, (x, y, w) in enumerate(  # the header is row 1
                zip(cells["x"], cells["y"], cells["weight"]), start=2):
            try:
                DataPoint(float(x), float(y), weight=float(w))
            except ValueError as exc:
                bad[rownum] = f"row {rownum}: {exc}"
    if bad and not skip_bad_rows:
        raise IngestError("rejected rows:\n  " + "\n  ".join(bad.values()))
    cells = {k: [v for i, v in enumerate(col, start=2) if i not in bad]
             for k, col in cells.items()}
    if not cells["x"]:
        raise IngestError("no valid data rows")
    return build()


def write_csv(d: Dataset, sink: TextIO) -> None:
    """Serialize a dataset back to the point CSV schema (round-trip stable)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["study_id", "x", "y", "unit", "assay_id", "weight"])
    # ages repeat (synth draws many points per age): format each bit pattern once
    _, first, inv = np.unique(d.xs.view(np.int64), return_index=True,
                              return_inverse=True)
    x_cells = [repr(v) for v in d.xs[first].tolist()]
    writer.writerows(zip(  # csv writes a None assay as an empty cell
        d._study.labels(), map(x_cells.__getitem__, inv.tolist()),
        map(repr, d.ys.tolist()),
        d._unit.labels(), d._assay.labels(), map(repr, d.weights.tolist())))


def normalize_units(d: Dataset, table: UnitTable) -> Dataset:
    """Rewrite every point to its canonical unit label, scaling y by the factor."""
    unit = d._unit
    canon, factor = list(unit.table), np.ones(len(unit.table))
    for c in dict.fromkeys(unit.codes.tolist()):  # labels in use, in row order
        canon[c], factor[c] = table.resolve(unit.table[c])
    with np.errstate(over="ignore"):  # a row scaled to inf is rejected as DataPoint would
        y = d.ys * factor[unit.codes]
    return Dataset._from_columns(d.xs, y, d.weights, d._study,
                                 _Codes(unit.codes, tuple(canon)), d._assay,
                                 d.studies, d.label)


def merge(ds: Sequence[Dataset], label: str = "") -> Dataset:
    """Combine datasets: point union, study union; conflicting metadata is an error."""
    studies: dict[str, StudyMeta] = {}
    for s in (s for d in ds for s in d.studies):
        if studies.setdefault(s.study_id, s) != s:
            raise ValueError(
                f"study_id {s.study_id!r} appears with conflicting metadata")
    return Dataset._from_columns(
        *(np.concatenate([np.empty(0)] + [getattr(d, c) for d in ds])
          for c in ("_x", "_y", "_weight")),
        *(_Codes.of([v for d in ds for v in getattr(d, c).labels()])
          for c in ("_study", "_unit", "_assay")),
        tuple(sorted(studies.values(), key=lambda s: s.study_id)), label)


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
    missing = sorted({sid for sid, assay in zip(d._study.labels(), d._assay.labels())
                      if assay is None})
    if missing:
        raise ValueError(
            "points without assay_id in studies: " + ", ".join(missing))
    codes, table = d._assay
    groups = {table[c]: c for c in np.unique(codes).tolist()}
    return {name: d._take(codes == groups[name],
                          f"{d.label}/{name}" if d.label else name)
            for name in sorted(groups)}
