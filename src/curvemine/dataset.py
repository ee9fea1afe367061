"""Per-study datapoint collections: ingestion, unit normalization, merging, summaries.

Every observation keeps its study (and optionally assay) provenance so that
combined datasets can always be traced back to their sources. Datasets are
immutable after construction and all operations here are pure.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional, Sequence, TextIO

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


@dataclass(frozen=True)
class Dataset:
    """Immutable ordered collection of datapoints plus their study descriptors."""

    points: tuple[DataPoint, ...]
    studies: tuple[StudyMeta, ...]
    label: str = ""

    def __post_init__(self):
        known = {s.study_id for s in self.studies}
        for p in self.points:
            if p.study_id not in known:
                raise ValueError(f"point references unknown study {p.study_id!r}")

    def __len__(self) -> int:
        return len(self.points)

    def _column(self, attr: str) -> np.ndarray:
        """One float column, built on first read and kept read-only, so every
        reader shares it and none can change it."""
        key = "_column_" + attr
        col = self.__dict__.get(key)
        if col is None:
            col = np.array([getattr(p, attr) for p in self.points], dtype=float)
            col.flags.writeable = False
            self.__dict__[key] = col  # frozen dataclass: bypass __setattr__
        return col

    @property
    def xs(self) -> np.ndarray:
        return self._column("x")

    @property
    def ys(self) -> np.ndarray:
        return self._column("y")

    @property
    def weights(self) -> np.ndarray:
        return self._column("weight")

    def study(self, study_id: str) -> StudyMeta:
        for s in self.studies:
            if s.study_id == study_id:
                return s
        raise KeyError(study_id)

    @staticmethod
    def from_points(points: Iterable[DataPoint], label: str = "",
                    studies: Optional[Iterable[StudyMeta]] = None) -> "Dataset":
        """Build a dataset, synthesizing per-study metadata from the rows."""
        pts = tuple(points)
        if studies is not None:
            metas = tuple(sorted(studies, key=lambda s: s.study_id))
        else:
            metas = tuple(_synthesize_studies(pts))
        return Dataset(points=pts, studies=metas, label=label)


def _synthesize_studies(points: Sequence[DataPoint],
                        authors: Optional[Mapping[str, tuple[str, int]]] = None
                        ) -> list[StudyMeta]:
    by_study: dict[str, list[float]] = {}
    for p in points:
        by_study.setdefault(p.study_id, []).append(p.x)
    metas = []
    for sid in sorted(by_study):
        ages = sorted(by_study[sid])
        author, year = ("", 0)
        if authors and sid in authors:
            author, year = authors[sid]
        metas.append(StudyMeta(
            study_id=sid,
            first_author=author,
            year=year,
            n_observations=len(ages),
            min_age=ages[0],
            max_age=ages[-1],
            median_age=_median(ages),
        ))
    return metas


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
        return {
            "count": self.count, "min": self.min, "max": self.max,
            "median": self.median, "mean": self.mean, "sd": self.sd,
        }


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


_REQUIRED_COLUMNS = ("study_id", "x", "y")
_OPTIONAL_COLUMNS = ("unit", "assay_id", "weight")


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
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise IngestError("empty file: no CSV header found")

    colmap = {logical: schema.get(logical, logical)
              for logical in _REQUIRED_COLUMNS + _OPTIONAL_COLUMNS}
    for logical in _REQUIRED_COLUMNS:
        if colmap[logical] not in reader.fieldnames:
            raise IngestError(f"missing required column {colmap[logical]!r}")

    points: list[DataPoint] = []
    bad: list[str] = []
    for rownum, row in enumerate(reader, start=2):  # header is line 1
        try:
            points.append(_parse_row(row, colmap))
        except (ValueError, KeyError) as exc:
            bad.append(f"row {rownum}: {exc}")
    if bad and not skip_bad_rows:
        raise IngestError("rejected rows:\n  " + "\n  ".join(bad))
    if not points:
        raise IngestError("no valid data rows")
    return Dataset.from_points(points, label=label)


def _parse_row(row: Mapping[str, str], colmap: Mapping[str, str]) -> DataPoint:
    def get(logical, default=""):
        val = row.get(colmap[logical])
        return default if val is None or val == "" else val

    x = float(get("x"))
    y = float(get("y"))
    weight_s = get("weight")
    assay = get("assay_id") or None
    return DataPoint(
        x=x, y=y,
        unit=get("unit"),
        study_id=str(get("study_id")),
        assay_id=assay,
        weight=float(weight_s) if weight_s else 1.0,
    )


def write_csv(d: Dataset, sink: TextIO) -> None:
    """Serialize a dataset back to the point CSV schema (round-trip stable)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["study_id", "x", "y", "unit", "assay_id", "weight"])
    for p in d.points:
        writer.writerow([
            p.study_id, repr(p.x), repr(p.y), p.unit,
            p.assay_id if p.assay_id is not None else "",
            repr(p.weight),
        ])


def normalize_units(d: Dataset, table: UnitTable) -> Dataset:
    """Rewrite every point to its canonical unit label, scaling y by the factor."""
    points = []
    for p in d.points:
        canon, factor = table.resolve(p.unit)
        if canon == p.unit and factor == 1.0:
            points.append(p)
        else:
            points.append(replace(p, unit=canon, y=p.y * factor))
    return Dataset(points=tuple(points), studies=d.studies, label=d.label)


def merge(ds: Sequence[Dataset], label: str = "") -> Dataset:
    """Combine datasets: point union, study union; conflicting metadata is an error."""
    points: list[DataPoint] = []
    studies: dict[str, StudyMeta] = {}
    for d in ds:
        points.extend(d.points)
        for s in d.studies:
            prior = studies.get(s.study_id)
            if prior is not None and prior != s:
                raise ValueError(
                    f"study_id {s.study_id!r} appears with conflicting metadata")
            studies[s.study_id] = s
    return Dataset(
        points=tuple(points),
        studies=tuple(sorted(studies.values(), key=lambda s: s.study_id)),
        label=label,
    )


def describe(d: Dataset, axis: str = "y") -> Descriptives:
    """Exact order statistics and sample moments (sd with n-1 denominator)."""
    if len(d) == 0:
        raise ValueError("cannot describe an empty dataset")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    vals = sorted(p.x if axis == "x" else p.y for p in d.points)
    n = len(vals)
    mean = float(np.mean(vals))
    sd = float(np.std(vals, ddof=1)) if n > 1 else 0.0
    return Descriptives(
        count=n, min=vals[0], max=vals[-1],
        median=_median(vals), mean=mean, sd=sd,
    )


def split_by_assay(d: Dataset) -> dict[str, Dataset]:
    """Partition a dataset by assay_id; every point must carry one."""
    missing = sorted({p.study_id for p in d.points if p.assay_id is None})
    if missing:
        raise ValueError(
            "points without assay_id in studies: " + ", ".join(missing))
    groups: dict[str, list[DataPoint]] = {}
    for p in d.points:
        groups.setdefault(p.assay_id, []).append(p)
    out = {}
    for assay in sorted(groups):
        pts = groups[assay]
        sids = {p.study_id for p in pts}
        studies = tuple(s for s in d.studies if s.study_id in sids)
        out[assay] = Dataset(points=tuple(pts), studies=studies,
                             label=f"{d.label}/{assay}" if d.label else assay)
    return out
