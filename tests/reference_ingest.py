"""Reference row-at-a-time CSV ingest, writer, summaries, unit normalization
and split: the dataset layer as it was before the column store, kept for
the tests as a differential oracle.

``csv.DictReader`` row by row, one validated ``_Row`` per row, study
metadata and order statistics from sorted Python lists. Each function has
the signature of its namesake in ``curvemine.dataset`` or
``curvemine.validate``; datasets go in and out as ``curvemine`` Datasets,
read with ``rows`` and built from rows with ``_dataset``.
"""

import csv
import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from curvemine.dataset import (
    Dataset,
    Descriptives,
    IngestError,
    StudyMeta,
)

MIN_AGE = -1.0  # ages are floored at conception


@dataclass(frozen=True)
class _Row:
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


def rows(d):
    """The rows of a dataset, each validated as it is built."""
    return tuple(map(_Row, d.xs.tolist(), d.ys.tolist(), d.units, d.study_ids,
                     d.assay_ids, d.weights.tolist()))


def _dataset(points, studies, label):
    return Dataset.from_points(
        [p.x for p in points], [p.y for p in points],
        weight=[p.weight for p in points], study=[p.study_id for p in points],
        unit=[p.unit for p in points], assay=[p.assay_id for p in points],
        studies=studies, label=label)


_REQUIRED_COLUMNS = ("study_id", "x", "y")
_OPTIONAL_COLUMNS = ("unit", "assay_id", "weight")


def ingest_csv(source, schema=None, skip_bad_rows=False, label=""):
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

    points = []
    bad = []
    for rownum, row in enumerate(reader, start=2):  # header is line 1
        try:
            points.append(_parse_row(row, colmap))
        except (ValueError, KeyError) as exc:
            bad.append(f"row {rownum}: {exc}")
    if bad and not skip_bad_rows:
        raise IngestError("rejected rows:\n  " + "\n  ".join(bad))
    if not points:
        raise IngestError("no valid data rows")
    return _dataset(points, _synthesize_studies(points), label)


def _parse_row(row, colmap):
    def get(logical, default=""):
        val = row.get(colmap[logical])
        return default if val is None or val == "" else val

    x = float(get("x"))
    y = float(get("y"))
    weight_s = get("weight")
    assay = get("assay_id") or None
    return _Row(
        x=x, y=y,
        unit=get("unit"),
        study_id=str(get("study_id")),
        assay_id=assay,
        weight=float(weight_s) if weight_s else 1.0,
    )


def _synthesize_studies(points):
    by_study = {}
    for p in points:
        by_study.setdefault(p.study_id, []).append(p.x)
    metas = []
    for sid in sorted(by_study):
        ages = sorted(by_study[sid])
        metas.append(StudyMeta(
            study_id=sid,
            n_observations=len(ages),
            min_age=ages[0],
            max_age=ages[-1],
            median_age=_median(ages),
        ))
    return metas


def _median(sorted_vals):
    n = len(sorted_vals)
    mid = n // 2
    if n % 2:
        return sorted_vals[mid]
    a, b = float(sorted_vals[mid - 1]), float(sorted_vals[mid])
    half = 0.5 * (a + b)  # halving is exact; the sum overflows near the largest float
    return half if math.isfinite(half) else 0.5 * a + 0.5 * b


def write_csv(d, sink):
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["study_id", "x", "y", "unit", "assay_id", "weight"])
    for p in rows(d):
        writer.writerow([
            p.study_id, repr(p.x), repr(p.y), p.unit,
            p.assay_id if p.assay_id is not None else "",
            repr(p.weight),
        ])


def describe(d, axis="y"):
    vals = sorted(p.x if axis == "x" else p.y for p in rows(d))
    n = len(vals)
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(vals))
        sd = float(np.std(vals, ddof=1)) if n > 1 else 0.0
    if not math.isfinite(mean) or not math.isfinite(sd):
        # numpy's moments of the values over 2**k, the largest below 1 in
        # magnitude, times 2**k: no sum overflows, and the mean stays
        # within the values' range
        k = max(math.frexp(v)[1] for v in vals)
        small = [math.ldexp(v, -k) for v in vals]
        if not math.isfinite(mean):
            mean = math.ldexp(min(max(float(np.mean(small)), small[0]), small[-1]), k)
        if not math.isfinite(sd):
            sd = math.ldexp(float(np.std(small, ddof=1)), k)
    return Descriptives(count=n, min=vals[0], max=vals[-1],
                        median=_median(vals), mean=mean, sd=sd)


def normalize_units(d, table):
    points = []
    for p in rows(d):
        canon, factor = table.resolve(p.unit)
        if canon == p.unit and factor == 1.0:
            points.append(p)
        else:
            points.append(replace(p, unit=canon, y=p.y * factor))
    return _dataset(points, d.studies, d.label)


def split(d, fraction, seed=0, stratify_bins=1):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    idx = np.arange(len(d))
    if stratify_bins > 1:
        xs = d.xs
        lo, hi = xs.min(), xs.max()
        width = (hi - lo) or 1.0
        bins = np.minimum(((xs - lo) / width * stratify_bins).astype(int),
                          stratify_bins - 1)
        train_idx = []
        for b in range(stratify_bins):
            members = idx[bins == b]
            if members.size == 0:
                continue
            take = int(round(fraction * members.size))
            perm = rng.permutation(members)
            train_idx.extend(perm[:take])
    else:
        take = int(round(fraction * len(d)))
        perm = rng.permutation(idx)
        train_idx = list(perm[:take])

    mask = np.zeros(len(d), dtype=bool)
    mask[train_idx] = True
    points = rows(d)
    train_pts = tuple(p for p, m in zip(points, mask) if m)
    test_pts = tuple(p for p, m in zip(points, mask) if not m)

    def sub(points, suffix):
        sids = {p.study_id for p in points}
        studies = tuple(s for s in d.studies if s.study_id in sids)
        return _dataset(points, studies,
                        f"{d.label}/{suffix}" if d.label else suffix)

    return sub(train_pts, "train"), sub(test_pts, "test")
