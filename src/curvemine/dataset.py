"""Per-study datapoint collections: ingestion, unit normalization, merging, summaries.

Every observation keeps its study (and optionally assay) provenance so that
combined datasets can always be traced back to their sources. A Dataset is a
column store: float64 x, y and weight, and study, unit and assay as integer
codes into label tables, built and checked once per operation. Datasets are
immutable and all operations here are pure. ``Dataset.from_points`` builds
one from point columns; its name stays because the benchmark's trace wraps it.

Point CSV files are read with ``ingest_cached`` and written with
``write_points``. As ``__pycache__`` keeps bytecode (PEP 3147),
``write_points`` keeps the columns of each point CSV it writes in one entry,
``<dir>/__curvemine_cache__/<name>.cols``, so that reading the file back
parses nothing. Only ``write_points`` stores entries: a read never writes.

- The key is the CSV's SHA-256 and the SHA-256 of this module's source, so
  that any edit to the reader retires every entry. Where that source cannot
  be read (say, under a zip import) there is no cache: every read parses and
  nothing is stored. A file that ``write_csv`` wrote has no bad rows, so
  ``skip_bad_rows`` reads the same Dataset from it either way.
- The entry is a JSON header line, with the key, the row count, each
  column's dtype and stored length, the label tables, the studies and a
  CRC32 over the count, the tables, the studies and the columns; then the
  raw bytes of x, y, weight and the study, unit and assay codes. A column
  whose rows hold one bit pattern is stored once, and a read keeps it one
  value: a read-only view of it, n rows long. ``.npz`` entries of earlier
  versions are never read.
- The studies are those a parse synthesizes from the rows; the writer
  synthesizes them once. A read whose key is the entry's builds the Dataset
  from the stored columns and studies through the row rules of a parse.
  Any other read parses, having read no column.

An entry that cannot be read is a miss, and one that cannot be written is
not kept, so a read-only directory gets no cache. Deleting a cache
directory is always safe: the next read parses again, and every command
prints and writes the same bytes either way.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import zlib
from dataclasses import asdict, astuple, dataclass, field
from itertools import chain, count, islice, repeat
from pathlib import Path
from typing import BinaryIO, Iterable, Mapping, NamedTuple, Optional, Sequence, TextIO

import numpy as np

__all__ = [
    "StudyMeta",
    "Dataset",
    "UnitTable",
    "Descriptives",
    "IngestError",
    "UnknownUnitError",
    "ingest_csv",
    "ingest_cached",
    "write_points",
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


def _valid(x: np.ndarray, y: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Which rows of the columns obey _check_row's rules."""
    return np.isfinite(x) & (x >= MIN_AGE) & np.isfinite(y) & (y >= 0) & (weight > 0)


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
        ok = _valid(x, y, weight)
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

    def _take(self, rows, part: str) -> "Dataset":
        """The rows a mask or index array selects, with the studies they
        cite, labelled ``label/part`` (``part`` when this has no label). A
        mask becomes one index array, which gathers every column."""
        if rows.dtype == bool:
            rows = np.flatnonzero(rows)
        study, unit, assay = (_Codes(c.codes[rows], c.table)
                              for c in (self._study, self._unit, self._assay))
        cited = {study.table[c] for c in np.flatnonzero(np.bincount(study.codes)).tolist()}
        return Dataset._from_columns(
            self._x[rows], self._y[rows], self._weight[rows], study, unit, assay,
            tuple(s for s in self.studies if s.study_id in cited),
            f"{self.label}/{part}" if self.label else part)


def _synthesize_studies(x: np.ndarray, study: _Codes) -> list[StudyMeta]:
    ages = x[np.lexsort((x, study.codes))]  # stable: tied ages keep row order
    ends = [0, *np.cumsum(np.bincount(study.codes, minlength=len(study.table))).tolist()]
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
    a, b = float(sorted_vals[mid - 1]), float(sorted_vals[mid])
    half = 0.5 * (a + b)  # halving is exact; the sum overflows near the largest float
    return half if math.isfinite(half) else 0.5 * a + 0.5 * b


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
    for lineno, alias, rhs in _key_values(source, "unit table",
                                          "'alias = canonical,factor'"):
        canon, _, factor = rhs.rpartition(",") if "," in rhs else (rhs, "", "1")
        try:
            entries[alias] = (canon.strip(), float(factor.strip()))
        except ValueError as exc:
            raise ValueError(f"unit table line {lineno}: {exc}") from None
    return UnitTable(entries=entries)


def _key_values(lines: Iterable[str], what: str, form: str):
    """(line number, key, value), both stripped, of each line split at its
    first ``=``, skipping ``#`` comments and blank lines; a line with no
    ``=`` is a ValueError, "<what> line N: expected <form>"."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {lineno}: expected {form}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield lineno, key, value


def ingest_csv(source: TextIO | str, schema: Optional[Mapping[str, str]] = None,
               skip_bad_rows: bool = False, label: str = "") -> Dataset:
    """Read a point CSV (header ``study_id,x,y,unit,assay_id,weight``) into a Dataset.

    ``schema`` maps logical column names to actual header names. Bad rows
    (non-numeric x/y, age < -1, negative y) abort ingestion with row-numbered
    diagnostics unless ``skip_bad_rows`` is set.

    ``source`` is a file opened with ``newline=""``, as the csv module needs,
    or the text itself, which reads as such a file would. It is read and
    converted a part of about _CHUNK_ROWS lines at a time, never whole: a
    plain part is split at ``\\n`` and ``,``, and the first part that is not
    plain hands itself and the rest of the file to one ``csv.reader`` (see
    ``_parts``). One converter turns either kind of part into columns, so
    the result and the error text do not depend on which; the columns of
    the parts are joined once at the end.
    """
    schema = dict(schema or {})
    parts = _parts(source)
    header = next(parts, None)
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
    ncols, rownum, pieces, bad = len(header), 2, [], []  # the header is row 1
    tables = {c: {} for c in ("study_id", "unit", "assay_id")}  # label -> code
    for part in parts:
        try:
            pieces.append(_convert(part, at, ncols, tables))
        except ValueError:  # name every bad row of the part
            rejected = _rejected(part, at, ncols, rownum)
            bad += rejected.values()
            kept = [row for i, row in enumerate(part) if i not in rejected]
            if skip_bad_rows and kept:
                pieces.append(_convert(kept, at, ncols, tables))
        rownum += len(part)
        del part  # its rows are not needed past here
    if bad and not skip_bad_rows:
        raise IngestError("rejected rows:\n  " + "\n  ".join(bad))
    if not pieces:
        raise IngestError("no valid data rows")

    columns = list(zip(*pieces))  # each column's pieces, joined one by one
    del pieces
    for i in range(len(columns)):
        columns[i] = np.concatenate(columns[i])
    x, y, weight, *codes = columns
    study, unit, assay = (_Codes(c, _read_table(t, name == "assay_id"))
                          for c, (name, t) in zip(codes, tables.items()))
    return Dataset._from_columns(x, y, weight, study, unit, assay, None, label)


def _read_table(labels: Iterable[str], assay: bool) -> tuple:
    """A label table as ingest_csv ends it: the labels, numbered in order of
    first appearance, or ("",) if there are none; an assay's "" is None."""
    table = tuple(labels) or ("",)
    return tuple(s or None for s in table) if assay else table


def _as_read(c: _Codes, assay: bool) -> _Codes:
    """The codes and table ingest_csv reads back from the cells write_csv
    writes for the label column c: each label as its cell reads (None as
    ""), one code per distinct label, numbered in order of first
    appearance, and labels no row uses dropped. normalize_units may map two
    labels to one, and _take may leave labels unused."""
    n = len(c.codes)
    first = np.full(len(c.table), n)  # each code's first row; n if unused
    np.minimum.at(first, c.codes, np.arange(n))
    code, index = np.zeros(len(c.table), dtype=np.intp), {}
    for i in np.argsort(first)[:np.count_nonzero(first < n)].tolist():
        code[i] = index.setdefault(c.table[i] or "", len(index))
    return _Codes(code[c.codes], _read_table(index, assay))


# The directory, beside a CSV, that holds its cache entry.
CACHE_DIR = "__curvemine_cache__"
# The dtypes of a cache entry's x, y and weight and study, unit and assay codes.
_DTYPES = [np.dtype(np.float64).str] * 3 + [np.dtype(np.intp).str] * 3


def ingest_cached(path: str | os.PathLike, skip_bad_rows: bool = False,
                  label: str = "") -> tuple[Dataset, str]:
    """``ingest_csv`` of the point CSV at ``path``, from the cache entry
    that ``write_points`` stored for these bytes if there is one (see the
    module docstring), and the SHA-256 of the bytes read, in hex. The
    digest and any parse are of one open file, so a file replaced meanwhile
    cannot pair one content's key with another's columns. Nothing is
    stored."""
    with open(path, encoding="utf-8", newline="") as fh:  # as csv needs
        digest = _sha256(fh.buffer)
        if (at := _entry(path, digest)) and (d := _cached(*at, label)) is not None:
            return d, digest
        fh.seek(0)
        return ingest_csv(fh, skip_bad_rows=skip_bad_rows, label=label), digest


def write_points(d: Dataset, path: str | os.PathLike) -> None:
    """Write d to ``path`` as a point CSV (``write_csv``), whole or not at
    all, and store its cache entry, from which a read of those bytes builds
    what a parse of them builds (see the module docstring). The bytes are
    hashed through the handle that wrote them, before the move, and never
    read back whole. The entry holds d's float columns, which write_csv
    writes as their reprs and so read back bit for bit, d's labels as
    ingest_csv codes them (``_as_read``), and the studies a parse
    synthesizes from those. Nothing is stored where a read of those bytes
    fails: for no rows, or a label that holds NUL, which Python 3.10's csv
    rejects, or is longer than csv's field limit."""
    def write(fh):
        write_csv(d, fh)
        fh.seek(0)  # after flushing what write_csv left buffered
        return _sha256(fh.buffer)

    at = _entry(path, _replace(path, write, "w+"))
    labels = [_as_read(d._study, False), _as_read(d._unit, False), _as_read(d._assay, True)]
    limit = csv.field_size_limit()
    if at and len(d) and not any(
            s and ("\0" in s or len(s) > limit) for c in labels for s in c.table):
        _store(*at, d._x, d._y, d._weight, labels, _synthesize_studies(d._x, labels[0]))


def _replace(path: str | os.PathLike, write, mode: str):
    """What ``write(fh)`` returns, fh being a sibling temp file of ``path``
    opened in ``mode`` (text as UTF-8), which is moved to ``path`` only when
    write returns: a failure leaves neither a partial file at ``path`` nor
    the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            result = write(fh)
        os.replace(tmp, path)
        return result
    finally:
        tmp.unlink(missing_ok=True)


def _sha256(raw: BinaryIO) -> str:
    """The SHA-256, in hex, of the bytes left in the binary file raw. It is
    read in 64 KiB blocks, below glibc's default mmap threshold (128 KiB):
    a larger block, once freed, raises that threshold and so changes how
    every later large array of the process is allocated."""
    sha = hashlib.sha256()
    for block in iter(lambda: raw.read(1 << 16), b""):
        sha.update(block)
    return sha.hexdigest()


def _entry(path: str | os.PathLike, digest: str) -> Optional[tuple[Path, list]]:
    """The cache entry of the CSV at ``path`` and the key of its columns
    when its bytes have SHA-256 ``digest``; None, for no cache, where this
    module's source cannot be read."""
    if (reader := _reader_digest()) is None:
        return None
    path = Path(path)
    return path.parent / CACHE_DIR / f"{path.name}.cols", [digest, reader]


@functools.cache
def _reader_digest() -> Optional[str]:
    """SHA-256 of this module's source, or None if it cannot be read."""
    try:
        with open(__file__, "rb") as fh:
            return _sha256(fh)
    except OSError:
        return None


def _cached(entry: Path, key: list, label: str) -> Optional[Dataset]:
    """The Dataset of the cache entry at ``entry`` if its key is ``key``;
    None if there is no such entry or it is not one ``_store`` writes. A
    column stored as one row stays one: a read-only view of it, n rows
    long. The studies are the header's, so a hit synthesizes none."""
    try:
        with open(entry, "rb") as fh:
            head = json.loads(line := fh.readline())
            if head["key"] != key:
                return None
            n, shapes, tables, studies = (head[k] for k in ("n", "columns", "labels",
                                                             "studies"))
            if [d for d, _ in shapes] != _DTYPES or any(s not in (1, n) for _, s in shapes):
                return None
            stored = [np.fromfile(fh, d, s) for d, s in shapes]
            if fh.read(1) or _header(key, n, stored, tables, studies) != line:
                return None
        for c, table, kinds in zip(stored[3:], tables, (str, str, (str, type(None)))):
            if (type(table) is not list or not all(isinstance(s, kinds) for s in table)
                    or not 0 <= c.min() <= c.max() < len(table)):
                return None
        if not all(list(map(type, s)) == _STUDY_TYPES for s in studies):
            return None
        x, y, weight, *codes = (c if len(c) == n else np.broadcast_to(c, n) for c in stored)
        return Dataset._from_columns(x, y, weight, *map(_Codes, codes, map(tuple, tables)),
                                     [StudyMeta(*s) for s in studies], label)
    except Exception:  # nothing but a parse depends on the entry, and damaged
        return None     # bytes raise JSONDecodeError, KeyError, ValueError...


# The types of a StudyMeta's fields, in order, as an entry's header holds them.
_STUDY_TYPES = [str, str, int, int, float, float, float]


def _header(key: list, n: int, columns: Sequence[np.ndarray], tables: Sequence,
            studies: Sequence) -> bytes:
    """The header line of an entry of n rows storing these columns, label
    tables and studies (each a list of its fields) under key, with a CRC32
    over n, the tables, the studies and the columns."""
    crc = functools.reduce(lambda crc, c: zlib.crc32(c, crc), columns,
                           zlib.crc32(json.dumps([n, tables, studies]).encode()))
    return json.dumps({"key": key, "n": n, "columns": [[c.dtype.str, len(c)] for c in columns],
                       "labels": tables, "studies": studies, "crc": crc}).encode() + b"\n"


def _store(entry: Path, key: list, x, y, weight, labels: Sequence[_Codes],
           studies: Iterable[StudyMeta]) -> None:
    """Write the columns, a one-value column as one row, with the study, unit
    and assay labels and the studies, to the cache entry at ``entry`` under
    ``key``: to a temp file moved into place, or, if that cannot be written,
    not at all. No column is copied."""
    columns = [x, y, weight, *(c.codes for c in labels)]
    columns = [c[:1] if _same(c.view(f"i{c.itemsize}")) else c for c in columns]
    head = _header(key, len(x), columns, [c.table for c in labels],
                   [list(astuple(s)) for s in studies])
    try:
        entry.parent.mkdir(exist_ok=True)
        _replace(entry, lambda fh: fh.writelines([head, *columns]), "wb")
    except OSError:
        pass


# Lines in the first part of a CSV read (later parts hold as many
# characters), csv rows converted at a time, and rows written at a time: it
# bounds the lines and cell strings alive at once.
_CHUNK_ROWS = 4096


def _parts(source: TextIO | str):
    """The header row, if there is one, then the non-blank data rows,
    which csv.DictReader skips and does not count, one list per part of the
    text (see ``_texts``). A plain part (no ``"`` or NUL, no ``\\r`` but in a
    ``\\r\\n`` line end, and no line longer than ``csv.field_size_limit()``),
    which no csv quoting, line-end or size rule applies to, gives its lines.
    The first part that is not plain hands itself and the rest of the text
    to one csv.reader, whose rows come in lists of _CHUNK_ROWS."""
    texts, rownum = _texts(source), 1
    for text in texts:
        plain = text.replace("\r\n", "\n") if "\r" in text else text
        if '"' in plain or "\r" in plain or "\0" in plain:
            break
        rows = plain.split("\n")
        if max(map(len, rows)) > csv.field_size_limit():
            break
        del text, plain  # the part lives on only as its lines
        if rownum == 1:
            header = rows.pop(0)
            yield header.split(",") if header else []
            rownum = 2
        rows = list(filter(None, rows))
        rownum += len(rows)
        if rows:
            yield rows
    else:
        return
    rows = _csv_rows(chain.from_iterable(io.StringIO(t, newline="")
                                         for t in chain([text], texts)), rownum)
    if rownum == 1:
        yield from islice(rows, 1)
    yield from iter(lambda: list(islice(rows, _CHUNK_ROWS)), [])


def _texts(source: TextIO | str):
    """The text of source in parts that end where a line does: the first
    _CHUNK_ROWS lines, then, read in one go, as many characters as they
    hold plus the rest of the line they end in, until the text ends. A str
    is sliced at its ``\n``s, so it is never copied whole."""
    if isinstance(source, str):
        end = 0
        for _ in range(_CHUNK_ROWS):
            end = source.find("\n", end) + 1 or len(source)
        start, size = 0, end
        while start < len(source):
            yield source[start:end]
            start, end = end, source.find("\n", end + size) + 1 or len(source)
        return
    text = "".join(islice(source, _CHUNK_ROWS))
    size = len(text)
    while text:
        yield text
        text = source.read(size) + source.readline()


def _csv_rows(lines: Iterable[str], rownum: int):
    """The non-blank rows csv.reader reads from lines, the first of them
    being row ``rownum`` (a header, row 1, is given even if blank); a row it
    cannot read raises IngestError naming it."""
    try:
        for row in csv.reader(lines):
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
             tables: Mapping[str, dict]) -> tuple:
    """The x, y and weight columns and the study, unit and assay codes of a
    part of data rows under a header of ncols names. A bad cell or row
    raises ValueError before any label of the part gets a code; a new label
    takes the next code in its table. Ages, weights and labels repeat, so
    each is converted once per distinct cell; values rarely repeat, so
    float() runs on every y cell."""
    n, stride = len(rows), ncols + 1
    cells = _cells(rows, ncols)
    x, weight = np.empty(n), np.ones(n)
    x[:] = _by_distinct(cells[at["x"]::stride], float, float)
    y = np.fromiter(map(float, cells[at["y"]::stride]), float, n)
    if at["weight"] is not None:  # an empty weight is 1.0
        weight[:] = _by_distinct(cells[at["weight"]::stride],
                                 lambda w: float(w or "1"), float)
    if not _valid(x, y, weight).all():
        raise ValueError("a row breaks a row rule")
    codes = {c: np.zeros(n, dtype=np.intp) for c in tables}
    for c, table in tables.items():
        if at[c] is not None:
            codes[c][:] = _by_distinct(cells[at[c]::stride],
                                       lambda s: table.setdefault(s, len(table)),
                                       np.intp)
    return x, y, weight, *codes.values()


def _rejected(rows: list, at: Mapping[str, Optional[int]], ncols: int,
              first: int) -> dict[int, str]:
    """{index: "row N: reason"} of each of a part's rows that breaks a row
    rule, the part's first row being row ``first``."""
    cells, stride, bad = _cells(rows, ncols), ncols + 1, {}
    for i, x, y, w in zip(count(), *(repeat("") if at[c] is None else cells[at[c]::stride]
                                     for c in ("x", "y", "weight"))):
        try:
            _check_row(float(x), float(y), float(w or "1"))
        except ValueError as exc:
            bad[i] = f"row {first + i}: {exc}"
    return bad


def _by_distinct(cells: list[str], convert, dtype):
    """convert() of each cell, called once per distinct cell; when all cells
    are one, that one value, for the caller to broadcast. One compare, which
    stops at the first cell that differs, finds such a column unhashed."""
    if cells == [cells[0]] * len(cells):
        return convert(cells[0])
    value = {cell: convert(cell) for cell in dict.fromkeys(cells)}
    return np.fromiter(map(value.__getitem__, cells), dtype, len(cells))


def write_csv(d: Dataset, sink: TextIO) -> None:
    """Serialize a dataset back to the point CSV schema (round-trip stable).

    Cells are written as csv.writer writes them, except that a label holding
    ``\\r`` is quoted too, so that it reads back."""
    sink.write("study_id,x,y,unit,assay_id,weight\n")
    study, unit, assay = (_by_code(c.codes, list(map(_csv_cell, c.table)))
                          for c in (d._study, d._unit, d._assay))  # each label quoted once
    _write_lines(sink, "%s,%s,%r,%s,%s,%s\n", len(d), (
        study, _by_bits(d._x, repr), _by_bits(d._y), unit, assay,
        _by_bits(d._weight, repr)))


def _csv_cell(label: Optional[str]) -> str:
    """A label as a CSV cell: quoted, its quotes doubled, when it holds a
    comma, a quote, ``\\r`` or ``\\n``; None is an empty cell."""
    if label is None:
        return ""
    if any(c in label for c in ',"\r\n'):
        return '"' + label.replace('"', '""') + '"'
    return label


def _same(col: np.ndarray) -> bool:
    """Whether col has rows and every one equals the first."""
    return len(col) > 0 and bool((col == col[0]).all())


def _by_code(codes: np.ndarray, cells: list):
    """A coded column's cells, cells[code] of each row: its one cell when
    every code is equal, else a function of (a, b) giving rows a to b's."""
    if _same(codes):
        return cells[codes[0]]
    return lambda a, b: map(cells.__getitem__, codes[a:b].tolist())


def _by_bits(col: np.ndarray, fmt=None, scale=None):
    """A float column's cells: its one cell when every bit pattern of col is
    equal (so 0.0 and -0.0 stay apart), else a function of (a, b) giving
    rows a to b's. A cell is a float of col, mapped by ``scale`` a part at a
    time if given, or fmt() of that, called once per distinct bit pattern of
    a part: ages and weights repeat, as in _by_distinct."""
    scale = scale or (lambda part: part)
    if _same(col.view(np.int64)):
        cell = scale(col[:1])[0].item()
        return cell if fmt is None else fmt(cell)
    if fmt is None:
        return lambda a, b: scale(col[a:b]).tolist()

    def part(a, b):
        unique, at = np.unique(scale(col[a:b]).view(np.int64), return_inverse=True)
        cells = list(map(fmt, unique.view(np.float64).tolist()))
        return map(cells.__getitem__, at.tolist())
    return part


def _write_lines(sink: TextIO, line: str, n: int, columns: Sequence) -> None:
    """Write line % (row i's cells) for each of n rows, a _CHUNK_ROWS part
    at a time. ``line`` holds one directive per column and no other ``%``.
    A column is its one cell, written into the template once with its
    directive (any ``%`` it yields doubled), or a function of (a, b) giving
    the cells of rows a to b; one template formats the part's interleaved
    cells of those, the mirror of _cells. The plot's markers are written
    here too."""
    pieces = re.split(r"(%[^a-z]*[a-z])", line)  # text, directive, text, ...
    varying = []
    for i, col in enumerate(columns, start=1):
        if callable(col):
            varying.append(col)
        else:
            pieces[2 * i - 1] = (pieces[2 * i - 1] % (col,)).replace("%", "%%")
    line = "".join(pieces)
    for a in range(0, n, _CHUNK_ROWS):
        b = min(a + _CHUNK_ROWS, n)
        cells = zip(*(col(a, b) for col in varying))
        sink.write(line * (b - a) % tuple(chain.from_iterable(cells)))


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
    """Exact order statistics and sample moments (sd with n-1 denominator).

    The values are sorted as a stable sort would order them, bit for bit:
    numpy's default sort may swap equal values, and the only equal values
    with different bits are 0.0 and -0.0 (rows hold no NaN), so the zero
    block is written back in row order. A zero min, max or median keeps
    its sign, and the moments sum in the same order.
    """
    if len(d) == 0:
        raise ValueError("cannot describe an empty dataset")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    col = d.xs if axis == "x" else d.ys
    vals = np.sort(col)
    lo, hi = np.searchsorted(vals, 0.0, "left"), np.searchsorted(vals, 0.0, "right")
    if hi > lo:
        vals[lo:hi] = col[col == 0.0]
    mean, sd = _moments(vals)
    return Descriptives(count=len(vals), min=float(vals[0]), max=float(vals[-1]),
                        median=float(_median(vals)), mean=mean, sd=sd)


def _moments(vals: np.ndarray) -> tuple[float, float]:
    """Mean and sd (n-1 denominator; 0 for one value) of finite values. A
    moment whose sums overflow is taken of the values scaled by a power of
    two, which is exact, and scaled back, the mean kept within the values'
    range; a finite one keeps its bits. Ages are >= -1 and values >= 0, so
    both moments of a dataset fit a float."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(vals))
        sd = float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(sd)):
            k = math.frexp(float(np.max(np.abs(vals))))[1]
            scaled = np.ldexp(vals, -k)
            if not math.isfinite(mean):
                mean = math.ldexp(float(np.clip(np.mean(scaled), scaled.min(),
                                                scaled.max())), k)
            if not math.isfinite(sd):
                sd = math.ldexp(float(np.std(scaled, ddof=1)), k)
    return mean, sd


def split_by_assay(d: Dataset) -> dict[str, Dataset]:
    """Partition a dataset by assay_id; every point must carry one."""
    missing = sorted({sid for sid, assay in zip(d.study_ids, d.assay_ids)
                      if assay is None})
    if missing:
        raise ValueError("points without assay_id in studies: " + ", ".join(missing))
    codes, table = d._assay
    groups = {table[c]: c for c in np.flatnonzero(np.bincount(codes)).tolist()}
    return {name: d._take(codes == groups[name], name) for name in sorted(groups)}
