"""Per-study datapoint collections: ingestion, unit normalization, merging, summaries.

Every observation keeps its study (and optionally assay) provenance so that
combined datasets can always be traced back to their sources. A Dataset is a
column store: float64 x, y and weight, and study, unit and assay as integer
codes into label tables, built and checked once per operation. Datasets are
immutable and all operations here are pure. ``Dataset.from_points`` builds
one from point columns; its name stays because the benchmark's trace wraps it.
``ingest_cached`` reads a point CSV file as ``ingest_csv`` does and keeps
the columns it parsed in a content-addressed cache beside the file.
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
from dataclasses import asdict, dataclass, field
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
        cite, labelled ``label/part`` (``part`` when this has no label)."""
        study, unit, assay = (_Codes(c.codes[rows], c.table)
                              for c in (self._study, self._unit, self._assay))
        cited = {study.table[c] for c in np.unique(study.codes).tolist()}
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
    study, unit, assay = (_Codes(c, tuple(t) or ("",)) for c, t in zip(codes, tables.values()))
    assay = assay._replace(table=tuple(s or None for s in assay.table))  # "" is no assay
    return Dataset._from_columns(x, y, weight, study, unit, assay, None, label)


# The directory, beside a CSV, that holds its cache entry.
CACHE_DIR = "__curvemine_cache__"
# A cache entry holds each of these label columns as its codes and, under
# "<name>_labels", its table as UTF-8 JSON: a numpy str array would drop a
# label's trailing NUL.
_LABELS = ("study", "unit", "assay")


def ingest_cached(raw: BinaryIO, path: str | os.PathLike, skip_bad_rows: bool = False,
                  label: str = "") -> tuple[Dataset, str]:
    """``ingest_csv`` of the point CSV at ``path``, open in binary as ``raw``,
    and the SHA-256 of the bytes read, in hex.

    As ``__pycache__`` keeps bytecode (PEP 3147), the columns a parse gives
    are kept in one entry per CSV, ``<dir>/__curvemine_cache__/<name>.npz``,
    keyed by the CSV's SHA-256, ``skip_bad_rows`` and the SHA-256 of this
    module's source. A read whose key is the entry's builds the Dataset
    from the stored columns through the same row rules and study synthesis
    as a parse; any other read parses and writes the entry. The digest and
    the parse are of one open file, so a file replaced meanwhile cannot
    pair one content's key with another's columns. An entry that cannot be
    read is a miss, and one that cannot be written is not kept, so a
    read-only directory gets no cache; a parse that fails raises as
    ``ingest_csv`` does and writes no entry.
    """
    # 64 KiB blocks stay below glibc's default mmap threshold (128 KiB); a
    # larger block, once freed, raises that threshold and so changes how
    # every later large array of the process is allocated.
    sha = hashlib.sha256()
    for block in iter(lambda: raw.read(1 << 16), b""):
        sha.update(block)
    digest, reader = sha.hexdigest(), _reader_digest()
    path = Path(path)
    entry = path.parent / CACHE_DIR / f"{path.name}.npz"
    key = json.dumps([digest, reader, skip_bad_rows]).encode()
    d = _cached(entry, key, label) if reader else None
    if d is None:
        raw.seek(0)
        text = io.TextIOWrapper(raw, encoding="utf-8", newline="")  # as csv needs
        try:
            d = ingest_csv(text, skip_bad_rows=skip_bad_rows, label=label)
        finally:
            text.detach()  # raw stays open for its owner
        if reader:
            _store(entry, key, d)
    return d, digest


@functools.cache
def _reader_digest() -> Optional[str]:
    """SHA-256 of this module's source, in every cache key, so that any edit
    to the reader retires every entry; None, and no cache, if unreadable."""
    try:
        with open(__file__, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def _cached(entry: Path, key: bytes, label: str) -> Optional[Dataset]:
    """The Dataset of the cache entry at ``entry`` if its key is ``key``;
    None if there is no such entry or it is not one ``_store`` writes."""
    try:
        with np.load(entry, allow_pickle=False) as z:
            if z["key"].tobytes() != key:
                return None
            x, y, weight = z["x"], z["y"], z["weight"]
            codes = [z[c] for c in _LABELS]
            tables = [json.loads(z[f"{c}_labels"].tobytes()) for c in _LABELS]
        n = x.shape
        if len(n) != 1 or any(c.dtype != np.float64 or c.shape != n
                              for c in (x, y, weight)):
            return None
        for c, table, kinds in zip(codes, tables, (str, str, (str, type(None)))):
            if (c.dtype != np.intp or c.shape != n or type(table) is not list
                    or not all(isinstance(s, kinds) for s in table)
                    or (n[0] and not 0 <= c.min() <= c.max() < len(table))):
                return None
        return Dataset._from_columns(x, y, weight, *map(_Codes, codes, map(tuple, tables)),
                                     None, label)
    except Exception:  # nothing but a parse depends on the entry, and damaged
        return None     # bytes raise BadZipFile, EOFError, NotImplementedError...


def _store(entry: Path, key: bytes, d: Dataset) -> None:
    """Write d's columns to the cache entry at ``entry`` under ``key``: to a
    temp file moved into place, or, if that cannot be written, not at all."""
    tmp = entry.with_name(f".{entry.name}.{os.getpid()}.tmp")
    arrays = {"key": np.frombuffer(key, np.uint8), "x": d._x, "y": d._y, "weight": d._weight}
    for c in _LABELS:
        codes, table = getattr(d, f"_{c}")
        arrays[c] = codes
        arrays[f"{c}_labels"] = np.frombuffer(json.dumps(table).encode(), np.uint8)
    try:
        entry.parent.mkdir(exist_ok=True)
        try:
            with open(tmp, "wb") as fh:
                np.savez(fh, **arrays)
            os.replace(tmp, entry)
        finally:
            tmp.unlink(missing_ok=True)
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
    """Exact order statistics and sample moments (sd with n-1 denominator)."""
    if len(d) == 0:
        raise ValueError("cannot describe an empty dataset")
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    vals = np.sort(d.xs if axis == "x" else d.ys, kind="stable")
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
    groups = {table[c]: c for c in np.unique(codes).tolist()}
    return {name: d._take(codes == groups[name], name) for name in sorted(groups)}
