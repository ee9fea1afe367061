"""Reconstruct microdata from published descriptive statistics.

A study that only publishes per-age (n, mean, SD or upper 95% prediction
limit) rows can still contribute: we back-solve the spread from the
prediction limit, match lognormal moments in closed form where the family
is lognormal, and draw reproducible synthetic samples of the right size.

All sampling is a pure function of (inputs, seed). Per-row streams are
derived with counter-based keys so generation order never matters.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np

from .dataset import Dataset

__all__ = [
    "SummaryRow",
    "LogNormalParams",
    "DEFAULT_Z_ONE_SIDED_95",
    "sd_from_upper_pl",
    "solve_lognormal",
    "lognormal_moments",
    "reconstruct_row",
    "reconstruct_dataset",
    "replicate",
    "read_summary_csv",
]

# "Upper 95% prediction limit" read as a one-sided bound.
DEFAULT_Z_ONE_SIDED_95 = 1.6448536269514722

SYNTHETIC_STUDY_ID = "synthetic"


@dataclass(frozen=True)
class SummaryRow:
    """Published descriptive statistics for one age: n subjects, mean, spread."""

    x: float
    n: int
    mean: float
    sd: Optional[float] = None
    upper_pl95: Optional[float] = None
    family: str = "normal"  # "normal" | "lognormal"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (self.mean > 0):
            raise ValueError("mean must be > 0")
        if self.sd is None and self.upper_pl95 is None:
            raise ValueError("need sd or upper_pl95")
        if self.sd is not None and not (self.sd > 0):
            raise ValueError("sd must be > 0 when given")
        if self.upper_pl95 is not None and not (self.upper_pl95 > self.mean):
            raise ValueError("upper_pl95 must exceed mean")
        if self.family not in ("normal", "lognormal"):
            raise ValueError(f"unknown family {self.family!r}")

    def resolved_sd(self, z: float = DEFAULT_Z_ONE_SIDED_95) -> float:
        if self.sd is not None:
            return self.sd
        return sd_from_upper_pl(self.mean, self.upper_pl95, z)


@dataclass(frozen=True)
class LogNormalParams:
    """Location/scale of the underlying Gaussian of a lognormal variable."""

    x_log: float
    y_log: float

    def __post_init__(self):
        if not (self.y_log > 0):
            raise ValueError("y_log must be > 0")


def sd_from_upper_pl(mean: float, pl95: float, z: float) -> float:
    """Back out the standard deviation hidden in an upper prediction limit."""
    if not (z > 0):
        raise ValueError("z must be > 0")
    if pl95 < mean:
        raise ValueError("prediction limit below the mean")
    return (pl95 - mean) / z


def solve_lognormal(mean: float, sd: float) -> LogNormalParams:
    """Closed-form lognormal moment matching.

    Inverts the natural-scale mean/sd into the Gaussian location x_log and
    scale y_log: y_log^2 = ln(1 + sd^2/mean^2), x_log = ln(mean) - y_log^2/2.
    """
    if not (mean > 0):
        raise ValueError("mean must be > 0")
    if not (sd > 0):
        raise ValueError("sd must be > 0")
    y2 = math.log1p((sd / mean) ** 2)
    x_log = math.log(mean) - 0.5 * y2
    return LogNormalParams(x_log=x_log, y_log=math.sqrt(y2))


def lognormal_moments(params: LogNormalParams) -> tuple[float, float]:
    """Forward map: natural-scale (mean, sd) of a lognormal. Oracle-friendly."""
    y2 = params.y_log ** 2
    mean = math.exp(params.x_log + 0.5 * y2)
    var = math.exp(2 * params.x_log + y2) * math.expm1(y2)
    return mean, math.sqrt(var)


def _rng(seed: int) -> np.random.Generator:
    # Philox: counter-based, so derived streams are order-independent.
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _derive_seed(master_seed: int, *indices: int) -> int:
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _moment_correct(samples: np.ndarray, target_mean: float, target_sd: float) -> np.ndarray:
    m = samples.mean()
    s = samples.std(ddof=1)
    if s == 0:
        # Degenerate draw (probability ~0): spread symmetric around the mean.
        n = len(samples)
        samples = target_mean + target_sd * np.linspace(-1, 1, n)
        s = samples.std(ddof=1)
        m = samples.mean()
    return target_mean + (samples - m) * (target_sd / s)


def reconstruct_row(row: SummaryRow, seed: int,
                    moment_correct: bool = False,
                    z: float = DEFAULT_Z_ONE_SIDED_95) -> np.ndarray:
    """Draw the row's n values from its declared family.

    With ``moment_correct`` the draw is affinely adjusted on the sampling
    scale (the Gaussian scale, before exponentiation for lognormal rows) so
    the sample mean and sample sd hit the targets exactly.
    """
    if moment_correct and row.n < 2:
        raise ValueError("moment correction needs n >= 2 (sd unadjustable)")
    sd = row.resolved_sd(z)
    rng = _rng(seed)
    if row.family == "normal":
        vals = rng.normal(row.mean, sd, size=row.n)
        if moment_correct:
            vals = _moment_correct(vals, row.mean, sd)
        return vals
    params = solve_lognormal(row.mean, sd)
    gauss = rng.normal(params.x_log, params.y_log, size=row.n)
    if moment_correct:
        gauss = _moment_correct(gauss, params.x_log, params.y_log)
    return np.exp(gauss)


def reconstruct_dataset(rows: Sequence[SummaryRow], seed: int,
                        moment_correct: bool = False,
                        z: float = DEFAULT_Z_ONE_SIDED_95,
                        unit: str = "",
                        label: str = "synthetic") -> Dataset:
    """Concatenate per-age reconstructions into one provenance-tagged dataset.

    Row seeds are derived from (seed, row index), so per-row generation is
    order-independent and safe to parallelize.
    """
    if not rows:
        raise ValueError("no summary rows")
    draws = []
    for i, row in enumerate(rows):
        vals = reconstruct_row(row, _derive_seed(seed, i),
                               moment_correct=moment_correct, z=z)
        bad = ~(np.isfinite(vals) & (vals >= 0))
        if bad.any():
            raise ValueError(
                f"summary row {i} (x={row.x!r}, family {row.family}) drew "
                f"{float(vals[bad.argmax()])!r}, but a reconstructed value must "
                f"be finite and >= 0")
        draws.append(vals)
    return Dataset.from_points(
        np.repeat(np.array([row.x for row in rows], dtype=float),
                  [len(v) for v in draws]),
        np.concatenate(draws), study=SYNTHETIC_STUDY_ID, unit=unit, label=label)


def replicate(rows: Sequence[SummaryRow], master_seed: int, k: int,
              moment_correct: bool = False,
              z: float = DEFAULT_Z_ONE_SIDED_95,
              unit: str = "") -> list[Dataset]:
    """Produce k independently seeded reconstructions of the same rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [
        reconstruct_dataset(rows, _derive_seed(master_seed, 1 + r),
                            moment_correct=moment_correct, z=z, unit=unit,
                            label=f"synthetic/{r}")
        for r in range(k)
    ]


def read_summary_csv(source: TextIO | str) -> list[SummaryRow]:
    """Read summary rows from CSV with header ``x,n,mean,sd,upper_pl95,family``.

    Empty cells mean the optional statistic is absent; family defaults to
    normal.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.DictReader(source)
    if reader.fieldnames is None:
        raise ValueError("empty summary file")
    for col in ("x", "n", "mean"):
        if col not in reader.fieldnames:
            raise ValueError(f"missing required column {col!r}")
    rows = []
    for rownum, rec in enumerate(reader, start=2):
        def opt(key):
            v = rec.get(key, "")
            return float(v) if v not in (None, "") else None
        try:
            rows.append(SummaryRow(
                x=float(rec["x"]),
                n=int(rec["n"]),
                mean=float(rec["mean"]),
                sd=opt("sd"),
                upper_pl95=opt("upper_pl95"),
                family=(rec.get("family") or "normal").strip().lower(),
            ))
        except (ValueError, KeyError) as exc:
            raise ValueError(f"summary row {rownum}: {exc}") from exc
    if not rows:
        raise ValueError("no summary rows")
    return rows
