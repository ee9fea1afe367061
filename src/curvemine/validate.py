"""Holdout validation of fitted models and descriptive similarity of cohorts.

A model fitted on training data is scored on unseen test data without
refitting; agreement between the two r^2 values is the headline number.
Works both with a random split of one dataset and with two independently
collected cohorts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset, Descriptives, describe
from .fit import r_squared
from .models import ModelSpec

__all__ = [
    "ValidationReport",
    "SimilarityReport",
    "split",
    "holdout_validate",
    "agreement",
    "compare_descriptives",
]


def agreement(r2_a: float, r2_b: float) -> Optional[float]:
    """min/max ratio of two r^2 values; None (undefined) unless both positive."""
    if r2_a > 0 and r2_b > 0:
        return min(r2_a, r2_b) / max(r2_a, r2_b)
    return None


@dataclass(frozen=True)
class ValidationReport:
    r2_train: float
    r2_test: float
    agreement: Optional[float]  # None when undefined (non-positive r^2)
    n_train: int
    n_test: int

    def as_dict(self) -> dict:
        return asdict(self)


def split(d: Dataset, fraction: float, seed: int = 0,
          stratify_bins: int = 1) -> tuple[Dataset, Dataset]:
    """Disjoint train/test partition; stratified over equal-width x-bins when asked.

    Deterministic per seed; the train share lands within one point of the
    requested fraction (per bin when stratifying).
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError("fraction must be in (0, 1)")
    if stratify_bins < 1:
        raise ValueError(f"stratify_bins must be >= 1, got {stratify_bins}")
    if len(d) < 4:
        raise ValueError("need at least 4 points to split")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    bins = np.zeros(len(d), dtype=int)
    if stratify_bins > 1:
        lo, hi = d.xs.min(), d.xs.max()
        bins = np.minimum(((d.xs - lo) / ((hi - lo) or 1.0) * stratify_bins)
                          .astype(int), stratify_bins - 1)
    train = np.zeros(len(d), dtype=bool)
    for b in np.unique(bins):  # the non-empty bins, in order
        members = np.flatnonzero(bins == b)
        train[rng.permutation(members)[:int(round(fraction * members.size))]] = True
    return d._take(train, "train"), d._take(~train, "test")


def holdout_validate(spec: ModelSpec, params: Sequence[float],
                     train: Dataset, test: Dataset) -> ValidationReport:
    """Score params (fitted on train) against both cohorts; never refits."""
    if len(test) == 0:
        raise ValueError("empty test set")
    if np.ptp(test.ys) == 0.0:
        raise ValueError("degenerate test set: all y identical")
    r2_train = r_squared(spec, params, train)
    r2_test = r_squared(spec, params, test)
    return ValidationReport(
        r2_train=r2_train,
        r2_test=r2_test,
        agreement=agreement(r2_train, r2_test),
        n_train=len(train),
        n_test=len(test),
    )


_STATS = tuple(f.name for f in fields(Descriptives))


@dataclass(frozen=True)
class SimilarityReport:
    """Per-statistic relative differences between two cohorts' y-descriptives."""

    stats_a: Descriptives
    stats_b: Descriptives
    relative_differences: dict[str, float]
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "a": self.stats_a.as_dict(),
            "b": self.stats_b.as_dict(),
            "relative_differences": self.relative_differences,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }

    def to_text(self) -> str:
        lines = [f"{'statistic':<10} {'a':>14} {'b':>14} {'rel.diff':>10}"]
        for name in _STATS:
            va = getattr(self.stats_a, name)
            vb = getattr(self.stats_b, name)
            lines.append(f"{name:<10} {va:>14.6g} {vb:>14.6g} "
                         f"{self.relative_differences[name]:>10.4g}")
        lines.append(f"pass: {self.passed} (tolerance {self.tolerance})")
        return "\n".join(lines)


def compare_descriptives(a: Dataset, b: Dataset,
                         tolerance: float = 0.1) -> SimilarityReport:
    """Compare y-axis descriptive statistics of two cohorts."""
    da = describe(a, axis="y")
    db = describe(b, axis="y")
    diffs = {}
    for name in _STATS:
        va, vb = float(getattr(da, name)), float(getattr(db, name))
        denom = max(abs(va), abs(vb))
        diffs[name] = abs(va - vb) / denom if denom > 0 else 0.0
    return SimilarityReport(
        stats_a=da, stats_b=db,
        relative_differences=diffs,
        tolerance=tolerance,
        passed=all(v <= tolerance for v in diffs.values()),
    )
