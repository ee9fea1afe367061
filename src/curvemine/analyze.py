"""Quantities derived from fitted models.

Derivatives and per-month loss rates, peak location by grid scan plus
golden-section refinement, percent-of-reserve-remaining, Pearson
correlation between two model-derived series, and homoscedastic
prediction bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from .dataset import Dataset
from .fit import FitResult
from .models import ModelSpec, evaluate, x_derivative

__all__ = [
    "PeakResult",
    "CorrelationReport",
    "IntervalBand",
    "derivative",
    "monthly_loss",
    "peak_age",
    "percent_remaining",
    "cross_correlation",
    "prediction_band",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def derivative(spec: ModelSpec, params: Sequence[float], x: float,
               method: str = "analytic") -> float:
    """dy/dx at x: "analytic" is the complex-step derivative of
    ``models.x_derivative``, exact to rounding; "central" is a central
    difference."""
    if method not in ("analytic", "central"):
        raise ValueError(f"unknown method {method!r}")
    if method == "analytic":
        val = float(x_derivative(spec, params, x))
    else:
        h = 1e-6 * max(1.0, abs(x))
        hi = float(evaluate(spec, params, x + h))
        lo = float(evaluate(spec, params, x - h))
        val = (hi - lo) / (2.0 * h)
    if not math.isfinite(val):
        raise ValueError(f"non-finite derivative of {spec.name} at x={x}")
    return val


def monthly_loss(spec: ModelSpec, params: Sequence[float], age: float) -> float:
    """Per-month decline rate of the model at the given age.

    Positive while the curve falls; an increasing curve reports negative
    loss (growth) verbatim.
    """
    return -derivative(spec, params, age) / 12.0


@dataclass(frozen=True)
class PeakResult:
    age: float
    value: float
    plateau: bool = False


def peak_age(objective: Callable[[float], float],
             x_range: tuple[float, float], grid: int = 256) -> PeakResult:
    """Argmax of a 1-d objective: coarse scan, then golden-section refinement.

    An all-equal objective is flagged as a plateau and reports the range
    midpoint.
    """
    lo, hi = x_range
    if not (lo < hi):
        raise ValueError("empty range")
    if grid < 16:
        raise ValueError("grid must be >= 16")
    xs = np.linspace(lo, hi, grid)
    vals = np.array([objective(float(x)) for x in xs])
    if not np.all(np.isfinite(vals)):
        raise ValueError("objective is non-finite on the range")
    if np.ptp(vals) == 0.0:
        return PeakResult(age=0.5 * (lo + hi), value=float(vals[0]), plateau=True)

    best = int(np.argmax(vals))
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, grid - 1)]
    tol = (hi - lo) / grid / 100.0

    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective(d)
    x_star = 0.5 * (a + b)
    v_star = objective(x_star)
    # Boundary maxima: the coarse-scan winner may beat the refined interior.
    if vals[best] > v_star:
        return PeakResult(age=float(xs[best]), value=float(vals[best]))
    return PeakResult(age=float(x_star), value=float(v_star))


def percent_remaining(spec: ModelSpec, params: Sequence[float], age: float,
                      reference: float | str = "peak",
                      domain: tuple[float, float] = (0.0, 60.0)) -> float:
    """100 * model(age) / model(reference).

    ``reference`` is either "peak" (the model maximum over ``domain``) or a
    reference age.
    """
    if reference == "peak":
        ref_value = peak_age(lambda t: float(evaluate(spec, params, t)),
                             domain).value
    else:
        ref_value = float(evaluate(spec, params, float(reference)))
    if not (ref_value > 0):
        raise ValueError(f"non-positive reference value {ref_value}")
    return 100.0 * float(evaluate(spec, params, age)) / ref_value


_TRANSFORMS = ("value", "derivative", "negated_derivative")


@dataclass(frozen=True)
class CorrelationReport:
    r: float
    age_range: tuple[float, float]
    grid_size: int
    transform_a: str
    transform_b: str


def _series(spec, params, transform, xs):
    if transform == "value":
        return np.asarray(evaluate(spec, params, xs), dtype=float)
    vals = np.array([derivative(spec, params, float(x)) for x in xs])
    return -vals if transform == "negated_derivative" else vals


def cross_correlation(spec_a: ModelSpec, params_a: Sequence[float],
                      spec_b: ModelSpec, params_b: Sequence[float],
                      age_range: tuple[float, float],
                      transform_a: str = "value",
                      transform_b: str = "value",
                      grid: Optional[int] = None) -> CorrelationReport:
    """Pearson r of two model-derived series on a uniform age grid.

    The default grid is monthly resolution: 12 points per year of range.
    """
    lo, hi = age_range
    if not (lo < hi):
        raise ValueError("empty age range")
    for t in (transform_a, transform_b):
        if t not in _TRANSFORMS:
            raise ValueError(f"unknown transform {t!r}")
    if grid is None:
        grid = max(3, int(round(12 * (hi - lo))))
    if grid < 3:
        raise ValueError("grid must be >= 3")
    xs = np.linspace(lo, hi, grid)
    sa = _series(spec_a, params_a, transform_a, xs)
    sb = _series(spec_b, params_b, transform_b, xs)
    if not (np.all(np.isfinite(sa)) and np.all(np.isfinite(sb))):
        raise ValueError("non-finite model values on the age range")
    if np.ptp(sa) == 0.0 or np.ptp(sb) == 0.0:
        raise ValueError("constant series: correlation undefined")
    r = float(np.corrcoef(sa, sb)[0, 1])
    return CorrelationReport(r=r, age_range=(lo, hi), grid_size=grid,
                             transform_a=transform_a, transform_b=transform_b)


@dataclass(frozen=True)
class IntervalBand:
    """Constant-width prediction band sampled on an x grid."""

    level: float
    xs: tuple[float, ...]
    fitted: tuple[float, ...]
    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def to_csv(self) -> str:
        lines = ["x,lower,fit,upper"]
        for x, lo, f, up in zip(self.xs, self.lower, self.fitted, self.upper):
            lines.append(f"{x!r},{lo!r},{f!r},{up!r}")
        return "\n".join(lines) + "\n"


def prediction_band(spec: ModelSpec, fit: FitResult, d: Dataset,
                    level: float = 0.95, grid: int = 200) -> IntervalBand:
    """y_hat(x) +/- z(level) * s, with s the residual standard deviation.

    Assumes homoscedastic normal residuals; the band width is constant.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must be in (0, 1)")
    dof = len(d) - spec.n_params
    if dof < 1:
        raise ValueError("non-positive degrees of freedom")
    s = math.sqrt(fit.rss / dof)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    xs = np.linspace(d.xs.min(), d.xs.max(), grid)
    fitted = np.asarray(evaluate(spec, fit.params, xs), dtype=float)
    half = z * s
    return IntervalBand(
        level=level,
        xs=tuple(float(v) for v in xs),
        fitted=tuple(float(v) for v in fitted),
        lower=tuple(float(v - half) for v in fitted),
        upper=tuple(float(v + half) for v in fitted),
    )
