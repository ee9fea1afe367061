"""Parametric model catalog: evaluation, analytic gradients, guesses, plausibility.

Each ModelSpec bundles four pieces: a family's forward evaluation, its
analytic parameter gradient (for the fitter), parameter bounds, and an
initial-guess heuristic driven by data descriptives. The x-derivative used
in downstream analysis is not written per family: ``x_derivative`` takes a
complex step through the evaluation, so ``eval_fn`` must accept complex x.
The built-in catalog covers six family classes and is user-extensible via
``register_model``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dataset import Dataset

__all__ = [
    "ModelSpec",
    "PlausibilityConfig",
    "catalog",
    "register_model",
    "get_model",
    "evaluate",
    "gradient",
    "x_derivative",
    "initial_guess",
    "check_plausibility",
    "spec_to_dict",
]

Array = np.ndarray
EvalFn = Callable[[Array, Array], Array]
GradFn = Callable[[Array, Array], Array]
GuessFn = Callable[[Array, Array], Array]

_TINY = 1e-12
_COMPLEX_STEP = 1e-20
_PLAUSIBILITY_GRID = 512


@dataclass(frozen=True)
class ModelSpec:
    """One parametric family y = f(theta, x).

    Batch contract: ``eval_fn(p, x)`` and ``grad_fn(p, x)`` receive ``p``
    either as one parameter vector of shape (n_params,) or as a batch of k
    vectors, passed as n_params arrays of shape (k,) + (1,) * x.ndim, so
    ``a, b = p`` works in both cases. With a batch, ``eval_fn`` returns
    shape (k,) + x.shape and ``grad_fn`` returns (n_params, k) + x.shape, or
    (n_params,) + x.shape when the Jacobian depends on x only. Row i of a
    batch must equal the call with vector i alone: use numpy functions
    rather than ``math`` ones, and no Python ``if`` on a parameter.

    ``eval_fn`` must also accept complex x and stay analytic in it, since
    dy/dx is Im f(x + ih) / h (see ``x_derivative``): numpy functions only,
    no ``math``, no comparisons on x and no casts of x to float.

    ``linear`` lists the parameters that enter linearly: f(theta, c) =
    f(theta, 0) + sum_j c_j phi_j(theta, x), where phi_j is row j of
    ``grad_fn`` and may not depend on c. Their bounds must be unbounded. The
    fitter then solves them exactly at every value of the other parameters
    (variable projection, see ``curvemine.fit``), and ``guess_fn(xs, ys)``
    returns starting values only for the other parameters, in index order
    (by default none). Declare only what an oracle shows fits no worse.

    ``register_model`` checks these contracts with a 2-vector probe.
    """

    name: str
    n_params: int
    family_class: str  # polynomial | exponential | sigmoidal | peaked | rational | power
    eval_fn: EvalFn
    grad_fn: GradFn
    guess_fn: GuessFn = lambda xs, ys: ()
    bounds: tuple[tuple[float, float], ...] = ()
    linear: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.bounds:
            object.__setattr__(
                self, "bounds",
                tuple((-np.inf, np.inf) for _ in range(self.n_params)))
        if len(self.bounds) != self.n_params:
            raise ValueError(f"{self.name}: bounds/params length mismatch")
        object.__setattr__(self, "linear", tuple(sorted(self.linear)))
        if (len(set(self.linear)) != len(self.linear)
                or not set(self.linear) <= set(range(self.n_params))):
            raise ValueError(f"{self.name}: linear must list distinct parameter "
                             f"indices below {self.n_params}")


@dataclass(frozen=True)
class PlausibilityConfig:
    """Constraints a candidate model must satisfy over the data domain."""

    domain: tuple[float, float] = (0.0, 60.0)
    require_nonnegative: bool = False
    max_sign_changes_of_derivative: Optional[int] = None

    def __post_init__(self):
        lo, hi = self.domain
        if not (lo < hi):
            raise ValueError("empty plausibility domain")


def _param_columns(p: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """A (k, n_params) batch as n_params arrays of shape (k,) + (1,) * x.ndim."""
    if p.ndim == 1:
        return p
    return p.T.reshape(p.shape[::-1] + (1,) * xv.ndim)


def _jacobian(spec: ModelSpec, p: np.ndarray, xv: np.ndarray) -> np.ndarray:
    """``grad_fn`` at one vector p, shape (n_params,) + x.shape, or at a
    (k, n_params) batch, shape (k, n_params) + x.shape; a Jacobian of x only
    is broadcast to every row. The caller holds the ``np.errstate``."""
    g = np.asarray(spec.grad_fn(_param_columns(p, xv), xv), dtype=float)
    if g.ndim == xv.ndim + 2:  # (n_params, k) + x.shape from a batch
        return g.swapaxes(0, 1)
    return g if p.ndim == 1 else np.broadcast_to(g, p.shape + xv.shape)


def _bounds(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bounds of ``spec`` as two arrays."""
    return tuple(np.array(spec.bounds, dtype=float).T)


def evaluate(spec: ModelSpec, params: Sequence[float], x) -> np.ndarray | float:
    """Evaluate the model; poles/overflow come back as non-finite, never raise.

    ``params`` is one vector (n_params,) or a batch (k, n_params); a batch
    gives shape (k,) + shape(x).
    """
    p = np.asarray(params, dtype=float)
    xv = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        y = spec.eval_fn(_param_columns(p, xv), xv)
    y = np.asarray(y, dtype=float)
    if p.ndim == 1 and (np.isscalar(x) or xv.ndim == 0):
        return float(y)
    return y


def gradient(spec: ModelSpec, params: Sequence[float], x) -> np.ndarray:
    """Analytic partials dy/dtheta_j, shape (n_params,) + shape(x).

    A batch (k, n_params) gives (k, n_params) + shape(x), also for a family
    whose Jacobian depends on x only.
    """
    p = np.asarray(params, dtype=float)
    xv = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        return _jacobian(spec, p, xv)


def x_derivative(spec: ModelSpec, params: Sequence[float], x) -> np.ndarray | float:
    """dy/dx by complex step, Im f(x + ih) / h with h = 1e-20.

    Exact to rounding wherever f is analytic in x (Squire & Trapp 1998,
    SIAM Rev. 40:110). NaN where f(x) is non-finite. f is evaluated at
    steps h and 2h; where the two quotients differ, x is a branch point
    such as 0 for x**b, and the result is the one-sided limit: 0 where the
    quotient shrinks with h, infinite where it grows. Quotients whose
    imaginary parts underflow (below ~1e-290) are taken as they are.
    """
    p = np.asarray(params, dtype=float)
    xv = np.asarray(x, dtype=float)
    z = xv + 1j * _COMPLEX_STEP * np.array([1.0, 2.0]).reshape(
        (2,) + (1,) * xv.ndim)
    with np.errstate(all="ignore"):
        im = np.broadcast_to(spec.eval_fn(p, z), z.shape).imag
        d, d2 = im[0] / _COMPLEX_STEP, im[1] / (2.0 * _COMPLEX_STEP)
        branch = ((np.abs(d2 - d) > 1e-9 * np.abs(d))
                  & (np.abs(im).max(axis=0) > 1e-290))
        d = np.where(branch, np.where(np.abs(d) > np.abs(d2), d * np.inf, 0.0), d)
    d = np.where(np.isfinite(evaluate(spec, p, xv)), d, np.nan)
    return float(d) if np.isscalar(x) or xv.ndim == 0 else d


def initial_guess(spec: ModelSpec, d: Dataset) -> np.ndarray:
    """Data-driven starting parameters, clipped into the spec's bounds; the
    ``linear`` ones, which the fitter solves, start at 0."""
    if len(d) < spec.n_params:
        raise ValueError(
            f"{spec.name}: need >= {spec.n_params} points, got {len(d)}")
    return _guess(spec, d.xs, d.ys)


def _guess(spec: ModelSpec, xs: Array, ys: Array) -> Array:
    """``initial_guess`` from the points (xs, ys); raises if ``guess_fn``
    does not give one value per parameter that is not ``linear``."""
    with np.errstate(all="ignore"):
        theta = np.asarray(spec.guess_fn(xs, ys), dtype=float)
    free = [j for j in range(spec.n_params) if j not in spec.linear]
    if theta.shape != (len(free),):
        raise ValueError(f"{spec.name}: guess_fn gave shape {theta.shape}, not "
                         f"({len(free)},), one per parameter not linear")
    p = np.zeros(spec.n_params)
    p[free] = np.where(np.isfinite(theta), theta, 0.0)
    return np.clip(p, *_bounds(spec))


def check_plausibility(spec: ModelSpec, params: Sequence[float],
                       cfg: PlausibilityConfig) -> tuple[bool, str]:
    """Scan of the model on a 512-point grid over the domain: every value
    must be finite, then meet the configured constraints."""
    lo, hi = cfg.domain
    y = np.asarray(evaluate(spec, params, np.linspace(lo, hi, _PLAUSIBILITY_GRID)),
                   dtype=float)
    if not np.isfinite(y).all():
        return False, "non-finite value in domain"
    if cfg.require_nonnegative and np.any(y < -1e-9 * max(1.0, float(np.max(np.abs(y))))):
        return False, "negative value in domain"
    if cfg.max_sign_changes_of_derivative is not None:
        dy = np.diff(y)
        scale = max(1e-300, float(np.max(np.abs(dy))))
        signs = np.sign(dy[np.abs(dy) > 1e-9 * scale])
        changes = int(np.sum(signs[1:] != signs[:-1])) if signs.size > 1 else 0
        if changes > cfg.max_sign_changes_of_derivative:
            return False, f"derivative changes sign {changes} times"
    return True, "ok"


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "name": spec.name,
        "n_params": spec.n_params,
        "family_class": spec.family_class,
        "bounds": [[lo, hi] for lo, hi in spec.bounds],
    }


# ---------------------------------------------------------------------------
# Guess helpers
# ---------------------------------------------------------------------------

def _span(v: Array, floor: float = 1e-6) -> float:
    return max(float(v.max() - v.min()), floor)


def _lstsq(design: Array, ys: Array) -> Array:
    sol, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return sol


def _log_linear_decay(xs, ys):
    """Fit log y ~ intercept + slope*x on the strictly-positive points."""
    mask = ys > 0
    if mask.sum() >= 2:
        sol = _lstsq(np.vander(xs[mask], 2, increasing=True), np.log(ys[mask]))
        return math.exp(min(sol[0], 300.0)), -sol[1]
    return max(float(ys.max()), _TINY), 1.0 / _span(xs)


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ModelSpec] = {}


def _check_batch_contract(spec: ModelSpec) -> None:
    """Evaluate and differentiate a 2-vector batch; each row must match its
    own single-vector call, and the complex-step dy/dx of the first row must
    match a central difference (see ``ModelSpec``). Also checks the
    ``linear`` declaration and the length of ``guess_fn``'s output."""
    ramp = np.linspace(0.6, 1.4, spec.n_params)
    batch = np.clip(np.stack([ramp, ramp[::-1] + 0.05]), *_bounds(spec))
    x = np.linspace(0.5, 3.0, 4)
    try:
        for fn in (evaluate, gradient):
            got = fn(spec, batch, x)
            rows = np.stack([fn(spec, row, x) for row in batch])
            if not (got.shape == rows.shape and np.allclose(
                    got, rows, rtol=1e-9, atol=0.0, equal_nan=True)):
                raise ValueError(f"{fn.__name__} of a batch differs from "
                                 f"its rows")
        h = 1e-6 * x
        central = (evaluate(spec, batch[0], x + h)
                   - evaluate(spec, batch[0], x - h)) / (2.0 * h)
        if not np.allclose(x_derivative(spec, batch[0], x), central,
                           rtol=1e-6, atol=1e-9 * np.abs(central).max()):
            raise ValueError("complex-step dy/dx differs from a central "
                             "difference: eval_fn must take complex x")
        if spec.linear:
            _check_linear(spec, batch, x)
        _guess(spec, x, evaluate(spec, batch[0], x))
    except (TypeError, ValueError, IndexError) as exc:
        raise ValueError(
            f"model {spec.name!r} breaks the ModelSpec contract: {exc}") from exc


def _check_linear(spec: ModelSpec, batch: Array, x: Array) -> None:
    """The ``linear`` parameters of ``batch`` must be unbounded, and moving
    them must change eval_fn by exactly sum_j c_j phi_j and leave their own
    grad_fn rows phi_j unchanged."""
    lin = list(spec.linear)
    if any(spec.bounds[j] != (-np.inf, np.inf) for j in lin):
        raise ValueError("a linear parameter must have (-inf, inf) bounds")
    zero = batch.copy()
    zero[:, lin] = 0.0
    phi, base = gradient(spec, zero, x)[:, lin], evaluate(spec, zero, x)
    for c in (batch[:, lin], 3.0 * batch[:, lin] - 2.0):
        moved = zero.copy()
        moved[:, lin] = c
        if not np.allclose(gradient(spec, moved, x)[:, lin], phi, rtol=1e-9,
                           atol=0.0):
            raise ValueError("grad_fn rows of the linear parameters change "
                             "with those parameters")
        want = base + np.einsum("kl,kln->kn", c, phi)
        if not np.allclose(evaluate(spec, moved, x), want, rtol=1e-9,
                           atol=1e-12 * np.abs(want).max()):
            raise ValueError("eval_fn is not additive in its linear parameters")


def _add(spec: ModelSpec) -> ModelSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"model {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def register_model(spec: ModelSpec) -> ModelSpec:
    """Add a family to the catalog after checking its batch and complex-x
    contracts (see ``ModelSpec``)."""
    _check_batch_contract(spec)
    return _add(spec)


def get_model(name: str) -> ModelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown model {name!r}; see catalog()") from None


def catalog() -> list[ModelSpec]:
    """All registered model families, in registration order."""
    return list(_REGISTRY.values())


def _register(name, family, n, eval_fn, grad_fn, guess_fn=ModelSpec.guess_fn,
              bounds=(), linear=()):
    # Built-ins skip the import-time batch probe, which would slow every CLI
    # start; the test suite runs it on each of them.
    _add(ModelSpec(
        name=name, n_params=n, family_class=family,
        eval_fn=eval_fn, grad_fn=grad_fn, guess_fn=guess_fn,
        bounds=tuple(bounds), linear=linear,
    ))


def _with_offset(base: ModelSpec, name: str, lift: float,
                 linear: tuple[int, ...] = ()) -> ModelSpec:
    """``base`` plus a free constant c as the last parameter. The guess fits
    ``base`` to ys - min(ys) + lift and starts c at min(ys); a log-based
    base guess needs lift > 0 to keep every point positive. ``linear``
    names base parameters that the offset family declares linear; c then
    joins them, and the guess drops them."""
    n = base.n_params

    def f(p, x):
        return base.eval_fn(p[:n], x) + p[n]

    def g(p, x):
        gb = base.grad_fn(p[:n], x)
        return np.concatenate([gb, _ones_like(gb[:1])])

    def guess(xs, ys):
        c = float(ys.min())
        p = base.guess_fn(xs, ys - c + lift)
        return np.delete(p, linear) if linear else np.append(p, c)

    return ModelSpec(name=name, n_params=n + 1, family_class=base.family_class,
                     eval_fn=f, grad_fn=g, guess_fn=guess,
                     bounds=base.bounds + ((-np.inf, np.inf),),
                     linear=linear + (n,) if linear else ())


def _ones_like(x):
    return np.ones_like(np.asarray(x, dtype=float))


# --- polynomials, degree 0..5 ---

def _make_poly(deg: int):
    def f(p, x):
        return np.polynomial.polynomial.polyval(x, p, tensor=False)

    def g(p, x):
        return np.stack([x ** j * _ones_like(x) for j in range(deg + 1)])

    _register(f"poly{deg}", "polynomial", deg + 1, f, g,
              linear=range(deg + 1))


for _deg in range(6):
    _make_poly(_deg)


# --- exponential class ---

def _exp_decay(p, x):
    a, b = p
    return a * np.exp(-b * x)

def _exp_decay_g(p, x):
    a, b = p
    e = np.exp(-b * x)
    return np.stack([e, -a * x * e])

_register("exp_decay", "exponential", 2, _exp_decay, _exp_decay_g,
          lambda xs, ys: np.array(_log_linear_decay(xs, ys)))
_add(_with_offset(get_model("exp_decay"), "exp_decay_offset", lift=1e-3,
                  linear=(0,)))


def _dbl_exp(p, x):
    a, b, c, d = p
    return a * np.exp(-b * x) + c * np.exp(-d * x)

def _dbl_exp_g(p, x):
    a, b, c, d = p
    e1, e2 = np.exp(-b * x), np.exp(-d * x)
    return np.stack([e1, -a * x * e1, e2, -c * x * e2])

_register("double_exp_decay", "exponential", 4, _dbl_exp, _dbl_exp_g,
          lambda xs, ys: np.array([2.0 / _span(xs), 0.3 / _span(xs)]),
          linear=(0, 2))


def _exp_sat(p, x):
    a, b = p
    return a * (1.0 - np.exp(-b * x))

def _exp_sat_g(p, x):
    a, b = p
    e = np.exp(-b * x)
    return np.stack([1.0 - e, a * x * e])

_register("exp_saturating", "exponential", 2, _exp_sat, _exp_sat_g,
          lambda xs, ys: np.array([2.0 / _span(xs)]), linear=(0,))


def _exp_quad(p, x):
    a, b, c = p
    return np.exp(a + b * x + c * x * x)

def _exp_quad_g(p, x):
    y = _exp_quad(p, x)
    return np.stack([y, x * y, x * x * y])

def _exp_quad_guess(xs, ys):
    mask = ys > 0
    if mask.sum() >= 3:
        sol = _lstsq(np.vander(xs[mask], 3, increasing=True), np.log(ys[mask]))
        return np.clip(sol, -50.0, 50.0)
    return np.array([math.log(max(float(np.abs(ys).mean()), _TINY)), 0.0, 0.0])

_register("exp_quadratic", "exponential", 3, _exp_quad, _exp_quad_g,
          _exp_quad_guess)


def _stretched(p, x):
    a, b, q = p
    return a * np.exp(-np.power(x / b, q))

def _stretched_g(p, x):
    a, b, q = p
    u = x / b
    uq = np.power(u, q)
    e = np.exp(-uq)
    return np.stack([e, a * e * uq * q / b, -a * e * uq * np.log(u)])

_register("stretched_exp", "exponential", 3, _stretched, _stretched_g,
          lambda xs, ys: np.array([max(float(ys.max()), _TINY), _span(xs) / 2.0, 1.0]),
          bounds=[(-np.inf, np.inf), (_TINY, np.inf), (_TINY, np.inf)])


# --- sigmoidal class ---

def _logistic(p, x):
    L, k, x0 = p
    return L / (1.0 + np.exp(-k * (x - x0)))

def _logistic_g(p, x):
    L, k, x0 = p
    s = np.exp(-k * (x - x0))
    den = (1.0 + s) ** 2
    return np.stack([1.0 / (1.0 + s), L * (x - x0) * s / den, -L * k * s / den])

def _sigmoid_guess(xs, ys):
    slope_sign = 1.0 if np.corrcoef(xs, ys)[0, 1] >= 0 else -1.0
    return np.array([float(ys.max()), slope_sign * 4.0 / _span(xs),
                     float(np.median(xs))])

_register("logistic", "sigmoidal", 3, _logistic, _logistic_g, _sigmoid_guess)
_add(_with_offset(get_model("logistic"), "logistic_offset", lift=0.0))


def _gompertz(p, x):
    a, b, c = p
    return a * np.exp(-b * np.exp(-c * x))

def _gompertz_g(p, x):
    a, b, c = p
    e = np.exp(-c * x)
    y = a * np.exp(-b * e)
    return np.stack([np.exp(-b * e), -y * e, y * b * x * e])

_register("gompertz", "sigmoidal", 3, _gompertz, _gompertz_g,
          lambda xs, ys: np.array([float(ys.max()), 1.0, 2.0 / _span(xs)]),
          bounds=[(-np.inf, np.inf), (_TINY, np.inf), (-np.inf, np.inf)])


def _hill(p, x):
    a, k, h = p
    xh = np.power(x, h)
    return a * xh / (np.power(k, h) + xh)

def _hill_g(p, x):
    a, k, h = p
    xh = np.power(x, h)
    kh = np.power(k, h)
    den = (kh + xh) ** 2
    gk = -a * xh * h * np.power(k, h - 1.0) / den
    gh = a * kh * xh * (np.log(x) - np.log(k)) / den
    return np.stack([xh / (kh + xh), gk, gh])

_register("hill_sigmoid", "sigmoidal", 3, _hill, _hill_g,
          lambda xs, ys: np.array([float(ys.max()),
                                   max(float(np.median(xs)), 1e-3), 2.0]),
          bounds=[(-np.inf, np.inf), (_TINY, np.inf), (_TINY, np.inf)])


def _tanh_sig(p, x):
    a, b, k, x0 = p
    return a + b * np.tanh(k * (x - x0))

def _tanh_sig_g(p, x):
    a, b, k, x0 = p
    t = np.tanh(k * (x - x0))
    sech2 = 1.0 - t * t
    return np.stack([_ones_like(t), t, b * (x - x0) * sech2, -b * k * sech2])

_register("tanh_sigmoid", "sigmoidal", 4, _tanh_sig, _tanh_sig_g,
          lambda xs, ys: np.array([float(ys.mean()), _span(ys) / 2.0,
                                   2.0 / _span(xs), float(np.median(xs))]))


# --- peaked class ---

def _gauss(p, x):
    A, c, w = p
    return A * np.exp(-((x - c) ** 2) / (2.0 * w * w))

def _gauss_g(p, x):
    A, c, w = p
    u = x - c
    e = np.exp(-(u * u) / (2.0 * w * w))
    return np.stack([e, A * e * u / (w * w), A * e * u * u / (w ** 3)])

def _peak_guess(xs, ys):
    return np.array([float(ys.max()), float(xs[np.argmax(ys)]), _span(xs) / 6.0])

_register("gaussian_peak", "peaked", 3, _gauss, _gauss_g, _peak_guess,
          bounds=[(-np.inf, np.inf), (-np.inf, np.inf), (_TINY, np.inf)])
_add(_with_offset(get_model("gaussian_peak"), "gaussian_peak_offset", lift=0.0))


def _lognorm_peak(p, x):
    A, c, w = p
    u = np.log(x / c)
    return A * np.exp(-(u * u) / (2.0 * w * w))

def _lognorm_peak_g(p, x):
    A, c, w = p
    u = np.log(x / c)
    e = np.exp(-(u * u) / (2.0 * w * w))
    return np.stack([e, A * e * u / (w * w * c), A * e * u * u / (w ** 3)])

_register("lognormal_peak", "peaked", 3, _lognorm_peak, _lognorm_peak_g,
          lambda xs, ys: np.array([float(ys.max()),
                                   max(float(xs[np.argmax(ys)]), 1e-3), 0.5]),
          bounds=[(-np.inf, np.inf), (_TINY, np.inf), (_TINY, np.inf)])


def _lorentz(p, x):
    A, c, w = p
    u = (x - c) / w
    return A / (1.0 + u * u)

def _lorentz_g(p, x):
    A, c, w = p
    u = (x - c) / w
    den = (1.0 + u * u) ** 2
    return np.stack([1.0 / (1.0 + u * u), 2.0 * A * u / (w * den),
                     2.0 * A * u * u / (w * den)])

_register("lorentzian_peak", "peaked", 3, _lorentz, _lorentz_g, _peak_guess,
          bounds=[(-np.inf, np.inf), (-np.inf, np.inf), (_TINY, np.inf)])


def _gamma_peak(p, x):
    A, c = p
    u = x / c
    return A * u * np.exp(1.0 - u)

def _gamma_peak_g(p, x):
    A, c = p
    u = x / c
    e = np.exp(1.0 - u)
    return np.stack([u * e, A * e * u * (u - 1.0) / c])

_register("linear_rise_exp_fall", "peaked", 2, _gamma_peak, _gamma_peak_g,
          lambda xs, ys: np.array([float(ys.max()),
                                   max(float(xs[np.argmax(ys)]), 1e-3)]),
          bounds=[(-np.inf, np.inf), (_TINY, np.inf)])


def _sech2(p, x):
    A, c, w = p
    u = (x - c) / w
    return A / np.cosh(u) ** 2

def _sech2_g(p, x):
    A, c, w = p
    u = (x - c) / w
    s2 = 1.0 / np.cosh(u) ** 2
    t = np.tanh(u)
    return np.stack([s2, 2.0 * A * s2 * t / w, 2.0 * A * s2 * t * u / w])

_register("sech2_peak", "peaked", 3, _sech2, _sech2_g, _peak_guess,
          bounds=[(-np.inf, np.inf), (-np.inf, np.inf), (_TINY, np.inf)])


# --- rational class ---

def _rat_ll(p, x):
    a, b, c = p
    return (a + b * x) / (1.0 + c * x)

def _rat_ll_g(p, x):
    a, b, c = p
    den = 1.0 + c * x
    return np.stack([1.0 / den, x / den, -(a + b * x) * x / den ** 2])

def _rat_guess(xs, ys):
    sol = _lstsq(np.vander(xs, 2, increasing=True), ys)
    return np.array([sol[0], sol[1], 1e-3])

_register("rational_lin_lin", "rational", 3, _rat_ll, _rat_ll_g, _rat_guess)


def _rat_ql(p, x):
    a, b, c, d = p
    return (a + b * x + d * x * x) / (1.0 + c * x)

def _rat_ql_g(p, x):
    a, b, c, d = p
    num = a + b * x + d * x * x
    den = 1.0 + c * x
    return np.stack([1.0 / den, x / den, -num * x / den ** 2, x * x / den])

_register("rational_quad_lin", "rational", 4, _rat_ql, _rat_ql_g,
          lambda xs, ys: np.append(_rat_guess(xs, ys), 0.0))


def _rat_lq(p, x):
    a, b, c, d = p
    return (a + b * x) / (1.0 + c * x + d * x * x)

def _rat_lq_g(p, x):
    a, b, c, d = p
    num = a + b * x
    den = 1.0 + c * x + d * x * x
    return np.stack([1.0 / den, x / den, -num * x / den ** 2,
                     -num * x * x / den ** 2])

_register("rational_lin_quad", "rational", 4, _rat_lq, _rat_lq_g,
          lambda xs, ys: np.array([1e-3, 1e-4]), linear=(0, 1))


def _inv_shift(p, x):
    a, b, c = p
    return a + b / (x + c)

def _inv_shift_g(p, x):
    a, b, c = p
    den = x + c
    return np.stack([_ones_like(den), 1.0 / den, -b / den ** 2])

_register("inverse_shift", "rational", 3, _inv_shift, _inv_shift_g,
          lambda xs, ys: np.array([float(ys.min()), 1.0,
                                   max(1.0, 1.0 - float(xs.min()))]))


# --- power class ---

def _power(p, x):
    a, b = p
    return a * np.power(x, b)

def _power_g(p, x):
    a, b = p
    xb = np.power(x, b)
    return np.stack([xb, a * xb * np.log(x)])

def _power_guess(xs, ys):
    mask = (xs > 0) & (ys > 0)
    if mask.sum() >= 2:
        sol = _lstsq(np.vander(np.log(xs[mask]), 2, increasing=True),
                     np.log(ys[mask]))
        return np.array([math.exp(min(sol[0], 300.0)), sol[1]])
    return np.array([max(float(np.abs(ys).mean()), _TINY), 1.0])

_register("power_law", "power", 2, _power, _power_g, _power_guess)
_add(_with_offset(get_model("power_law"), "power_offset", lift=1e-3,
                  linear=(0,)))


def _sqrt_law(p, x):
    a, b = p
    return a + b * np.sqrt(x)

_register("sqrt_law", "power", 2, _sqrt_law,
          lambda p, x: np.stack([_ones_like(x), np.sqrt(x)]), linear=(0, 1))


def _log_law(p, x):
    a, b = p
    return a + b * np.log1p(x)

_register("log_law", "power", 2, _log_law,
          lambda p, x: np.stack([_ones_like(x), np.log1p(x)]), linear=(0, 1))
