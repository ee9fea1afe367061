"""Weighted nonlinear least squares and r^2-ranked catalog model selection.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) scheme with
the model catalog's Jacobians, bound projection, and monotone
RSS descent. Catalog ranking fits every family via multi-start, with every
start of every family advancing together through one loop, and orders the
plausible results by coefficient of determination.

The kernel works on the distinct x values of a dataset: the weighted RSS
of replicated x depends on the data only through each distinct x's summed
weight W_g and weighted mean y, plus the constant within-group ("pure
error") sum C = sum w (y - ybar_g)^2 (Seber & Wild 1989, section 2.1).
Every RSS the kernel compares or reports includes C, so it is the
full-data weighted RSS, and data with no repeated x is fitted unchanged.

For a family that declares ``linear`` parameters c, the kernel uses
variable projection (Golub & Pereyra 1973, SIAM J. Numer. Anal. 10:413):
at every value of the other parameters theta it solves the weighted linear
least-squares problem for c exactly, from the basis phi(theta, x) that the
Jacobian rows for c give, so Levenberg-Marquardt moves theta only.
Its Jacobian is Kaufman's (1975, BIT 15:49): the theta rows of the
weighted Jacobian at (theta, c), projected onto the complement of the
basis. A family linear in every parameter is one solve.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .dataset import Dataset
from .models import (
    ModelSpec,
    PlausibilityConfig,
    _bounds,
    _jacobian,
    _param_columns,
    check_plausibility,
    evaluate,
    initial_guess,
)

__all__ = [
    "FitResult",
    "RankedFits",
    "RankedEntry",
    "fit_least_squares",
    "r_squared",
    "multi_start",
    "rank_all",
]


# Levenberg-Marquardt settings: the iteration cap, the relative RSS drop
# (rss_rtol) and step norm (step_tol) that stop a start, and the damping's
# start. An accepted step's gain ratio rho, actual over predicted RSS drop,
# then sets lam / 3 above 3/4 and 2 lam below 1/4 (floor 1e-12); rejected
# trials multiply lam by 2, 4, 8, ... (Nielsen 1999, IMM-REP-1999-05), one
# trial per pass, and a start stops after _MAX_TRIALS rejected trials in a row.
_MAX_ITER = 200
_RTOL = 1e-10
_XTOL = 1e-10
_LAMBDA0 = 1e-3
_MAX_TRIALS = 50
# A start whose RSS exceeds _FAR times the zero curve's (sum w y^2), an RMS
# miss 10^6 times the data's own, is not iterated (start_far): from there LM
# walks down about one log-unit per step, to where a nearer start lands
# (sample reduction, Rinnooy Kan & Timmer 1987, Math. Program. 39:27).
_FAR = 1e12


@dataclass(frozen=True)
class FitResult:
    """One fit; ``rss`` is the weighted RSS over every point of the dataset. A
    family fitted as its twin reports the twin's ``iterations`` and ``stop_reason``."""

    spec_name: str
    params: tuple[float, ...]
    rss: float
    r2: float
    converged: bool          # implied by stop_reason, see _CONVERGED
    iterations: int
    stop_reason: Optional[str] = None  # one of STOP_REASONS; None if never fitted

    def as_dict(self) -> dict:
        return {**asdict(self), "params": list(self.params)}


# Why a start stopped; the kernel returns each as its index. A
# start_nonfinite or start_far start is never iterated.
STOP_REASONS = ("rss_rtol", "step_tol", "no_descent", "max_iterations",
                "nonfinite_jacobian", "start_nonfinite", "start_far")
(_RSS_RTOL, _STEP_TOL, _NO_DESCENT, _MAX_ITERATIONS, _NONFINITE_JACOBIAN,
 _START_NONFINITE, _START_FAR) = range(len(STOP_REASONS))
# The stop codes that count as converged.
_CONVERGED = (_RSS_RTOL, _STEP_TOL, _NO_DESCENT)


def _basis(spec, params, xs, sw):
    """sqrt(w) times the Jacobian rows of the linear parameters, the basis
    phi (k, l, n); C-contiguous, so that matmul rounds every row alike."""
    lin = list(spec.linear)
    phi = np.empty((len(params), len(lin), len(xs)))
    np.multiply(_jacobian(spec, params, xs)[:, lin], sw, out=phi)
    return phi


def _coefficients(phi, b):
    """Weighted least-squares coefficients of each column of b (k, n, m) on
    the basis rows of phi (k, l, n): (phi phiᵀ) c = phi b, solved with the
    rows of phi scaled to unit norm, shape (k, l, m)."""
    norm = np.sqrt((phi * phi).sum(axis=2))[:, :, None]
    phi = phi / norm
    return _solve(phi @ phi.transpose(0, 2, 1), phi @ b) / norm


def _residuals(spec, params, xs, ys, sw):
    """Weighted residuals of a (k, n_params) batch, shape (k, n). For a family
    with ``linear`` parameters, first overwrites them in ``params`` with the
    coefficients that minimize the weighted RSS at the other parameters
    (variable projection). Calls the model directly: the caller holds the
    ``np.errstate``."""
    if spec.linear:
        params[:, spec.linear] = 0.0
        phi = _basis(spec, params, xs, sw)
    res = ys - spec.eval_fn(_param_columns(params, xs), xs)
    res *= sw
    if spec.linear:
        c = _coefficients(phi, res[:, :, None])
        params[:, spec.linear] = c[:, :, 0]
        res -= (phi.transpose(0, 2, 1) @ c)[:, :, 0]
    return res


def _row_dot(v: np.ndarray) -> np.ndarray:
    """v[i] @ v[i] for every row of a (k, m) array."""
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _damping(drop, step, g, scale, lam):
    """Each row's damping after it accepts ``step`` at ``lam``: the gain
    ratio rho, the RSS ``drop`` over the linear model's step'(g + lam scale
    step), sets lam / 3 above 3/4 and 2 lam below 1/4, floor 1e-12; a NaN
    rho keeps lam."""
    rho = drop / (step * (g + lam[:, None] * scale * step)).sum(axis=1)
    return np.maximum(np.where(rho > 0.75, lam / 3.0, np.where(rho < 0.25, lam * 2.0, lam)), 1e-12)


def _rss(res: np.ndarray, pure: float) -> np.ndarray:
    """Per-row RSS plus the within-group sum ``pure``; inf where a residual
    is non-finite (a NaN residual makes the sum NaN, an infinite one inf)."""
    rss = _row_dot(res) + pure
    rss[np.isnan(rss)] = np.inf
    return rss


def _distinct_x(d: Dataset):
    """Group the rows of ``d`` by the bit pattern of x, groups in the order
    of their first row. Returns the distinct x, each group's summed weight,
    its weighted mean y, and the within-group sum sum w (y - ybar_g)^2.
    A one-row group keeps its x, y and weight bit for bit (subtracting +0.0
    keeps even a -0.0 y), so data with no repeated x comes back unchanged."""
    xs, ys, w = d.xs, d.ys, d.weights
    _, first, inv = np.unique(xs.view(np.int64), return_index=True,
                              return_inverse=True)
    order = np.argsort(first)
    group = np.argsort(order)[inv]  # argsort inverts the permutation
    first = first[order]
    wsum = np.bincount(group, weights=w)
    y0 = ys[first]
    ybar = y0 - np.bincount(group, weights=w * (y0[group] - ys)) / wsum
    pure = float(np.sum(w * (ys - ybar[group]) ** 2))
    return xs[first], wsum, ybar, pure


def r_squared(spec: ModelSpec, params: Sequence[float], d: Dataset) -> float:
    """Coefficient of determination, 1 - RSS/TSS, weighted as the fit
    objective is: the RSS and the TSS, about the weighted mean, sum w times
    a squared residual. Negative means worse than the weighted mean."""
    xs, ys, w = d.xs, d.ys, d.weights
    if len(ys) < 2:
        raise ValueError("need at least 2 points for r^2")
    tss = float(np.sum(w * (ys - np.average(ys, weights=w)) ** 2))
    if tss == 0.0:
        raise ValueError("zero total sum of squares: all y identical")
    pred = np.asarray(evaluate(spec, params, xs), dtype=float)
    with np.errstate(all="ignore"):
        rss = float(np.sum(w * (ys - pred) ** 2))
    return 1.0 - rss / tss


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] @ x[i] = b[i] for a (k, p, p) stack and b of shape (k, p)
    or (k, p, m); a singular a[i] gives a NaN x[i] instead of failing the
    whole stack. Calls the batched LAPACK gesv that ``np.linalg.solve``
    wraps, without its per-call argument checks."""
    gesv = _umath_linalg.solve1 if b.ndim == 2 else _umath_linalg.solve
    with np.errstate(invalid="ignore"):  # a singular slice comes back NaN
        return gesv(a, b, signature="dd->d")


def _normal_equations(spec, params, xs, sw, res, free):
    """JᵀJ (k, q, q) and Jᵀr (k, q) of the weighted Jacobian at each row of
    ``params``, over the q parameters ``free`` that are not ``linear``; for
    a family with linear ones, J is Kaufman's projected Jacobian. Non-finite
    partials count as 0. The (k, p, n) Jacobian is freed on return, before
    the damping trials allocate their own arrays."""
    raw = _jacobian(spec, params, xs)
    jac = np.multiply(raw, sw, order="C")
    np.copyto(jac, 0.0, where=~np.isfinite(raw))  # raw's mask: an overflowed product stays inf
    if spec.linear:
        phi, jac = np.ascontiguousarray(jac[:, spec.linear]), jac[:, free]
        jac = jac - (phi.transpose(0, 2, 1)
                     @ _coefficients(phi, jac.transpose(0, 2, 1))).transpose(0, 2, 1)
    return jac @ jac.transpose(0, 2, 1), (jac @ res[:, :, None])[:, :, 0]


def _ages(d: Dataset) -> int:
    """The number of distinct x in ``d``; an empty dataset raises, so every
    fit entry point rejects it with the same message before any family."""
    if len(d) == 0:
        raise ValueError("empty dataset")
    return np.unique(d.xs).size


def _ruled_out(spec: ModelSpec, ages: int) -> Optional[str]:
    """Why data at ``ages`` distinct ages, fewer than its parameters, rule
    out every start of ``spec``, or None."""
    if ages >= spec.n_params:
        return None
    if ages == 1:
        return "all x identical: singular system for an x-dependent family"
    return f"underdetermined: {ages} distinct ages for {spec.n_params} parameters"


def _lockstep(specs: Sequence[ModelSpec], d: Dataset, starts: Sequence[np.ndarray]):
    """Levenberg-Marquardt from every row of every ``starts[f]`` (k_f,
    n_params of ``specs[f]``), all families in one loop.

    Each row keeps its own damping, accept/reject decisions, stopping
    reason and iteration count, and every operation acts row by row, so a
    row's result does not depend on the other families' rows (a family's
    own live rows share each model call; see ``ModelSpec`` on batch rows).
    Rows are in ``specs`` order; the model runs per family and all else once
    over all rows. Every pass makes one damping trial for every live row: one
    solve, and one model call on each family's live rows. A row that wins
    moves and starts its next iteration on the next pass; a row that loses
    keeps its parameters and its system and retries at the next damping level,
    so each row makes the trials of the textbook loop (Madsen, Nielsen &
    Tingleff 2004, Alg. 3.16) in the same order. A family's JᵀJ and Jᵀr are
    recomputed, on all its live rows, only in a pass where one of them starts
    an iteration; one ``reduceat`` over the families' first rows finds those
    families. The live rows' views (their families, step columns and bounds,
    and each family's row slice and first row) change only when rows stop, so
    they are derived once per compaction. Each row's q x q system is padded to
    the call's widest q, zero off its block and lam * 1e-12 on the padded
    diagonal, so the padding solves to exact zeros and the block to the bits
    of its own solve.
    Residuals run on the distinct x of ``d``, grouped once per call, and
    every RSS adds the within-group sum (see ``_distinct_x``), so each RSS
    is the full-data weighted RSS. Steps, bounds and ``step_tol`` apply to
    the free parameters; the ``linear`` ones are solved at every start and
    trial. A row whose starting RSS, after that solve, exceeds ``_FAR`` times
    the zero curve's stops at once as ``start_far``, unless its family is all
    linear or every y is 0; the rule reads only the row and the data, so a
    row ends alike in any batch. Returns (params, rss, iterations, stop) per
    family of ``specs``.
    """
    xs, wsum, ys, pure = _distinct_x(d)
    sw = np.sqrt(wsum)
    free = [[j for j in range(s.n_params) if j not in s.linear] for s in specs]
    q = np.array([len(fr) for fr in free], dtype=int)
    first = np.cumsum([0] + [len(s) for s in starts])  # family f has first[f]:first[f+1]
    fam = np.repeat(np.arange(len(specs)), np.diff(first))  # row -> family
    width, qmax = max((s.n_params for s in specs), default=0) + 1, q.max(initial=0)
    params, res = np.zeros((fam.size, width)), np.empty((fam.size, xs.size))
    cols = np.full((fam.size, qmax), width - 1)  # each row's step columns
    lo, hi = np.zeros((2, fam.size, qmax))
    with np.errstate(all="ignore"):
        for f, spec in enumerate(specs):
            rows, fr = slice(first[f], first[f + 1]), free[f]
            b_lo, b_hi = _bounds(spec)
            p = np.clip(np.asarray(starts[f], dtype=float), b_lo, b_hi)
            res[rows] = _residuals(spec, p, xs, ys, sw)
            params[rows, :spec.n_params], cols[rows, :q[f]] = p, fr
            lo[rows, :q[f]], hi[rows, :q[f]] = b_lo[fr], b_hi[fr]
        rss, zero = _rss(res, pure), pure + float((sw * ys) @ (sw * ys))
        ok, solved = np.isfinite(res).all(axis=1), q[fam] == 0  # solved: all linear
        far = (rss > _FAR * zero) & (zero > 0.0)
        iterations = (ok & solved).astype(int)
        stop_code = np.select([~ok, solved, far], [_START_NONFINITE, _STEP_TOL, _START_FAR],
                              _MAX_ITERATIONS)
        live = np.flatnonzero(ok & ~solved & ~far & (_MAX_ITER > 0))  # row index of each live row
        p, res, s, lam = params[live], res[live], rss[live], np.full(live.size, _LAMBDA0)
        tried, its = np.zeros((2, live.size), dtype=int)  # failed trials, iteration number
        a, g = np.zeros((live.size, qmax, qmax)), np.zeros((live.size, qmax))
        diag = slice(None, None, qmax + 1)  # the diagonal of a flattened qmax x qmax
        nu = 2.0 ** np.arange(1, _MAX_TRIALS + 1)  # nu[t]: lam's factor after trial t fails

        m = 0
        while live.size:
            if live.size != m:  # first pass, or rows stopped: derive the live views
                m, fl, r = live.size, fam[live], np.arange(live.size)[:, None]
                c, lo_l, hi_l = cols[live], lo[live], hi[live]
                heads = np.flatnonzero(np.diff(fl, prepend=-1))  # each family's first row
                ends = heads.tolist() + [m]
                families = [(slice(i, j), specs[f], len(free[f]), free[f])
                            for i, j, f in zip(ends, ends[1:], fl[heads].tolist())]
            fresh = tried == 0  # rows that start an iteration
            its += fresh
            starting = np.logical_or.reduceat(fresh, heads).tolist()  # per family
            for (rows, spec, qf, fr), start in zip(families, starting):
                if start:
                    a[rows, :qf, :qf], g[rows, :qf] = _normal_equations(
                        spec, p[rows, :spec.n_params], xs, sw, res[rows], fr)
            finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
            scale = np.maximum(a.reshape(m, -1)[:, diag], 1e-12)

            # One trial per row: its damped step, projected onto its bounds
            damped = a.copy()
            damped.reshape(m, -1)[:, diag] += lam[:, None] * scale
            step = _solve(damped, g)
            base, p_new, res_new = p[r, c], p.copy(), np.empty_like(res)
            p_new[r, c] = np.minimum(np.maximum(base + step, lo_l), hi_l)
            for rows, spec, *_ in families:  # a view: the linear coefficients land in p_new
                res_new[rows] = _residuals(spec, p_new[rows, :spec.n_params], xs, ys, sw)
            rss_new = _rss(res_new, pure)
            win = finite & np.isfinite(step).all(axis=1) & (rss_new <= s)
            small_drop = (s - rss_new) / np.maximum(s, 1e-300) < _RTOL
            small_step = np.sqrt(_row_dot(p_new[r, c] - base)) < _XTOL
            lam = np.where(win, _damping(s - rss_new, step, g, scale, lam), lam * nu[tried])
            lost = ~win  # keeps its parameters, residuals and RSS
            p_new[lost], res_new[lost], rss_new[lost] = p[lost], res[lost], s[lost]
            p, res, s, tried = p_new, res_new, rss_new, np.where(win, 0, tried + 1)
            # a row that lost at every damping level cannot improve
            stop = (~finite | (tried == _MAX_TRIALS)
                    | win & (small_drop | small_step | (its == _MAX_ITER)))
            if stop.any():
                params[live[stop]], rss[live[stop]] = p[stop], s[stop]
                iterations[live[stop]] = its[stop]
                stop_code[live[stop]] = np.select(
                    [~finite, ~win, small_drop, small_step],
                    [_NONFINITE_JACOBIAN, _NO_DESCENT, _RSS_RTOL, _STEP_TOL],
                    _MAX_ITERATIONS)[stop]
                keep = ~stop
                live, p, res, s, lam, tried, its, a, g = (
                    v[keep] for v in (live, p, res, s, lam, tried, its, a, g))
    return [(params[i:j, :spec.n_params], rss[i:j], iterations[i:j], stop_code[i:j])
            for spec, i, j in zip(specs, first[:-1], first[1:])]


def _fit_result(spec: ModelSpec, d: Dataset, params: np.ndarray, rss,
                iterations, stop) -> FitResult:
    """One start's FitResult, with its r^2 on ``d``."""
    try:
        r2 = r_squared(spec, params, d)
    except ValueError:
        r2 = float("nan")
    return FitResult(spec.name, tuple(float(v) for v in params), float(rss), r2,
                     stop in _CONVERGED, int(iterations), STOP_REASONS[stop])


def fit_least_squares(spec: ModelSpec, d: Dataset,
                      start: Sequence[float]) -> FitResult:
    """Levenberg-Marquardt minimization of the weighted residual sum of squares.

    Damping grows on rejected trials and follows the gain ratio of accepted
    steps; parameters are projected onto the spec's bounds after every step.
    Accepted iterations never increase the RSS. A start beyond ``_FAR`` is
    returned as it is, unconverged, with stop_reason ``start_far``. The
    fitter has no options: its settings are the module constants above.
    """
    if why := _ruled_out(spec, _ages(d)):
        raise ValueError(f"{spec.name}: {why}")
    [(params, rss, iterations, stop)] = _lockstep(
        [spec], d, [np.asarray(start, dtype=float)[None]])
    if stop[0] == _START_NONFINITE:
        raise ValueError(f"{spec.name}: start point evaluates non-finite")
    return _fit_result(spec, d, params[0], rss[0], iterations[0], stop[0])


def _start_points(spec: ModelSpec, d: Dataset, n_starts: int,
                  seed: int) -> np.ndarray:
    """The heuristic guess plus n_starts - 1 seeded perturbations, (n_starts, p).
    Linear entries are perturbed from 0 too, so each start draws the same
    normals whatever the family declares; the kernel solves them anyway."""
    base = initial_guess(spec, d)
    lo, hi = _bounds(spec)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    z = rng.standard_normal((n_starts - 1, 2, spec.n_params))  # per start: two draws
    jitter = base * (1.0 + 0.5 * z[:, 0]) + 0.25 * np.maximum(np.abs(base), 1.0) * z[:, 1]
    return np.concatenate([base[None], np.clip(jitter, lo, hi)])


def _twin_result(spec: ModelSpec, d: Dataset, params: np.ndarray, rss, iterations, stop):
    """``spec``'s FitResult from its twin's best start (see ``models._reparam``):
    mapped, and scored at the mapped parameters; or, where that r^2 is more
    than 1e-9 from the twin's, the ValueError naming how the map loses it."""
    twin, from_twin, lost = spec.twin
    with np.errstate(all="ignore"):
        p = np.asarray(from_twin(params), dtype=float)
        own = np.sum(d.weights * (d.ys - evaluate(spec, p, d.xs)) ** 2)
    fit = _fit_result(spec, d, p, own, iterations, stop)
    twin_r2 = _fit_result(twin, d, params, rss, iterations, stop).r2
    same = np.isclose(fit.r2, twin_r2, rtol=0.0, atol=1e-9, equal_nan=True)
    return fit if same else ValueError(f"{spec.name}: {lost}")


def _fit_catalog(specs: Sequence[ModelSpec], d: Dataset, n_starts: int,
                 seed: int) -> list:
    """The multi-start fit of every family in ``specs``: its FitResult, or
    the ValueError or LinAlgError that failed it. The starts of every
    family the data admit run through one ``_lockstep`` call, a family with
    a twin as the twin (see ``_twin_result``), whose starts are drawn and
    run once. An empty dataset or n_starts < 1 raises once, before any
    family."""
    ages = _ages(d)
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    fits, admitted = [], {}  # id of each family fitted -> it, its starts, the specs fitted as it
    drawn = {}  # id of each family fitted -> its starts, or the error its guess raised
    for i, spec in enumerate(specs):
        fitted = spec.twin[0] if spec.twin else spec
        if id(fitted) not in drawn:
            try:
                drawn[id(fitted)] = _start_points(fitted, d, n_starts, seed)
            except (ValueError, np.linalg.LinAlgError) as exc:
                drawn[id(fitted)] = exc
        starts = drawn[id(fitted)]
        if isinstance(starts, Exception):
            fits.append(starts if fitted is spec
                        else type(starts)(f"{spec.name}: fitted as {starts}"))
            continue
        why = _ruled_out(spec, ages)
        if not why:
            admitted.setdefault(id(fitted), (fitted, starts, []))[2].append(i)
        # this error stands unless one of the family's starts fits below
        fits.append(ValueError(f"{spec.name}: {why or 'no start point produced a fit'}"))
    kernel = _lockstep([f for f, _, _ in admitted.values()], d,
                       [s for _, s, _ in admitted.values()])
    for (_, _, users), (params, rss, iterations, stop) in zip(admitted.values(), kernel):
        ok = np.flatnonzero(stop != _START_NONFINITE)
        if ok.size:  # converged before not, then the lowest RSS; the first start wins a tie
            best = ok[np.lexsort((rss[ok], ~np.isin(stop[ok], _CONVERGED)))[0]]
            for i in users:
                fits[i] = (_twin_result if specs[i].twin else _fit_result)(
                    specs[i], d, params[best], rss[best], iterations[best], stop[best])
    return fits


def multi_start(spec: ModelSpec, d: Dataset, n_starts: int = 5,
                seed: int = 0) -> FitResult:
    """Fit from the heuristic guess plus seeded perturbations; keep the best RSS.

    All starts run as one batch of the catalog kernel. Returns the
    lowest-RSS converged result, or the best non-converged one (flagged)
    when nothing converges.
    """
    fit, = _fit_catalog([spec], d, n_starts, seed)
    if isinstance(fit, Exception):
        raise fit
    return fit


@dataclass(frozen=True)
class RankedEntry:
    result: FitResult
    plausible: bool
    reason: str

    @property
    def qualifies(self) -> bool:
        """Plausible, converged and with a finite r^2: a gold-standard candidate."""
        return (self.plausible and self.result.converged
                and bool(np.isfinite(self.result.r2)))


@dataclass(frozen=True)
class RankedFits:
    """Full catalog leaderboard; plausible entries first, r^2 descending."""

    entries: tuple[RankedEntry, ...]
    dataset_label: str = ""

    @property
    def gold_standard(self) -> Optional[FitResult]:
        """Best plausible converged fit, or None when nothing qualifies."""
        return next((e.result for e in self.entries if e.qualifies), None)

    def as_dict(self) -> dict:
        return {
            "dataset_label": self.dataset_label,
            "gold_standard": self.gold_standard.spec_name if self.gold_standard else None,
            "entries": [
                {**e.result.as_dict(), "plausible": e.plausible, "reason": e.reason}
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def leaderboard(self, top: Optional[int] = None) -> str:
        """Aligned plain-text table mirroring the JSON output."""
        lines = [f"{'rank':>4}  {'model':<22} {'r2':>10} {'params':>6} "
                 f"{'conv':>5}  status"]
        shown = self.entries if top is None else self.entries[:top]
        for i, e in enumerate(shown, start=1):
            r2 = f"{e.result.r2:.6f}" if np.isfinite(e.result.r2) else "nan"
            if e.qualifies:
                status = "plausible"
            elif not e.plausible:
                status = f"excluded: {e.reason}"
            elif not e.result.converged:
                status = "excluded: not converged"
                if e.result.stop_reason:
                    status += f" ({e.result.stop_reason})"
            else:
                status = "excluded: r2 not finite"
            lines.append(
                f"{i:>4}  {e.result.spec_name:<22} {r2:>10} "
                f"{len(e.result.params):>6} {str(e.result.converged):>5}  {status}")
        return "\n".join(lines)


def rank_all(specs: Sequence[ModelSpec], d: Dataset,
             plaus: PlausibilityConfig,
             n_starts: int = 5, seed: int = 0) -> RankedFits:
    """Fit every family, tag plausibility, and rank by r^2.

    Plausible entries sort by r^2 descending, ties broken by fewer
    parameters then name; implausible and failed fits follow, so the whole
    catalog is always accounted for.
    """
    entries: list[RankedEntry] = []
    for spec, result in zip(specs, _fit_catalog(specs, d, n_starts, seed)):
        if isinstance(result, Exception):
            failed = FitResult(spec.name, (0.0,) * spec.n_params, np.inf, np.nan, False, 0)
            entries.append(RankedEntry(failed, False, f"fit failed: {result}"))
        else:
            plausible, reason = check_plausibility(spec, result.params, plaus)
            entries.append(RankedEntry(result, plausible, reason))

    def sort_key(e: RankedEntry):
        r2 = e.result.r2 if np.isfinite(e.result.r2) else -np.inf
        return (not e.qualifies, -r2, len(e.result.params), e.result.spec_name)

    return RankedFits(entries=tuple(sorted(entries, key=sort_key)),
                      dataset_label=d.label)
