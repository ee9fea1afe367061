"""Weighted nonlinear least squares and r^2-ranked catalog model selection.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) scheme with
analytic Jacobians from the model catalog, bound projection, and monotone
RSS descent. Catalog ranking fits every family via multi-start, with all
starts of a family advancing together as one batch, and orders the
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
rows of ``grad_fn`` for c give, so Levenberg-Marquardt moves theta only.
Its Jacobian is Kaufman's (1975, BIT 15:49): the theta rows of the
weighted Jacobian at (theta, c), projected onto the complement of the
basis. A family linear in every parameter is one solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
# start, growth on a rejected trial and shrink after an accepted step.
_MAX_ITER = 200
_RTOL = 1e-10
_XTOL = 1e-10
_LAMBDA0, _LAMBDA_UP, _LAMBDA_DOWN = 1e-3, 10.0, 0.1


@dataclass(frozen=True)
class FitResult:
    """One fit; ``rss`` is the weighted RSS over every point of the dataset."""

    spec_name: str
    params: tuple[float, ...]
    rss: float
    r2: float
    converged: bool          # implied by stop_reason, see _CONVERGED
    iterations: int
    stop_reason: Optional[str] = None  # one of STOP_REASONS; None if never fitted

    def as_dict(self) -> dict:
        return {
            "spec_name": self.spec_name,
            "params": list(self.params),
            "rss": self.rss,
            "r2": self.r2,
            "converged": self.converged,
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
        }


# Why a start stopped; the kernel returns each as its index. A
# start_nonfinite start is never iterated.
STOP_REASONS = ("rss_rtol", "step_tol", "no_descent", "max_iterations",
                "nonfinite_jacobian", "start_nonfinite")
(_RSS_RTOL, _STEP_TOL, _NO_DESCENT, _MAX_ITERATIONS, _NONFINITE_JACOBIAN,
 _START_NONFINITE) = range(len(STOP_REASONS))
# The stop codes that count as converged.
_CONVERGED = (_RSS_RTOL, _STEP_TOL, _NO_DESCENT)


def _basis(spec, params, xs, sw):
    """sqrt(w) times the ``grad_fn`` rows of the linear parameters, the basis
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
    """Coefficient of determination, 1 - RSS/TSS; negative means worse than the mean."""
    if len(d) < 2:
        raise ValueError("need at least 2 points for r^2")
    ys = d.ys
    tss = float(np.sum((ys - ys.mean()) ** 2))
    if tss == 0.0:
        raise ValueError("zero total sum of squares: all y identical")
    pred = np.asarray(evaluate(spec, params, d.xs), dtype=float)
    with np.errstate(all="ignore"):
        rss = float(np.sum((ys - pred) ** 2))
    return 1.0 - rss / tss


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a[i] @ x[i] = b[i] for a (k, p, p) stack and b of shape (k, p)
    or (k, p, m); a singular a[i] gives a NaN x[i] instead of failing the
    whole stack."""
    if b.ndim == 2:
        return _solve(a, b[:, :, None])[:, :, 0]
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i:i + 1], b[i:i + 1])[0]
            except np.linalg.LinAlgError:
                pass
        return out


def _normal_equations(spec, params, xs, sw, res, free):
    """JᵀJ (k, q, q) and Jᵀr (k, q) of the weighted Jacobian at each row of
    ``params``, over the q parameters ``free`` that are not ``linear``; for
    a family with linear ones, J is Kaufman's projected Jacobian. Non-finite
    partials count as 0. The (k, p, n) Jacobian is freed on return, before
    the damping trials allocate their own arrays."""
    raw = _jacobian(spec, params, xs)
    jac = np.zeros(raw.shape)
    np.multiply(raw, sw, out=jac, where=np.isfinite(raw))
    if spec.linear:
        phi, jac = np.ascontiguousarray(jac[:, spec.linear]), jac[:, free]
        jac = jac - (phi.transpose(0, 2, 1)
                     @ _coefficients(phi, jac.transpose(0, 2, 1))).transpose(0, 2, 1)
    return jac @ jac.transpose(0, 2, 1), (jac @ res[:, :, None])[:, :, 0]


def _groups(d: Dataset):
    """``_distinct_x(d)``, computed once per dataset: a Dataset is immutable,
    so the families of one ``rank_all`` share one grouping."""
    if "_groups" not in d.__dict__:
        d.__dict__["_groups"] = _distinct_x(d)
    return d.__dict__["_groups"]


def _levenberg_marquardt(spec: ModelSpec, d: Dataset, starts: np.ndarray):
    """Levenberg-Marquardt from every row of ``starts`` (k, n_params) at once.

    Each start keeps its own damping, accept/reject decisions, stopping
    reason and iteration count; every operation acts row by row, so a
    start's result does not depend on the other starts in the batch.
    Residuals and Jacobians run on the distinct x of ``d`` (weights summed,
    y averaged per x, see ``_distinct_x``), and every RSS adds back the
    within-group sum, so ``rss_rtol``, accept/reject and the returned RSS
    refer to the full-data weighted RSS. Steps, bounds and ``step_tol``
    apply to the parameters that are not ``linear``; the linear ones are
    solved at every start and trial (see the module docstring).
    Returns (params, rss, iterations, stop), one entry per start; ``stop``
    indexes ``STOP_REASONS``.
    """
    if len(d) < spec.n_params:
        raise ValueError(
            f"underdetermined: {len(d)} points for {spec.n_params} parameters")
    xs, wsum, ys, pure = _groups(d)
    sw = np.sqrt(wsum)
    lo, hi = _bounds(spec)
    params = np.clip(np.asarray(starts, dtype=float), lo, hi)
    if np.ptp(xs) == 0.0 and spec.n_params > 1:
        raise ValueError("all x identical: singular system for an x-dependent family")
    free = slice(None)
    if spec.linear:  # LM moves the other parameters only
        free = [j for j in range(spec.n_params) if j not in spec.linear]
    lo, hi = lo[free], hi[free]

    diag = slice(None, None, len(lo) + 1)  # the diagonal of a flattened q x q
    iterations = np.zeros(len(params), dtype=int)
    with np.errstate(all="ignore"):
        res = _residuals(spec, params, xs, ys, sw)
        rss = _rss(res, pure)
        ok = np.isfinite(res).all(axis=1)
        if not len(lo):  # linear in every parameter: the start's solve is the fit
            return (params, rss, ok.astype(int),
                    np.where(ok, _STEP_TOL, _START_NONFINITE))
        stop_code = np.where(ok, _MAX_ITERATIONS, _START_NONFINITE)
        live = ok.nonzero()[0]          # start index of each live row
        p, res, s = params[live], res[live], rss[live]
        lam = np.full(live.size, _LAMBDA0)
        it = 0
        while live.size and it < _MAX_ITER:
            it += 1
            m = live.size
            a, g = _normal_equations(spec, p, xs, sw, res, free)
            finite = np.isfinite(a).all(axis=(1, 2)) & np.isfinite(g).all(axis=1)
            scale = np.maximum(a.reshape(m, -1)[:, diag], 1e-12)

            # Every trial runs on all rows; only pending rows may take its step.
            p_old, s_old = p.copy(), s.copy()
            pending = finite.copy()
            for _ in range(50):  # damping escalations within one iteration
                if not pending.any():
                    break
                damped = a.copy()
                damped.reshape(m, -1)[:, diag] += lam[:, None] * scale
                step = _solve(damped, g)
                p_new = p_old.copy()
                p_new[:, free] = np.minimum(np.maximum(p_old[:, free] + step, lo), hi)
                res_new = _residuals(spec, p_new, xs, ys, sw)
                rss_new = _rss(res_new, pure)
                win = pending & np.isfinite(step).all(axis=1) & (rss_new <= s_old)
                np.copyto(p, p_new, where=win[:, None])
                np.copyto(res, res_new, where=win[:, None])
                np.copyto(s, rss_new, where=win)
                pending &= ~win
                np.multiply(lam, _LAMBDA_UP, out=lam, where=pending)
            # a finite row still pending cannot improve at any damping
            accepted = finite & ~pending
            step_norm = np.sqrt(_row_dot((p - p_old)[:, free]))
            rel_drop = (s_old - s) / np.maximum(s_old, 1e-300)
            np.maximum(lam * _LAMBDA_DOWN, 1e-12, out=lam, where=accepted)
            small_drop = rel_drop < _RTOL
            done = pending | (accepted & (small_drop | (step_norm < _XTOL)))
            stop = done | ~finite
            if stop.any():
                params[live[stop]], rss[live[stop]] = p[stop], s[stop]
                iterations[live[stop]] = it
                stop_code[live[stop]] = np.select(
                    [~finite, pending, small_drop],
                    [_NONFINITE_JACOBIAN, _NO_DESCENT, _RSS_RTOL], _STEP_TOL)[stop]
                keep = ~stop
                live, p, res, s, lam = live[keep], p[keep], res[keep], s[keep], lam[keep]
    params[live], rss[live], iterations[live] = p, s, it
    return params, rss, iterations, stop_code


def _fit_result(spec: ModelSpec, d: Dataset, params: np.ndarray, rss,
                iterations, stop) -> FitResult:
    try:
        r2 = r_squared(spec, params, d)
    except ValueError:
        r2 = float("nan")
    return FitResult(
        spec_name=spec.name,
        params=tuple(float(v) for v in params),
        rss=float(rss),
        r2=r2,
        converged=stop in _CONVERGED,
        iterations=int(iterations),
        stop_reason=STOP_REASONS[stop],
    )


def fit_least_squares(spec: ModelSpec, d: Dataset,
                      start: Sequence[float]) -> FitResult:
    """Levenberg-Marquardt minimization of the weighted residual sum of squares.

    Damping grows on rejected steps and shrinks on accepted ones;
    parameters are projected onto the spec's bounds after every step.
    Accepted iterations never increase the RSS. The fitter has no options:
    its settings are the module constants above.
    """
    params, rss, iterations, stop = _levenberg_marquardt(
        spec, d, np.asarray(start, dtype=float)[None])
    if stop[0] == _START_NONFINITE:
        raise ValueError(f"{spec.name}: start point evaluates non-finite")
    return _fit_result(spec, d, params[0], rss[0], iterations[0], stop[0])


def _start_points(spec: ModelSpec, d: Dataset, n_starts: int,
                  seed: int) -> np.ndarray:
    """The heuristic guess plus n_starts - 1 seeded perturbations, (n_starts, p).
    Linear entries are perturbed from 0 too, so each start draws the same
    normals whatever the family declares; the kernel solves them anyway."""
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    base = initial_guess(spec, d)
    lo, hi = _bounds(spec)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scale = np.maximum(np.abs(base), 1.0)

    starts = [base]
    for _ in range(n_starts - 1):
        jitter = base * (1.0 + 0.5 * rng.standard_normal(spec.n_params))
        jitter = jitter + 0.25 * scale * rng.standard_normal(spec.n_params)
        starts.append(np.clip(jitter, lo, hi))
    return np.array(starts)


def multi_start(spec: ModelSpec, d: Dataset, n_starts: int = 5,
                seed: int = 0) -> FitResult:
    """Fit from the heuristic guess plus seeded perturbations; keep the best RSS.

    All starts run as one batch. Returns the lowest-RSS converged result,
    or the best non-converged one (flagged) when nothing converges.
    """
    starts = _start_points(spec, d, n_starts, seed)
    try:
        params, rss, iterations, stop = _levenberg_marquardt(spec, d, starts)
    except ValueError:  # the data rule out every start, e.g. all x identical
        stop = np.full(n_starts, _START_NONFINITE)
    ok = np.flatnonzero(stop != _START_NONFINITE)
    if not ok.size:
        raise ValueError(f"{spec.name}: no start point produced a fit")
    # converged before not, then the lowest RSS; the first start wins a tie
    best = ok[np.lexsort((rss[ok], ~np.isin(stop[ok], _CONVERGED)))[0]]
    return _fit_result(spec, d, params[best], rss[best], iterations[best],
                       stop[best])


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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

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
    if len(d) == 0:
        raise ValueError("empty dataset")
    entries: list[RankedEntry] = []
    for spec in specs:
        try:
            result = multi_start(spec, d, n_starts=n_starts, seed=seed)
        except (ValueError, np.linalg.LinAlgError) as exc:
            result = FitResult(
                spec_name=spec.name,
                params=tuple(np.zeros(spec.n_params)),
                rss=float("inf"), r2=float("nan"),
                converged=False, iterations=0,
            )
            entries.append(RankedEntry(result, False, f"fit failed: {exc}"))
            continue
        plausible, reason = check_plausibility(spec, result.params, plaus)
        entries.append(RankedEntry(result, plausible, reason))

    def sort_key(e: RankedEntry):
        r2 = e.result.r2 if np.isfinite(e.result.r2) else -np.inf
        return (not e.qualifies, -r2, len(e.result.params), e.result.spec_name)

    return RankedFits(entries=tuple(sorted(entries, key=sort_key)),
                      dataset_label=d.label)
