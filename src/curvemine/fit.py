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
    _param_columns,
    check_plausibility,
    evaluate,
    initial_guess,
)

__all__ = [
    "FitOptions",
    "FitResult",
    "RankedFits",
    "RankedEntry",
    "fit_least_squares",
    "r_squared",
    "multi_start",
    "rank_all",
]


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 200
    rss_rtol: float = 1e-10
    step_tol: float = 1e-10
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1


@dataclass(frozen=True)
class FitResult:
    """One fit; ``rss`` is the weighted RSS over every point of the dataset."""

    spec_name: str
    params: tuple[float, ...]
    rss: float
    r2: float
    converged: bool
    iterations: int

    def as_dict(self) -> dict:
        return {
            "spec_name": self.spec_name,
            "params": list(self.params),
            "rss": self.rss,
            "r2": self.r2,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def _bounds(spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([b[0] for b in spec.bounds]),
            np.array([b[1] for b in spec.bounds]))


def _residuals(spec, params, xs, ys, sw):
    """Weighted residuals of a (k, n_params) batch, shape (k, n). Calls the
    model directly: the caller holds the ``np.errstate``."""
    res = ys - spec.eval_fn(_param_columns(params, xs), xs)
    res *= sw
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
    """Solve a[i] @ x[i] = b[i] for a (k, p, p) stack; a singular a[i]
    gives a NaN row instead of failing the whole stack."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i in range(len(a)):
            try:
                out[i] = np.linalg.solve(a[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _normal_equations(spec, params, xs, sw, res):
    """JᵀJ (k, p, p) and Jᵀr (k, p) of the weighted Jacobian at each row of
    ``params``; non-finite partials count as 0. The (k, p, n) Jacobian is
    freed on return, before the damping trials allocate their own arrays."""
    raw = np.asarray(spec.grad_fn(_param_columns(params, xs), xs), dtype=float)
    if raw.ndim == 3:  # (p, k, n) from the model; the kernel works in (k, p, n)
        raw = raw.swapaxes(0, 1)
    jac = np.zeros(raw.shape)
    np.multiply(raw, sw, out=jac, where=np.isfinite(raw))
    if jac.ndim == 2:  # depends on x only: one Jacobian for all starts
        jac = np.broadcast_to(jac, (len(params),) + jac.shape)
    return jac @ jac.transpose(0, 2, 1), (jac @ res[:, :, None])[:, :, 0]


def _levenberg_marquardt(spec: ModelSpec, d: Dataset, starts: np.ndarray,
                         options: FitOptions):
    """Levenberg-Marquardt from every row of ``starts`` (k, n_params) at once.

    Each start keeps its own damping, accept/reject decisions, stopping
    reason and iteration count; every operation acts row by row, so a
    start's result does not depend on the other starts in the batch.
    Residuals and Jacobians run on the distinct x of ``d`` (weights summed,
    y averaged per x, see ``_distinct_x``), and every RSS adds back the
    within-group sum, so ``rss_rtol``, accept/reject and the returned RSS
    refer to the full-data weighted RSS.
    Returns (params, rss, converged, iterations, ok), one entry per start;
    ``ok`` is False for a start whose residuals are non-finite, which is not
    iterated.
    """
    if len(d) < spec.n_params:
        raise ValueError(
            f"underdetermined: {len(d)} points for {spec.n_params} parameters")
    xs, wsum, ys, pure = _distinct_x(d)
    sw = np.sqrt(wsum)
    lo, hi = _bounds(spec)
    params = np.clip(np.asarray(starts, dtype=float), lo, hi)
    if np.ptp(xs) == 0.0 and spec.n_params > 1:
        raise ValueError("all x identical: singular system for an x-dependent family")

    k = len(params)
    diag = slice(None, None, spec.n_params + 1)  # the diagonal of a flattened p x p
    converged = np.zeros(k, dtype=bool)
    iterations = np.zeros(k, dtype=int)
    with np.errstate(all="ignore"):
        res = _residuals(spec, params, xs, ys, sw)
        rss = _rss(res, pure)
        ok = np.isfinite(res).all(axis=1)
        live = ok.nonzero()[0]          # start index of each live row
        p, res, s = params[live], res[live], rss[live]
        lam = np.full(live.size, options.lambda0)
        it = 0
        while live.size and it < options.max_iterations:
            it += 1
            m = live.size
            a, g = _normal_equations(spec, p, xs, sw, res)
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
                p_new = np.minimum(np.maximum(p_old + step, lo), hi)
                res_new = _residuals(spec, p_new, xs, ys, sw)
                rss_new = _rss(res_new, pure)
                win = pending & np.isfinite(step).all(axis=1) & (rss_new <= s_old)
                np.copyto(p, p_new, where=win[:, None])
                np.copyto(res, res_new, where=win[:, None])
                np.copyto(s, rss_new, where=win)
                pending &= ~win
                np.multiply(lam, options.lambda_up, out=lam, where=pending)
            # a finite row still pending cannot improve at any damping
            accepted = finite & ~pending
            step_norm = np.sqrt(_row_dot(p - p_old))
            rel_drop = (s_old - s) / np.maximum(s_old, 1e-300)
            np.maximum(lam * options.lambda_down, 1e-12, out=lam, where=accepted)
            done = pending | (accepted & ((rel_drop < options.rss_rtol)
                                          | (step_norm < options.step_tol)))
            stop = done | ~finite
            if stop.any():
                params[live[stop]], rss[live[stop]] = p[stop], s[stop]
                converged[live[stop]] = done[stop]
                iterations[live[stop]] = it
                keep = ~stop
                live, p, res, s, lam = live[keep], p[keep], res[keep], s[keep], lam[keep]
    params[live], rss[live], iterations[live] = p, s, it
    return params, rss, converged, iterations, ok


def _fit_result(spec: ModelSpec, d: Dataset, params: np.ndarray, rss,
                converged, iterations) -> FitResult:
    try:
        r2 = r_squared(spec, params, d)
    except ValueError:
        r2 = float("nan")
    return FitResult(
        spec_name=spec.name,
        params=tuple(float(v) for v in params),
        rss=float(rss),
        r2=r2,
        converged=bool(converged),
        iterations=int(iterations),
    )


def fit_least_squares(spec: ModelSpec, d: Dataset,
                      start: Sequence[float],
                      options: FitOptions = FitOptions()) -> FitResult:
    """Levenberg-Marquardt minimization of the weighted residual sum of squares.

    Damping starts at lambda0, grows on rejected steps and shrinks on
    accepted ones; parameters are projected onto the spec's bounds after
    every step. Accepted iterations never increase the RSS.
    """
    params, rss, converged, iterations, ok = _levenberg_marquardt(
        spec, d, np.asarray(start, dtype=float)[None], options)
    if not ok[0]:
        raise ValueError(f"{spec.name}: start point evaluates non-finite")
    return _fit_result(spec, d, params[0], rss[0], converged[0], iterations[0])


def _start_points(spec: ModelSpec, d: Dataset, n_starts: int,
                  seed: int) -> np.ndarray:
    """The heuristic guess plus n_starts - 1 seeded perturbations, (n_starts, p)."""
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
                seed: int = 0,
                options: FitOptions = FitOptions()) -> FitResult:
    """Fit from the heuristic guess plus seeded perturbations; keep the best RSS.

    All starts run as one batch. Returns the lowest-RSS converged result,
    or the best non-converged one (flagged) when nothing converges.
    """
    starts = _start_points(spec, d, n_starts, seed)
    try:
        params, rss, converged, iterations, ok = _levenberg_marquardt(
            spec, d, starts, options)
    except ValueError:  # the data rule out every start, e.g. all x identical
        ok = np.zeros(n_starts, dtype=bool)
    best = None
    for i in np.flatnonzero(ok):
        if best is None or (converged[i], -rss[i]) > (converged[best], -rss[best]):
            best = i
    if best is None:
        raise ValueError(f"{spec.name}: no start point produced a fit")
    return _fit_result(spec, d, params[best], rss[best], converged[best],
                       iterations[best])


@dataclass(frozen=True)
class RankedEntry:
    result: FitResult
    plausible: bool
    reason: str


@dataclass(frozen=True)
class RankedFits:
    """Full catalog leaderboard; plausible entries first, r^2 descending."""

    entries: tuple[RankedEntry, ...]
    dataset_label: str = ""

    @property
    def gold_standard(self) -> Optional[FitResult]:
        """Best plausible converged fit, or None when nothing qualifies."""
        for e in self.entries:
            if e.plausible and e.result.converged and np.isfinite(e.result.r2):
                return e.result
        return None

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
            if not e.plausible:
                status = f"excluded: {e.reason}"
            elif not e.result.converged:
                status = "excluded: not converged"
            elif not np.isfinite(e.result.r2):
                status = "excluded: r2 not finite"
            else:
                status = "plausible"
            lines.append(
                f"{i:>4}  {e.result.spec_name:<22} {r2:>10} "
                f"{len(e.result.params):>6} {str(e.result.converged):>5}  {status}")
        return "\n".join(lines)


def rank_all(specs: Sequence[ModelSpec], d: Dataset,
             plaus: PlausibilityConfig,
             n_starts: int = 5, seed: int = 0,
             options: FitOptions = FitOptions()) -> RankedFits:
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
            result = multi_start(spec, d, n_starts=n_starts, seed=seed,
                                 options=options)
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
        ok = e.plausible and e.result.converged and np.isfinite(e.result.r2)
        r2 = e.result.r2 if np.isfinite(e.result.r2) else -np.inf
        return (not ok, -r2, len(e.result.params), e.result.spec_name)

    return RankedFits(entries=tuple(sorted(entries, key=sort_key)),
                      dataset_label=d.label)
