"""Reference per-start Levenberg-Marquardt: the fitter as it was before the
multi-start batch, kept for the tests as a differential oracle.

One start at a time, one parameter vector per model call, every operation
on 1-D arrays. ``multi_start`` has the signature of ``curvemine.fit``'s, so
a test can swap it into ``rank_all``.
"""

import numpy as np

from curvemine import fit as fit_module
from curvemine.fit import FitResult, r_squared
from curvemine.models import evaluate, gradient, initial_guess


def _weighted_residuals(spec, params, xs, ys, sw):
    pred = np.asarray(evaluate(spec, params, xs), dtype=float)
    with np.errstate(all="ignore"):
        return sw * (ys - pred)


def _rss(res):
    if not np.all(np.isfinite(res)):
        return float("inf")
    with np.errstate(over="ignore"):
        return float(res @ res)


def fit_least_squares(spec, d, start):
    if len(d) < spec.n_params:
        raise ValueError(
            f"underdetermined: {len(d)} points for {spec.n_params} parameters")
    xs, ys = d.xs, d.ys
    sw = np.sqrt(d.weights)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    p = np.clip(np.asarray(start, dtype=float), lo, hi)

    if np.ptp(xs) == 0.0 and spec.n_params > 1:
        raise ValueError("all x identical: singular system for an x-dependent family")

    res = _weighted_residuals(spec, p, xs, ys, sw)
    if not np.all(np.isfinite(res)):
        raise ValueError(f"{spec.name}: start point evaluates non-finite")
    rss = _rss(res)
    lam = fit_module._LAMBDA0
    converged = False
    it = 0
    for it in range(1, fit_module._MAX_ITER + 1):
        jac = gradient(spec, p, xs)
        with np.errstate(all="ignore"):
            jac = np.where(np.isfinite(jac), jac, 0.0) * sw
            a = jac @ jac.T
            g = jac @ res
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            break
        accepted = False
        for _ in range(50):
            try:
                step = np.linalg.solve(
                    a + lam * np.diag(np.maximum(np.diag(a), 1e-12)), g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                p_new = np.clip(p + step, lo, hi)
                res_new = _weighted_residuals(spec, p_new, xs, ys, sw)
                rss_new = _rss(res_new)
                if rss_new <= rss:
                    accepted = True
                    break
            lam *= fit_module._LAMBDA_UP
        if not accepted:
            converged = True
            break
        step_norm = float(np.linalg.norm(p_new - p))
        rel_drop = (rss - rss_new) / max(rss, 1e-300)
        p, res, rss = p_new, res_new, rss_new
        lam = max(lam * fit_module._LAMBDA_DOWN, 1e-12)
        if rel_drop < fit_module._RTOL or step_norm < fit_module._XTOL:
            converged = True
            break

    try:
        r2 = r_squared(spec, p, d)
    except ValueError:
        r2 = float("nan")
    return FitResult(
        spec_name=spec.name,
        params=tuple(float(v) for v in p),
        rss=rss,
        r2=r2,
        converged=converged,
        iterations=it,
    )


def multi_start(spec, d, n_starts=5, seed=0):
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    base = initial_guess(spec, d)
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scale = np.maximum(np.abs(base), 1.0)

    starts = [base]
    for _ in range(n_starts - 1):
        jitter = base * (1.0 + 0.5 * rng.standard_normal(spec.n_params))
        jitter = jitter + 0.25 * scale * rng.standard_normal(spec.n_params)
        starts.append(np.clip(jitter, lo, hi))

    best = None
    for start in starts:
        try:
            result = fit_least_squares(spec, d, start)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if best is None or (result.converged, -result.rss) > (best.converged, -best.rss):
            best = result
    if best is None:
        raise ValueError(f"{spec.name}: no start point produced a fit")
    return best
