"""Reference per-start Levenberg-Marquardt: the fitter as it was before the
multi-start batch, kept for the tests as a differential oracle.

One start at a time, one parameter vector per model call, every operation
on 1-D arrays. It reads the fitter's settings (iteration cap, tolerances,
starting damping, damping levels per iteration, far-start bound) and scores
with its ``r_squared``, but runs its own loop. Like the fitter, it does not
iterate a start whose RSS exceeds ``_FAR`` times sum w y^2, unless the family
is linear in every parameter or every y is 0. Its damping follows the gain-ratio
rule the fitter documents: an accepted step with actual over predicted RSS
drop rho above 3/4 divides lam by 3, below 1/4 doubles it, floored at
1e-12; rejected trials multiply lam by nu = 2, 4, 8, ... (Nielsen 1999,
IMM-REP-1999-05). Like the fitter, it tries one damping level at a time
and keeps a rejected start's linear system for its next level; the fitter
runs every start at once, one level per start per pass. ``fit_catalog``
has the signature of ``curvemine.fit._fit_catalog``, so a test can swap it
into ``rank_all``; like the fitter, it fits a family that has a twin as
that twin.
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
    rss, zero = _rss(res), _rss(sw * ys)
    far = len(spec.linear) < spec.n_params and zero > 0 and rss > fit_module._FAR * zero
    lam = fit_module._LAMBDA0
    converged = False
    it = 0
    for it in range(1, 0 if far else fit_module._MAX_ITER + 1):
        jac = gradient(spec, p, xs)
        with np.errstate(all="ignore"):
            jac = np.where(np.isfinite(jac), jac, 0.0) * sw
            a = jac @ jac.T
            g = jac @ res
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
            break
        scale = np.maximum(np.diag(a), 1e-12)
        accepted, nu = False, 2.0
        for _ in range(fit_module._MAX_TRIALS):
            try:
                step = np.linalg.solve(a + lam * np.diag(scale), g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                p_new = np.clip(p + step, lo, hi)
                res_new = _weighted_residuals(spec, p_new, xs, ys, sw)
                rss_new = _rss(res_new)
                if rss_new <= rss:
                    accepted = True
                    break
            lam, nu = lam * nu, 2.0 * nu
        if not accepted:
            converged = True
            break
        with np.errstate(all="ignore"):
            rho = (rss - rss_new) / (step @ (g + lam * scale * step))
        if rho > 0.75:
            lam = max(lam / 3.0, 1e-12)
        elif rho < 0.25:
            lam = 2.0 * lam
        step_norm = float(np.linalg.norm(p_new - p))
        rel_drop = (rss - rss_new) / max(rss, 1e-300)
        p, res, rss = p_new, res_new, rss_new
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


def twin_multi_start(spec, d, n_starts, seed):
    """``multi_start`` of the twin of ``spec``, its best parameters mapped into
    the coordinates of ``spec`` and scored there. Raises the named reason of
    ``spec`` if the two r^2 differ by more than 1e-9."""
    twin, from_twin, lost = spec.twin
    best = multi_start(twin, d, n_starts, seed)
    with np.errstate(all="ignore"):
        p = np.asarray(from_twin(np.array(best.params)), dtype=float)
    try:
        r2 = r_squared(spec, p, d)
    except ValueError:
        r2 = float("nan")
    if not (abs(r2 - best.r2) <= 1e-9 or (np.isnan(r2) and np.isnan(best.r2))):
        raise ValueError(f"{spec.name}: {lost}")
    rss = _rss(_weighted_residuals(spec, p, d.xs, d.ys, np.sqrt(d.weights)))
    return FitResult(spec_name=spec.name, params=tuple(float(v) for v in p),
                     rss=rss, r2=r2, converged=best.converged,
                     iterations=best.iterations)


def fit_catalog(specs, d, n_starts, seed):
    """``multi_start`` for each family in turn, or ``twin_multi_start`` for one
    with a twin: its result, or the error that failed it."""
    fits = []
    for spec in specs:
        try:
            fit = twin_multi_start if spec.twin else multi_start
            fits.append(fit(spec, d, n_starts, seed))
        except (ValueError, np.linalg.LinAlgError) as exc:
            fits.append(exc)
    return fits
