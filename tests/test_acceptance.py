"""End-to-end acceptance gate.

One test per criterion; each prints a PASS line (visible with pytest -s)
and enforces its runtime budget.
"""

import math
import time

import numpy as np
import pytest

from curvemine.analyze import (
    cross_correlation,
    monthly_loss,
    peak_age,
    prediction_band,
)
from curvemine.cli import main
from curvemine.dataset import write_csv
from curvemine.fit import fit_least_squares, multi_start, rank_all
from curvemine.models import (
    ModelSpec,
    PlausibilityConfig,
    catalog,
    evaluate,
    get_model,
    gradient,
    initial_guess,
)
from curvemine.synth import (
    SummaryRow,
    lognormal_moments,
    reconstruct_row,
    solve_lognormal,
)
from curvemine.validate import agreement, holdout_validate, split

from conftest import make_dataset


def _report(name, elapsed, budget):
    print(f"[PASS] {name} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_lognormal_round_trip():
    t0 = time.perf_counter()
    for mu in (0.1, 1.0, 5.0, 50.0):
        for sd in (0.01, 0.5, 2.0, 10.0):
            p = solve_lognormal(mu, sd)
            # forward substitution into the source equations
            mu_back = math.exp(p.x_log + 0.5 * p.y_log ** 2)
            var_back = math.exp(2 * p.x_log + p.y_log ** 2) \
                * (math.exp(p.y_log ** 2) - 1.0)
            assert mu_back == pytest.approx(mu, rel=1e-10)
            assert var_back == pytest.approx(sd * sd, rel=1e-10)
            mean_fwd, sd_fwd = lognormal_moments(p)
            assert (mean_fwd, sd_fwd) == pytest.approx((mu, sd), rel=1e-10)
    _report("criterion 1: lognormal round-trip on 16-point grid",
            time.perf_counter() - t0, 1.0)


def test_criterion_2_moment_corrected_reconstruction():
    t0 = time.perf_counter()
    for n in (2, 10, 100, 10_000):
        row = SummaryRow(x=30.0, n=n, mean=10.0, sd=2.0)
        vals = reconstruct_row(row, seed=n, moment_correct=True)
        assert vals.mean() == pytest.approx(10.0, rel=1e-9)
        assert vals.std(ddof=1) == pytest.approx(2.0, rel=1e-9)

        logrow = SummaryRow(x=30.0, n=n, mean=10.0, sd=2.0,
                            family="lognormal")
        target = solve_lognormal(10.0, 2.0)
        logs = np.log(reconstruct_row(logrow, seed=n, moment_correct=True))
        assert logs.mean() == pytest.approx(target.x_log, rel=1e-9)
        assert logs.std(ddof=1) == pytest.approx(target.y_log, rel=1e-9)
    _report("criterion 2: moment-corrected reconstruction exact",
            time.perf_counter() - t0, 5.0)


def test_criterion_3_fitter_matches_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    for trial in range(100):
        degree = 1 if trial % 2 == 0 else 2
        spec = get_model(f"poly{degree}")
        n = int(rng.integers(degree + 2, 40))
        d = make_dataset(rng.uniform(0, 20, n), rng.uniform(0, 10, n))
        design = np.vander(d.xs, degree + 1, increasing=True)
        expected, *_ = np.linalg.lstsq(design, d.ys, rcond=None)
        result = fit_least_squares(spec, d, initial_guess(spec, d))
        scale = np.maximum(np.abs(expected), 1e-3)
        assert np.max(np.abs(np.asarray(result.params) - expected) / scale) \
            < 1e-8
        ybar = d.ys.mean()
        tss = float(np.sum((d.ys - ybar) ** 2))
        rss = float(np.sum((d.ys - design @ expected) ** 2))
        assert result.r2 == pytest.approx(1 - rss / tss, abs=1e-12)
    _report("criterion 3: LM equals closed-form least squares (100 datasets)",
            time.perf_counter() - t0, 10.0)


def test_criterion_4_ground_truth_recovery_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    amp, center, width = 100.0, 14.5, 9.0
    xs = rng.uniform(0, 60, 300)
    clean = amp * np.exp(-((xs - center) ** 2) / (2 * width * width))
    ys = np.clip(clean * (1.0 + rng.normal(0, 0.05, xs.size)), 0, None)
    d = make_dataset(xs, ys)

    specs = catalog()
    assert len(specs) >= 30
    ranked = rank_all(specs, d,
                      PlausibilityConfig(domain=(0, 60),
                                         require_nonnegative=True),
                      n_starts=5, seed=11)
    gold = ranked.gold_standard
    assert gold is not None
    assert gold.r2 >= 0.95

    spec = get_model(gold.spec_name)
    pk = peak_age(lambda t: monthly_loss(spec, gold.params, t), (0.0, 60.0))
    truth = center + width  # inflection of the declining flank
    assert abs(pk.age - truth) < 0.2
    _report("criterion 4: ground-truth recovery pipeline "
            f"(gold={gold.spec_name}, r2={gold.r2:.4f}, "
            f"peak={pk.age:.3f} vs {truth})",
            time.perf_counter() - t0, 60.0)


def test_criterion_5_validation_semantics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    d = make_dataset(rng.uniform(0, 10, 50), rng.uniform(1, 9, 50))
    spec = get_model("poly1")
    fit = fit_least_squares(spec, d, initial_guess(spec, d))
    report = holdout_validate(spec, fit.params, d, d)
    assert report.agreement == 1.0
    assert report.r2_test == report.r2_train

    published = agreement(0.45, 0.43)
    assert published == pytest.approx(0.9555555555555556, rel=1e-12)
    assert round(published, 2) == 0.96  # "95% agreement" up to rounding
    assert published > 0.95
    _report("criterion 5: validation semantics (agreement "
            f"{published:.4f} for r2 pair 0.45/0.43)",
            time.perf_counter() - t0, 5.0)


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    checked = 0
    for spec in catalog():
        lo = np.array([b[0] for b in spec.bounds])
        hi = np.array([b[1] for b in spec.bounds])
        done = 0
        attempts = 0
        while done < 25 and attempts < 200:
            attempts += 1
            p = np.clip(rng.uniform(0.2, 2.5, spec.n_params), lo, hi)
            x = float(rng.uniform(0.3, 4.0))
            if not np.isfinite(evaluate(spec, p, x)):
                continue
            g = np.asarray(gradient(spec, p, np.asarray(x))).ravel()
            fd = np.empty_like(g)
            usable = True
            for j in range(spec.n_params):
                h = 1e-6 * max(1.0, abs(p[j]))
                pp, pm = p.copy(), p.copy()
                pp[j] += h
                pm[j] -= h
                yp, ym = evaluate(spec, pp, x), evaluate(spec, pm, x)
                if not (np.isfinite(yp) and np.isfinite(ym)):
                    usable = False
                    break
                fd[j] = (yp - ym) / (2 * h)
            if not usable:
                continue
            scale = max(np.linalg.norm(fd), np.linalg.norm(g), 1e-8)
            assert np.max(np.abs(g - fd)) / scale < 1e-4, \
                f"{spec.name}: params {p}, x {x}"
            done += 1
        assert done == 25, f"{spec.name}: too few usable sample points"
        checked += done
    _report(f"criterion 6: analytic gradients vs finite differences "
            f"({checked} checks)", time.perf_counter() - t0, 10.0)


def test_criterion_7_prediction_band_coverage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    sigma = 1.0
    xs = rng.uniform(0, 10, 2000)
    ys = 5.0 + 0.5 * xs + rng.normal(0, sigma, xs.size)
    d = make_dataset(xs, np.clip(ys, 0, None))
    spec = get_model("poly1")
    fit = fit_least_squares(spec, d, initial_guess(spec, d))
    band = prediction_band(spec, fit, d, level=0.95)
    half = (band.upper[0] - band.lower[0]) / 2.0

    fresh_x = rng.uniform(0, 10, 10_000)
    fresh_y = 5.0 + 0.5 * fresh_x + rng.normal(0, sigma, fresh_x.size)
    pred = np.asarray(evaluate(spec, fit.params, fresh_x))
    covered = np.mean(np.abs(fresh_y - pred) <= half)
    se = math.sqrt(0.95 * 0.05 / 10_000)
    assert abs(covered - 0.95) <= 3 * se, f"coverage {covered}"
    _report(f"criterion 7: 95% band coverage {covered:.4f} "
            f"(tolerance ±{3 * se:.4f})", time.perf_counter() - t0, 30.0)


def test_criterion_8_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 60, 60)
    ys = np.clip(50 * np.exp(-((xs - 15) ** 2) / 60.0)
                 + rng.normal(0, 1, 60), 0, None)
    d = make_dataset(xs, ys)
    data_csv = tmp_path / "d.csv"
    with open(data_csv, "w", encoding="utf-8") as fh:
        write_csv(d, fh)
    summary_csv = tmp_path / "s.csv"
    summary_csv.write_text("x,n,mean,sd\n25,20,5.0,1.0\n30,30,6.0,1.5\n")

    # synth: identical files
    blobs = []
    for sub in ("s1", "s2"):
        outdir = tmp_path / sub
        assert main(["synth", "--summary", str(summary_csv), "--seed", "1",
                     "--replicates", "2", "--out-dir", str(outdir)]) == 0
        capsys.readouterr()
        blobs.append(b"".join(sorted(
            p.read_bytes() for p in outdir.iterdir())))
    assert blobs[0] == blobs[1]

    # split: identical partitions
    assert split(d, 0.5, seed=3, stratify_bins=4) \
        == split(d, 0.5, seed=3, stratify_bins=4)

    # multi_start: identical results
    spec = get_model("gaussian_peak")
    assert multi_start(spec, d, n_starts=6, seed=9) \
        == multi_start(spec, d, n_starts=6, seed=9)

    # rank: byte-identical JSON leaderboards
    outs = []
    for _ in range(2):
        assert main(["rank", "--data", str(data_csv), "--nonnegative",
                     "--domain", "0:60", "--seed", "7",
                     "--catalog-filter", "peaked"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]

    # plot: byte-identical SVG
    svgs = []
    for name in ("a.svg", "b.svg"):
        path = tmp_path / name
        assert main(["plot", "--data", str(data_csv), "--model",
                     "gaussian_peak", "--band", "--seed", "3",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        svgs.append(path.read_bytes())
    assert svgs[0] == svgs[1]
    with capsys.disabled():
        _report("criterion 8: seeded pipelines byte-identical",
                time.perf_counter() - t0, 60.0)


def _affine_spec(spec, scale, shift):
    return ModelSpec(
        name=f"{spec.name}_affine", n_params=spec.n_params,
        family_class=spec.family_class,
        eval_fn=lambda p, x: scale * spec.eval_fn(p, x) + shift,
        grad_fn=lambda p, x: scale * spec.grad_fn(p, x),
        guess_fn=spec.guess_fn, bounds=spec.bounds,
    )


def test_criterion_9_correlation_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    specs = catalog()
    done = 0
    while done < 20:
        spec = specs[int(rng.integers(len(specs)))]
        lo = np.array([b[0] for b in spec.bounds])
        hi = np.array([b[1] for b in spec.bounds])
        p = np.clip(rng.uniform(0.3, 2.0, spec.n_params), lo, hi)
        series = np.asarray(evaluate(spec, p, np.linspace(1, 5, 48)))
        if not np.all(np.isfinite(series)) or np.ptp(series) == 0:
            continue
        r_self = cross_correlation(spec, p, spec, p, (1.0, 5.0)).r
        assert r_self == pytest.approx(1.0, abs=1e-12)

        other = specs[(specs.index(spec) + 7) % len(specs)]
        po = np.clip(rng.uniform(0.3, 2.0, other.n_params),
                     [b[0] for b in other.bounds],
                     [b[1] for b in other.bounds])
        oseries = np.asarray(evaluate(other, po, np.linspace(1, 5, 48)))
        if not np.all(np.isfinite(oseries)) or np.ptp(oseries) == 0:
            continue
        base = cross_correlation(spec, p, other, po, (1.0, 5.0)).r
        negated = cross_correlation(spec, p, _affine_spec(other, -1.0, 0.0),
                                    po, (1.0, 5.0)).r
        assert negated == pytest.approx(-base, abs=1e-12)
        shifted = cross_correlation(spec, p, _affine_spec(other, 2.5, 7.0),
                                    po, (1.0, 5.0)).r
        assert shifted == pytest.approx(base, abs=1e-12)
        done += 1
    _report("criterion 9: correlation identities over 20 random models",
            time.perf_counter() - t0, 10.0)
