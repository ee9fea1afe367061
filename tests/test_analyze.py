import math
from functools import partial

import numpy as np
import pytest

import curvemine.models as models_module
from curvemine.analyze import (
    _peak,
    _series,
    cross_correlation,
    derivative,
    monthly_loss,
    peak_age,
    percent_remaining,
    prediction_band,
)
from curvemine.fit import fit_least_squares
from curvemine.models import (
    ModelSpec,
    catalog,
    evaluate,
    get_model,
    register_model,
    x_derivative,
)

from conftest import make_dataset


def affine_of(spec, scale, shift):
    """A spec computing scale*f(theta, x) + shift with the same parameters."""
    return ModelSpec(
        name=f"{spec.name}_affine", n_params=spec.n_params,
        family_class=spec.family_class,
        eval_fn=lambda p, x: scale * spec.eval_fn(p, x) + shift,
        grad_fn=lambda p, x: scale * spec.grad_fn(p, x),
        guess_fn=spec.guess_fn, bounds=spec.bounds,
    )


def sample_params(spec, rng):
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    return np.clip(rng.uniform(0.3, 2.0, spec.n_params), lo, hi)


class TestDerivative:
    def test_cubic(self):
        assert derivative(get_model("poly3"), [0, 0, 0, 1.0], 2.0) \
            == pytest.approx(12.0)

    def test_constant(self):
        assert derivative(get_model("poly0"), [5.0], 3.0) == 0.0

    def test_analytic_matches_central_across_catalog(self):
        rng = np.random.default_rng(6)
        for spec in catalog():
            for _ in range(5):
                p = sample_params(spec, rng)
                x = float(rng.uniform(0.5, 4.0))
                if not np.isfinite(evaluate(spec, p, x)):
                    continue
                a = derivative(spec, p, x)
                h = 1e-6 * max(1.0, abs(x))  # a central difference
                c = (float(evaluate(spec, p, x + h))
                     - float(evaluate(spec, p, x - h))) / (2.0 * h)
                scale = max(abs(a), abs(c), 1e-6)
                assert abs(a - c) / scale < 1e-6, spec.name

    def test_user_family_needs_no_x_derivative(self, monkeypatch):
        monkeypatch.setattr(models_module, "_REGISTRY",
                            dict(models_module._REGISTRY))
        spec = register_model(ModelSpec(
            name="damped_wave", n_params=2, family_class="exponential",
            eval_fn=lambda p, x: p[0] * np.exp(-0.1 * x) * np.sin(p[1] * x),
            grad_fn=lambda p, x: np.stack([
                np.exp(-0.1 * x) * np.sin(p[1] * x),
                p[0] * x * np.exp(-0.1 * x) * np.cos(p[1] * x)]),
            guess_fn=lambda xs, ys: np.array([1.0, 1.0])))
        a, w = 3.0, 0.7
        for x in (0.0, 0.5, 2.0, 7.5):
            closed = a * np.exp(-0.1 * x) * (w * np.cos(w * x)
                                             - 0.1 * np.sin(w * x))
            assert derivative(spec, [a, w], x) == pytest.approx(
                closed, rel=1e-13, abs=1e-15)


# Ages in {-1, -0.5, 0} where dy/dx is undefined, with every parameter equal
# to 0.5, or every one equal to 1.5; the derivative exists at every other
# (family, age) pair.
# At 0, x**q with q > 1 has the one-sided slope 0 (a power, Hill, stretched
# exponential), as does the log-normal peak; q < 1 has an infinite slope.
_NO_SLOPE = {
    "stretched_exp": {0.5: (-1.0, -0.5, 0.0), 1.5: (-1.0, -0.5)},
    "hill_sigmoid": {0.5: (-1.0, -0.5, 0.0), 1.5: (-1.0, -0.5)},
    "power_law": {0.5: (-1.0, -0.5, 0.0), 1.5: (-1.0, -0.5)},
    "power_offset": {0.5: (-1.0, -0.5, 0.0), 1.5: (-1.0, -0.5)},
    "sqrt_law": {0.5: (-1.0, -0.5, 0.0), 1.5: (-1.0, -0.5, 0.0)},
    "lognormal_peak": {0.5: (-1.0, -0.5), 1.5: (-1.0, -0.5)},
    "log_law": {0.5: (-1.0,), 1.5: (-1.0,)},       # log1p(-1)
    "inverse_shift": {0.5: (-0.5,), 1.5: ()},        # pole at x = -c
}
_ONE_SIDED_ZERO = {"stretched_exp", "hill_sigmoid", "power_law",
                   "power_offset", "lognormal_peak"}


def same_bits(a, b):
    """Equal bit for bit, -0.0 told from 0.0; any NaN equals any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


# Draws where numpy's scalar ``**`` rounds a grid value's last bit otherwise
# than its array loop does, so a per-age call must be computed as an array.
_SCALAR_POW_DRAWS = {
    "gaussian_peak": [[25.79, 1.49, 2.17]],
    "gaussian_peak_offset": [[22.17, 21.48, 7.43, 3.89]],
    "sech2_peak": [[23.0, 12.1, 1.1]],
}


class TestOneCallScan:
    @pytest.mark.parametrize("name", [s.name for s in catalog()])
    def test_grid_in_one_call_equals_the_calls_per_age(self, name):
        # the analyze command's peak scan: 256 ages of its --domain=-1:55
        spec = get_model(name)
        xs = np.linspace(-1.0, 55.0, 256)
        rng = np.random.default_rng(31)
        draws = [sample_params(spec, rng) for _ in range(4)]
        for p in draws + _SCALAR_POW_DRAWS.get(name, []):
            assert same_bits(evaluate(spec, p, xs),
                             [evaluate(spec, p, float(x)) for x in xs])
            assert same_bits(x_derivative(spec, p, xs),
                             [x_derivative(spec, p, float(x)) for x in xs])
            ok = xs[np.isfinite(x_derivative(spec, p, xs))]
            assert same_bits(monthly_loss(spec, p, ok),
                             [monthly_loss(spec, p, float(x)) for x in ok])
            assert same_bits(_series(spec, p, "negated_derivative", ok),
                             [-derivative(spec, p, float(x)) for x in ok])
            if ok.size == xs.size:
                loss = partial(monthly_loss, spec, p)
                assert _peak(loss, (-1.0, 55.0)) == peak_age(loss, (-1.0, 55.0))
            value = partial(evaluate, spec, p)
            if np.all(np.isfinite(evaluate(spec, p, xs))):
                assert _peak(value, (-1.0, 55.0)) == peak_age(value, (-1.0, 55.0))

    def test_non_finite_derivative_names_the_first_bad_age(self):
        spec, p = get_model("power_law"), [1.0, 0.5]  # no slope below 0
        xs = np.array([2.0, -0.5, 3.0, -1.0])
        with pytest.raises(ValueError) as scalar:
            derivative(spec, p, -0.5)
        for f in (derivative, monthly_loss):
            with pytest.raises(ValueError, match="^non-finite derivative of "
                               r"power_law at x=-0\.5$") as array:
                f(spec, p, xs)
            assert str(array.value) == str(scalar.value)
        # the scan raises what the scan one age at a time raises
        loss = partial(monthly_loss, spec, p)
        with pytest.raises(ValueError) as per_age:
            peak_age(loss, (-1.0, 55.0))
        with pytest.raises(ValueError, match="^non-finite derivative of power_law "
                           r"at x=-1\.0$") as one_call:
            _peak(loss, (-1.0, 55.0))
        assert str(one_call.value) == str(per_age.value)


class TestBranchPoints:
    @pytest.mark.parametrize("value", [0.5, 1.5])
    def test_slope_exists_exactly_where_expected(self, value):
        ages = np.array([-1.0, -0.5, 0.0])
        for spec in catalog():
            p = np.full(spec.n_params, value)
            undefined = _NO_SLOPE.get(spec.name, {}).get(value, ())
            finite = np.isfinite(x_derivative(spec, p, ages))
            assert finite.tolist() == [a not in undefined for a in ages], \
                spec.name
            for a in ages:
                if a in undefined:
                    with pytest.raises(ValueError, match="non-finite"):
                        derivative(spec, p, a)
                else:
                    derivative(spec, p, a)
            if spec.name in _ONE_SIDED_ZERO and 0.0 not in undefined:
                assert derivative(spec, p, 0.0) == 0.0, spec.name

    def test_underflowing_tail_is_not_a_branch_point(self):
        # Im f(x + ih) turns subnormal here, so the h and 2h quotients differ
        xs = np.linspace(30.0, 40.0, 201)
        got = x_derivative(get_model("gaussian_peak"), [1.0, 0.0, 1.0], xs)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, -xs * np.exp(-xs * xs / 2.0),
                                   rtol=1e-12, atol=1e-300)


class TestMonthlyLoss:
    def test_linear_decline(self):
        # N(t) = 1000 - 120 t declines 120/year = 10/month
        assert monthly_loss(get_model("poly1"), [1000.0, -120.0], 5.0) \
            == pytest.approx(10.0)

    def test_growth_reported_negative(self):
        assert monthly_loss(get_model("poly1"), [0.0, 12.0], 5.0) \
            == pytest.approx(-1.0)

    def test_gaussian_decline_peak_at_inflection(self):
        spec = get_model("gaussian_peak")
        params = [100.0, 14.5, 4.0]
        pk = peak_age(lambda t: monthly_loss(spec, params, t), (0.0, 60.0))
        # dense grid oracle: the closed-form Gaussian derivative
        A, c, w = params
        grid = np.linspace(0, 60, 1_000_000)
        dy = -A * (grid - c) / w ** 2 * np.exp(-(grid - c) ** 2 / (2 * w * w))
        losses = -dy / 12.0
        oracle_age = grid[np.argmax(losses)]
        assert abs(pk.age - oracle_age) < 1e-3
        assert abs(pk.age - (14.5 + 4.0)) < 1e-3  # analytic inflection


class TestPeakAge:
    def test_gaussian_center(self):
        spec = get_model("gaussian_peak")
        pk = peak_age(lambda t: float(evaluate(spec, [5.0, 14.5, 3.0], t)),
                      (0.0, 60.0))
        assert pk.age == pytest.approx(14.5, abs=1e-3)
        assert pk.value == pytest.approx(5.0, rel=1e-6)

    def test_monotone_hits_right_endpoint(self):
        pk = peak_age(lambda t: t, (0.0, 10.0))
        assert pk.age == pytest.approx(10.0, abs=1e-2)

    def test_two_bumps_taller_wins(self):
        def f(t):
            return (3.0 * math.exp(-((t - 10) ** 2) / 8.0)
                    + 5.0 * math.exp(-((t - 40) ** 2) / 8.0))
        pk = peak_age(f, (0.0, 60.0))
        grid = np.linspace(0, 60, 1_000_000)
        oracle = grid[np.argmax([f(t) for t in grid])]
        assert abs(pk.age - oracle) < 1e-3

    def test_plateau_flagged(self):
        pk = peak_age(lambda t: 1.0, (0.0, 10.0))
        assert pk.plateau
        assert pk.age == pytest.approx(5.0)

    def test_rescaling_invariance(self):
        def f(t):
            return math.exp(-((t - 20) ** 2) / 10.0)
        a = peak_age(f, (0.0, 60.0))
        b = peak_age(lambda t: 7.5 * f(t), (0.0, 60.0))
        assert a.age == pytest.approx(b.age, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            peak_age(lambda t: t, (5.0, 5.0))

    def test_non_finite_objective(self):
        with pytest.raises(ValueError, match="non-finite"):
            peak_age(lambda t: math.nan, (0.0, 1.0))


class TestPercentRemaining:
    def test_peak_reference_is_100(self):
        spec = get_model("gaussian_peak")
        assert percent_remaining(spec, [5.0, 14.5, 3.0], 14.5,
                                 reference="peak") == pytest.approx(100.0, rel=1e-6)

    def test_half_life(self):
        spec = get_model("exp_decay")
        got = percent_remaining(spec, [1.0, 1.0], math.log(2.0), reference=0.0)
        assert got == pytest.approx(50.0, rel=1e-9)

    def test_closed_form_oracle(self):
        # known decline: N(t) = 100 e^{-0.1 t}
        spec = get_model("exp_decay")
        params = [100.0, 0.1]
        for age in (30.0, 40.0):
            expected = 100.0 * math.exp(-0.1 * age) / 100.0 * 100.0
            got = percent_remaining(spec, params, age, reference=0.0)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_nonpositive_reference(self):
        spec = get_model("poly0")
        with pytest.raises(ValueError):
            percent_remaining(spec, [0.0], 10.0, reference=0.0)


class TestCrossCorrelation:
    def test_affine_relation(self):
        a = get_model("poly1")
        rep = cross_correlation(a, [0.0, 1.0], a, [1.0, 2.0], (0.0, 10.0))
        assert rep.r == pytest.approx(1.0, abs=1e-12)

    def test_negation(self):
        a = get_model("poly1")
        rep = cross_correlation(a, [0.0, 1.0], a, [0.0, -1.0], (0.0, 10.0))
        assert rep.r == pytest.approx(-1.0, abs=1e-12)

    def test_self_correlation(self):
        rng = np.random.default_rng(10)
        specs = catalog()
        for _ in range(10):
            spec = specs[rng.integers(len(specs))]
            p = sample_params(spec, rng)
            series = np.asarray(evaluate(spec, p, np.linspace(1, 5, 50)))
            if not np.all(np.isfinite(series)) or np.ptp(series) == 0:
                continue
            rep = cross_correlation(spec, p, spec, p, (1.0, 5.0),
                                    transform_a="value", transform_b="value")
            assert rep.r == pytest.approx(1.0, abs=1e-12)

    def test_default_grid_is_monthly(self):
        a = get_model("poly1")
        rep = cross_correlation(a, [0.0, 1.0], a, [1.0, 2.0], (0.0, 10.0))
        assert rep.grid_size == 120

    def test_derivative_transforms(self):
        a = get_model("poly2")  # derivative is linear
        rep = cross_correlation(a, [0.0, 0.0, 1.0], a, [0.0, 1.0, 0.0],
                                (0.0, 10.0),
                                transform_a="derivative", transform_b="value")
        assert rep.r == pytest.approx(1.0, abs=1e-12)
        neg = cross_correlation(a, [0.0, 0.0, 1.0], a, [0.0, 1.0, 0.0],
                                (0.0, 10.0),
                                transform_a="negated_derivative",
                                transform_b="value")
        assert neg.r == pytest.approx(-1.0, abs=1e-12)

    def test_constant_series_error(self):
        a = get_model("poly0")
        b = get_model("poly1")
        with pytest.raises(ValueError, match="constant"):
            cross_correlation(a, [5.0], b, [0.0, 1.0], (0.0, 10.0))

    def test_rejected_inputs(self):
        a = get_model("poly1")
        with pytest.raises(ValueError, match="empty age range"):
            cross_correlation(a, [0.0, 1.0], a, [1.0, 2.0], (3.0, 3.0))
        with pytest.raises(ValueError, match="unknown transform 'slope'"):
            cross_correlation(a, [0.0, 1.0], a, [1.0, 2.0], (0.0, 1.0),
                              transform_b="slope")
        root = get_model("power_law")  # NaN at negative ages
        with pytest.raises(ValueError, match="non-finite model values"):
            cross_correlation(root, [1.0, 0.5], a, [1.0, 2.0], (-1.0, 1.0))

    def test_swap_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(14)
        a, b = get_model("gaussian_peak"), get_model("poly2")
        pa = [5.0, 3.0, 1.5]
        pb = [1.0, -0.5, 0.2]
        base = cross_correlation(a, pa, b, pb, (0.0, 8.0))
        swapped = cross_correlation(b, pb, a, pa, (0.0, 8.0))
        assert base.r == pytest.approx(swapped.r, abs=1e-12)
        b_affine = affine_of(b, 2.5, 7.0)
        shifted = cross_correlation(a, pa, b_affine, pb, (0.0, 8.0))
        assert shifted.r == pytest.approx(base.r, abs=1e-12)


class TestPredictionBand:
    def _fit_line(self, noise_sd, n=200, seed=0):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 10, n)
        ys = np.clip(5.0 + 0.5 * xs + rng.normal(0, noise_sd, n), 0, None)
        d = make_dataset(xs, ys)
        spec = get_model("poly1")
        return spec, fit_least_squares(spec, d, [0.0, 0.0]), d

    def test_zero_residuals_zero_width(self, line_dataset):
        spec = get_model("poly1")
        fit = fit_least_squares(spec, line_dataset, [0.0, 0.0])
        band = prediction_band(spec, fit, line_dataset)
        assert np.allclose(band.lower, band.upper, atol=1e-12)

    def test_95_half_width(self):
        spec, fit, d = self._fit_line(noise_sd=0.5)
        band = prediction_band(spec, fit, d, level=0.95)
        s = math.sqrt(fit.rss / (len(d) - 2))
        widths = np.array(band.upper) - np.array(band.lower)
        assert np.allclose(widths / 2.0, 1.959964 * s, atol=1e-6 * s)

    def test_width_monotone_in_level(self):
        spec, fit, d = self._fit_line(noise_sd=0.5)
        w = []
        for level in (0.5, 0.8, 0.95, 0.99):
            band = prediction_band(spec, fit, d, level=level)
            w.append(band.upper[0] - band.lower[0])
        assert w == sorted(w)

    def test_level_validation(self):
        spec, fit, d = self._fit_line(noise_sd=0.5)
        for level in (0.0, 1.0):
            with pytest.raises(ValueError, match="level must be in"):
                prediction_band(spec, fit, d, level=level)

    def test_dof_validation(self):
        d = make_dataset([0, 1], [1.0, 3.0])
        spec = get_model("poly1")
        fit = fit_least_squares(spec, d, [0.0, 0.0])
        with pytest.raises(ValueError, match="degrees of freedom"):
            prediction_band(spec, fit, d)

    def test_csv_export(self):
        spec, fit, d = self._fit_line(noise_sd=0.5)
        csv_text = prediction_band(spec, fit, d).to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "x,lower,fit,upper"
        assert len(lines) == 201
