import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import curvemine.models as models_module
from curvemine.fit import fit_least_squares
from curvemine.models import (
    ModelSpec,
    PlausibilityConfig,
    catalog,
    check_plausibility,
    evaluate,
    get_model,
    gradient,
    initial_guess,
    register_model,
    spec_to_dict,
)

from conftest import make_dataset


REQUIRED_NAMES = {
    "poly0", "poly1", "poly2", "poly3", "poly4", "poly5",
    "exp_decay", "double_exp_decay", "logistic", "gompertz",
    "gaussian_peak", "lognormal_peak", "hill_sigmoid",
    "rational_lin_lin", "power_law",
}

FAMILY_CLASSES = {"polynomial", "exponential", "sigmoidal",
                  "peaked", "rational", "power"}


def sample_params(spec, rng):
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    return np.clip(rng.uniform(0.2, 2.5, spec.n_params), lo, hi)


def complex_step_partials(spec, p, x, h=1e-20):
    """Im f(p + ih e_j, x) / h, one partial j at a time."""
    with np.errstate(all="ignore"):
        return np.array([np.broadcast_to(spec.eval_fn(p + complex(0.0, h) * e, x),
                                         x.shape).imag
                         for e in np.eye(spec.n_params)]) / h


def fine_complex_step_partials(spec, p, x):
    """The partials at h = 1e-30 wherever Im f(p + ih e_j, x) is a normal
    float, and at h = 1e-20 where it is not. The complex step's own error
    is ~(h x / den)**2 relative near a pole of a rational family, 8e-9 at
    h = 1e-20 where den is 1e-16; the smaller step makes it negligible,
    and the larger one keeps the partials whose imaginary parts underflow
    at h = 1e-30 (or whose quotient overflows there)."""
    fine, coarse = (complex_step_partials(spec, p, x, h) for h in (1e-30, 1e-20))
    normal = np.isfinite(fine) & (np.abs(fine) * 1e-30 >= np.finfo(float).tiny)
    return np.where(normal, fine, coarse)


class TestCatalog:
    def test_count_and_unique_names(self):
        specs = catalog()
        names = [s.name for s in specs]
        assert len(specs) >= 30
        assert len(set(names)) == len(names)

    def test_required_families_present(self):
        assert REQUIRED_NAMES <= {s.name for s in catalog()}

    def test_all_family_classes_covered(self):
        assert {s.family_class for s in catalog()} == FAMILY_CLASSES

    def test_guess_within_bounds_everywhere(self):
        rng = np.random.default_rng(1)
        d = make_dataset(rng.uniform(0.5, 50, 10), rng.uniform(0.5, 9, 10))
        for spec in catalog():
            p = initial_guess(spec, d)
            assert np.all(np.isfinite(p))
            for v, (lo, hi) in zip(p, spec.bounds):
                assert lo <= v <= hi

    def test_registration_rejects_duplicates(self):
        spec = get_model("poly0")
        with pytest.raises(ValueError):
            register_model(spec)

    def test_json_export_shape(self):
        d = spec_to_dict(get_model("gaussian_peak"))
        assert d["name"] == "gaussian_peak"
        assert d["n_params"] == 3
        assert d["family_class"] == "peaked"
        assert len(d["bounds"]) == 3


class TestEvaluate:
    def test_logistic_midpoint(self):
        assert evaluate(get_model("logistic"), [8.0, 1.5, 20.0], 20.0) \
            == pytest.approx(4.0)

    def test_constant(self):
        spec = get_model("poly0")
        for x in (-0.5, 0.0, 100.0):
            assert evaluate(spec, [7.0], x) == 7.0

    def test_gaussian_center_is_amplitude(self):
        assert evaluate(get_model("gaussian_peak"), [42.0, 14.5, 3.0], 14.5) \
            == pytest.approx(42.0)

    def test_pole_signals_nonfinite(self):
        # pole at x = 2 for c = -0.5
        y = evaluate(get_model("rational_lin_lin"), [1.0, 1.0, -0.5], 2.0)
        assert not np.isfinite(y)

    def test_vectorized(self):
        xs = np.linspace(0, 10, 5)
        ys = evaluate(get_model("poly1"), [1.0, 2.0], xs)
        assert np.allclose(ys, 1.0 + 2.0 * xs)


class TestBatch:
    def test_batch_equals_rows_for_every_family(self):
        rng = np.random.default_rng(8)
        xs = np.concatenate([rng.uniform(-0.75, 0.0, 6), rng.uniform(0.0, 51.0, 40)])
        for spec in catalog():
            models_module._check_batch_contract(spec)
            lo = np.array([b[0] for b in spec.bounds])
            hi = np.array([b[1] for b in spec.bounds])
            batch = np.clip(rng.uniform(-2.0, 3.0, (4, spec.n_params)), lo, hi)
            y = evaluate(spec, batch, xs)
            assert y.shape == (4, xs.size), spec.name
            rows = np.stack([evaluate(spec, p, xs) for p in batch])
            assert np.allclose(y, rows, rtol=1e-12, atol=0, equal_nan=True), spec.name
            g = gradient(spec, batch, xs)
            rows = np.stack([gradient(spec, p, xs) for p in batch])
            assert g.shape == rows.shape, spec.name
            assert np.allclose(g, rows, rtol=1e-12, atol=0, equal_nan=True), \
                spec.name

    def test_batch_at_scalar_x(self):
        spec = get_model("logistic")
        batch = np.array([[8.0, 1.5, 20.0], [4.0, 1.0, 10.0]])
        assert evaluate(spec, batch, 20.0).shape == (2,)
        assert evaluate(spec, batch, 20.0)[0] == pytest.approx(4.0)


def _custom(name, eval_fn, grad_fn):
    return ModelSpec(
        name=name, n_params=2, family_class="power", eval_fn=eval_fn,
        grad_fn=grad_fn,
        guess_fn=lambda xs, ys: np.array([1.0, 1.0]))


class TestRegisterBatchContract:
    @pytest.fixture(autouse=True)
    def private_registry(self, monkeypatch):
        monkeypatch.setattr(models_module, "_REGISTRY",
                            dict(models_module._REGISTRY))

    def test_batch_safe_family_registers(self):
        spec = _custom("scaled_log", lambda p, x: p[0] * np.log1p(p[1] * x),
                       lambda p, x: np.stack([np.log1p(p[1] * x),
                                              p[0] * x / (1 + p[1] * x)]))
        assert register_model(spec) is spec
        assert get_model("scaled_log") is spec

    @pytest.mark.parametrize("name, eval_fn", [
        ("uses_math", lambda p, x: p[0] * x + math.log(p[1])),
        ("branches", lambda p, x: p[0] * x if p[1] != 0 else x),
        ("first_row_only", lambda p, x: np.asarray(p[0]).flat[0] * x + p[1]),
    ])
    def test_unbatchable_family_rejected_by_name(self, name, eval_fn):
        spec = _custom(name, eval_fn,
                       lambda p, x: np.stack([x * np.ones_like(x),
                                              np.ones_like(x)]))
        with pytest.raises(ValueError, match=name):
            register_model(spec)
        assert name not in {s.name for s in catalog()}

    @pytest.mark.parametrize("name, eval_fn", [
        ("real_math_exp", lambda p, x: p[0] * np.vectorize(math.exp)(p[1] * x)),
        ("casts_x_to_float",
         lambda p, x: p[0] * np.asarray(x, dtype=float) + p[1]),
    ])
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.ComplexWarning")
    def test_real_only_eval_rejected_by_name(self, name, eval_fn):
        # both pass the batch probe; neither carries a complex step through
        spec = _custom(name, eval_fn,
                       lambda p, x: np.stack([x * np.ones_like(x),
                                              np.ones_like(x)]))
        with pytest.raises(ValueError, match=name):
            register_model(spec)
        assert name not in {s.name for s in catalog()}

    def test_gradient_checked_too(self):
        spec = _custom("bad_grad", lambda p, x: p[0] * x + p[1],
                       lambda p, x: np.stack([x, np.ones_like(x) * float(np.ravel(p[1])[0])]))
        with pytest.raises(ValueError, match="bad_grad"):
            register_model(spec)

    def test_wrong_sign_partial_rejected_by_name_and_row(self):
        def grad(p, x):  # d/db of a exp(-b x) is -a x exp(-b x)
            e = np.exp(-p[1] * x)
            return np.stack([e, p[0] * x * e])

        spec = ModelSpec(name="exp_decay_flipped", n_params=2,
                         family_class="exponential",
                         eval_fn=get_model("exp_decay").eval_fn, grad_fn=grad,
                         guess_fn=get_model("exp_decay").guess_fn)
        with pytest.raises(ValueError, match="exp_decay_flipped.*grad_fn row 1"):
            register_model(spec)
        assert "exp_decay_flipped" not in {s.name for s in catalog()}


class TestLinearContract:
    """``linear`` declarations: which built-ins declare them, and the probe
    ``register_model`` runs on a declaration."""

    @pytest.fixture(autouse=True)
    def private_registry(self, monkeypatch):
        monkeypatch.setattr(models_module, "_REGISTRY",
                            dict(models_module._REGISTRY))

    def test_declared_built_ins(self):
        declared = {s.name: s.linear for s in catalog() if s.linear}
        assert declared == {
            "double_exp_decay": (0, 2), "exp_decay_offset": (0, 2),
            "exp_saturating": (0,), "log_law": (0, 1), "sqrt_law": (0, 1),
            "rational_lin_quad": (0, 1), "power_offset": (0, 2),
            **{f"poly{d}": tuple(range(d + 1)) for d in range(6)}}

    def test_built_ins_pass_the_probe(self):
        for spec in catalog():
            if spec.linear:
                models_module._check_linear(
                    spec, np.array([[0.7, 1.1, 0.4, 0.9, 1.3, 0.6][:spec.n_params],
                                    [1.2, 0.3, 0.8, 0.5, 0.7, 1.4][:spec.n_params]]),
                    np.linspace(0.5, 3.0, 4))

    def test_additive_user_family_registers(self):
        spec = ModelSpec(
            name="decay_plus_line", n_params=3, family_class="exponential",
            eval_fn=lambda p, x: np.exp(-p[1] * x) + p[0] * x + p[2],
            grad_fn=lambda p, x: np.stack([x * np.ones_like(p[1]),
                                           -x * np.exp(-p[1] * x),
                                           np.ones_like(x * p[1])]),
            guess_fn=lambda xs, ys: np.array([1.0]), linear=(2, 0))
        assert spec.linear == (0, 2)
        assert register_model(spec) is spec

    @pytest.mark.parametrize("name, linear, guess", [
        ("full_vector_guess", (0,), lambda xs, ys: np.array([1.0, 0.1])),
        ("short_guess", (), lambda xs, ys: np.array([1.0])),
        ("scalar_guess", (0,), lambda xs, ys: 0.1),
    ])
    def test_guess_of_the_wrong_length_rejected_by_name(self, name, linear,
                                                        guess):
        def grad(p, x):
            e = np.exp(-p[1] * x)
            return np.stack([e, -p[0] * x * e])

        spec = ModelSpec(
            name=name, n_params=2, family_class="exponential",
            eval_fn=lambda p, x: p[0] * np.exp(-p[1] * x), grad_fn=grad,
            guess_fn=guess, linear=linear)
        with pytest.raises(ValueError, match=f"{name}.*guess_fn"):
            register_model(spec)
        assert name not in {s.name for s in catalog()}
        with pytest.raises(ValueError, match=f"{name}.*guess_fn"):
            initial_guess(spec, make_dataset([0.0, 1.0, 2.0], [3.0, 2.0, 1.5]))

    def test_fully_linear_family_needs_no_guess(self):
        spec = ModelSpec(
            name="line_no_guess", n_params=2, family_class="polynomial",
            eval_fn=lambda p, x: p[0] + p[1] * x,
            grad_fn=lambda p, x: np.stack([np.ones_like(x), x]), linear=(0, 1))
        assert register_model(spec) is spec
        d = make_dataset([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert initial_guess(spec, d).tolist() == [0.0, 0.0]
        assert fit_least_squares(spec, d, initial_guess(spec, d)).params == \
            pytest.approx([1.0, 2.0])

    def test_list_bounds_are_stored_as_pairs(self):
        spec = ModelSpec(
            name="line_list_bounds", n_params=2, family_class="polynomial",
            eval_fn=lambda p, x: p[0] + p[1] * x,
            grad_fn=lambda p, x: np.stack([np.ones_like(x), x]),
            bounds=[[-np.inf, np.inf], [-np.inf, np.inf]], linear=(0, 1))
        assert spec.bounds == ((-np.inf, np.inf),) * 2
        assert register_model(spec) is spec  # its linear bounds read as (-inf, inf)

    @pytest.mark.parametrize("name, linear, bounds, grad_a, why", [
        # b sits in the exponent, so its grad_fn row moves with it
        ("rate_declared", (1,), (), None, "grad_fn rows"),
        # a's row is fixed but is not the basis that eval_fn adds
        ("wrong_basis", (0,), (), lambda p, x: 2.0 * np.exp(-p[1] * x),
         "not additive"),
        ("bounded_amplitude", (0,), ((0.0, np.inf), (-np.inf, np.inf)), None,
         "bounds"),
        # eval is linear in a, but its grad_fn row scales with a
        ("row_moves_with_a", (0,), (), lambda p, x: p[0] * np.exp(-p[1] * x),
         "grad_fn rows"),
    ])
    def test_misdeclared_family_rejected_by_name(self, name, linear, bounds,
                                                grad_a, why):
        def grad(p, x):
            e = np.exp(-p[1] * x)
            return np.stack([e if grad_a is None else grad_a(p, x), -p[0] * x * e])

        spec = ModelSpec(
            name=name, n_params=2, family_class="exponential",
            eval_fn=lambda p, x: p[0] * np.exp(-p[1] * x), grad_fn=grad,
            guess_fn=lambda xs, ys: np.array([1.0, 0.1]), bounds=bounds,
            linear=linear)
        with pytest.raises(ValueError, match=f"{name}.*{why}"):
            register_model(spec)
        assert name not in {s.name for s in catalog()}

    @pytest.mark.parametrize("linear", [(2,), (0, 0), (-1,)])
    def test_indices_checked_at_construction(self, linear):
        with pytest.raises(ValueError, match="line2.*linear"):
            ModelSpec(name="line2", n_params=2, family_class="polynomial",
                      eval_fn=lambda p, x: p[0] + p[1] * x,
                      grad_fn=lambda p, x: np.stack([np.ones_like(x), x]),
                      guess_fn=lambda xs, ys: np.zeros(2), linear=linear)

    def test_offset_joins_the_declared_base_parameters(self):
        assert get_model("exp_decay").linear == ()
        assert get_model("exp_decay_offset").linear == (0, 2)
        for name in ("gaussian_peak_offset", "logistic_offset"):
            assert get_model(name).linear == (), name


class TestGradient:
    def test_linear_gradient(self):
        g = gradient(get_model("poly1"), [1.0, 2.0], np.asarray(3.0))
        assert np.allclose(g.ravel(), [1.0, 3.0])

    def test_constant_gradient(self):
        g = gradient(get_model("poly0"), [5.0], np.asarray(2.0))
        assert np.allclose(g.ravel(), [1.0])

    def test_stretched_exp_amplitude_row_at_zero_amplitude(self):
        spec = get_model("stretched_exp")
        x = np.linspace(0.5, 40.0, 9)
        g = gradient(spec, [0.0, 2.0, 1.5], x)[0]
        h = 1e-6
        central = (evaluate(spec, [h, 2.0, 1.5], x)
                   - evaluate(spec, [-h, 2.0, 1.5], x)) / (2 * h)
        assert np.isfinite(g).all()
        assert g == pytest.approx(central, rel=1e-9, abs=1e-15)

    def test_against_finite_differences(self):
        # full-catalog sweep lives in the acceptance suite; spot-check here
        rng = np.random.default_rng(2)
        for spec in catalog():
            for _ in range(5):
                p = sample_params(spec, rng)
                x = rng.uniform(0.3, 4.0)
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
                assert np.max(np.abs(g - fd)) / scale < 1e-4, spec.name


class TestInitialGuess:
    def test_linear_closed_form(self, line_dataset):
        spec = get_model("poly1")
        fit = fit_least_squares(spec, line_dataset,
                                initial_guess(spec, line_dataset))
        assert fit.params == pytest.approx([1.0, 2.0])

    def test_gaussian_center_in_range(self, gaussian_dataset):
        p = initial_guess(get_model("gaussian_peak"), gaussian_dataset)
        xs = gaussian_dataset.xs
        assert xs.min() <= p[1] <= xs.max()

    def test_constant_is_mean(self):
        d = make_dataset([0, 1, 2], [2.0, 4.0, 6.0])
        spec = get_model("poly0")
        fit = fit_least_squares(spec, d, initial_guess(spec, d))
        assert fit.params == pytest.approx([4.0])

    def test_too_few_points(self):
        d = make_dataset([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="need"):
            initial_guess(get_model("poly5"), d)

    @pytest.mark.parametrize("name, want", [
        ("exp_decay", [4.0, 1.0 / 3.5]),              # max y, 1 / x span
        ("exp_quadratic", [math.log(0.8), 0.0, 0.0]),  # log of mean |y|
        ("power_law", [0.8, 1.0]),                     # mean |y|, linear
    ])
    def test_log_scale_guesses_fall_back_without_positive_points(self, name, want):
        # one positive y, at the one positive age: too few to fit on a log scale
        d = make_dataset([-0.5, 0.0, 3.0, 2.0, 1.0], [0.0, 0.0, 4.0, 0.0, 0.0])
        assert initial_guess(get_model(name), d) == pytest.approx(want, rel=1e-15)


class TestPlausibility:
    def test_constant_nonnegative(self):
        ok, reason = check_plausibility(
            get_model("poly0"), [5.0],
            PlausibilityConfig(domain=(0, 60), require_nonnegative=True))
        assert ok

    def test_declining_line_goes_negative(self):
        ok, reason = check_plausibility(
            get_model("poly1"), [10.0, -1.0],
            PlausibilityConfig(domain=(0, 60), require_nonnegative=True))
        assert not ok
        assert "negative" in reason

    def test_pole_in_domain(self):
        # denominator vanishes at x = 60, which the scan grid hits
        ok, reason = check_plausibility(
            get_model("rational_lin_lin"), [1.0, 1.0, -1.0 / 60.0],
            PlausibilityConfig(domain=(0, 60)))
        assert not ok
        assert "non-finite" in reason

    def test_sign_change_budget(self):
        cfg = PlausibilityConfig(domain=(0, 60),
                                 max_sign_changes_of_derivative=0)
        ok, reason = check_plausibility(
            get_model("gaussian_peak"), [5.0, 30.0, 5.0], cfg)
        assert not ok  # a peak has one derivative sign change
        relaxed = PlausibilityConfig(domain=(0, 60),
                                     max_sign_changes_of_derivative=1)
        assert check_plausibility(get_model("gaussian_peak"),
                                  [5.0, 30.0, 5.0], relaxed)[0]

    def test_negative_sign_change_budget_rejected(self):
        with pytest.raises(ValueError,
                           match="^max_sign_changes_of_derivative must be >= 0, got -1$"):
            PlausibilityConfig(max_sign_changes_of_derivative=-1)
        PlausibilityConfig(max_sign_changes_of_derivative=0)

    def test_monotone_under_relaxation(self):
        rng = np.random.default_rng(4)
        strict = PlausibilityConfig(domain=(0, 60), require_nonnegative=True,
                                    max_sign_changes_of_derivative=1)
        relaxed = PlausibilityConfig(domain=(0, 60), require_nonnegative=False,
                                     max_sign_changes_of_derivative=None)
        for spec in catalog():
            p = sample_params(spec, rng)
            if check_plausibility(spec, p, strict)[0]:
                assert check_plausibility(spec, p, relaxed)[0], spec.name

    def test_empty_domain_error(self):
        with pytest.raises(ValueError):
            PlausibilityConfig(domain=(5.0, 5.0))


class TestGradients:
    @pytest.mark.parametrize("name", [s.name for s in catalog() if s.grad_fn])
    @settings(max_examples=100, deadline=None)
    @given(p=st.lists(st.floats(0.2, 2.5), min_size=6, max_size=6),
           x=arrays(np.float64, st.integers(1, 12), elements=st.floats(-1.0, 60.0)))
    # rational_lin_quad's denominator is 1.1e-16 here, near its pole
    @example(p=[1.0, 1.0, 1.5, 0.5, 1.0, 1.0], x=np.array([-0.9999999999999999]))
    def test_grad_fn_is_the_complex_step_partial(self, name, p, x):
        # Pre-birth ages included. Where the model and both partials are
        # finite, each partial agrees to 1e-9 relative, above a floor of 1e-12
        # times the largest partial at its age (the Jacobian row of that age).
        spec = get_model(name)
        p = np.clip(p[:spec.n_params], *models_module._bounds(spec))
        want, got = fine_complex_step_partials(spec, p, x), gradient(spec, p, x)
        with np.errstate(all="ignore"):
            both = np.isfinite(want) & np.isfinite(got) & np.isfinite(evaluate(spec, p, x))
            floor = 1e-12 * np.max(np.abs(want), axis=0, where=np.isfinite(want),
                                   initial=0.0) + 1e-300
            assert np.all((np.abs(got - want) <= 1e-9 * np.abs(want) + floor)[both])

    def test_family_without_grad_fn_registers_with_complex_step_partials(
            self, monkeypatch):
        monkeypatch.setattr(models_module, "_REGISTRY", dict(models_module._REGISTRY))
        gauss = get_model("gaussian_peak")
        spec = register_model(ModelSpec(
            "gaussian_peak_no_grad", 3, "peaked", gauss.eval_fn,
            guess_fn=gauss.guess_fn, bounds=gauss.bounds))
        assert spec.grad_fn is None and get_model("gaussian_peak_no_grad") is spec
        x = np.linspace(-1.0, 60.0, 25)
        for p in ([100.0, 15.0, 8.0], [2.5, 0.2, 1.5]):
            assert np.array_equal(gradient(spec, p, x),
                                  complex_step_partials(gauss, np.array(p), x))
            assert gradient(spec, p, x) == pytest.approx(gradient(gauss, p, x), rel=1e-12)


class TestCustomSpec:
    def test_user_extension(self):
        spec = ModelSpec(
            name="halved_line", n_params=1, family_class="polynomial",
            eval_fn=lambda p, x: 0.5 * p[0] * x,
            grad_fn=lambda p, x: np.stack([0.5 * np.asarray(x, dtype=float)]),
            guess_fn=lambda xs, ys: np.array([1.0]),
        )
        assert evaluate(spec, [4.0], 3.0) == pytest.approx(6.0)
        assert spec.bounds == ((-np.inf, np.inf),)

    def test_bounds_must_match_the_parameters(self):
        with pytest.raises(ValueError, match="line2: bounds/params length mismatch"):
            ModelSpec(name="line2", n_params=2, family_class="polynomial",
                      eval_fn=lambda p, x: p[0] + p[1] * x,
                      grad_fn=lambda p, x: np.stack([np.ones_like(x), x]),
                      bounds=((0.0, 1.0),))

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown model 'poly9'"):
            get_model("poly9")
