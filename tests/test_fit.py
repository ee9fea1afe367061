import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemine.fit as fit_module
from curvemine.dataset import Dataset
from curvemine.fit import (
    STOP_REASONS,
    FitResult,
    RankedEntry,
    RankedFits,
    _basis,
    _distinct_x,
    _levenberg_marquardt,
    _residuals,
    _solve,
    _start_points,
    fit_least_squares,
    multi_start,
    r_squared,
    rank_all,
)
from curvemine.models import (
    ModelSpec,
    PlausibilityConfig,
    catalog,
    evaluate,
    get_model,
    initial_guess,
)

import reference_lm
from conftest import make_dataset


def closed_form_poly(d, degree):
    design = np.vander(d.xs, degree + 1, increasing=True)
    sol, *_ = np.linalg.lstsq(design, d.ys, rcond=None)
    return sol


class TestFitLeastSquares:
    def test_exact_line(self, line_dataset):
        r = fit_least_squares(get_model("poly1"), line_dataset, [0.0, 0.0])
        assert r.params == pytest.approx([1.0, 2.0], abs=1e-10)
        assert r.rss == pytest.approx(0.0, abs=1e-20)
        assert r.r2 == pytest.approx(1.0)
        assert r.converged

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(0)
        d = make_dataset(rng.uniform(0, 10, 40),
                         2 + 0.7 * rng.uniform(0, 10, 40))
        d = make_dataset(rng.uniform(0, 10, 40), rng.uniform(0, 10, 40))
        r = fit_least_squares(get_model("poly1"), d,
                              initial_guess(get_model("poly1"), d))
        expected = closed_form_poly(d, 1)
        assert np.allclose(r.params, expected, rtol=1e-8)

    def test_gaussian_ground_truth_recovery(self):
        rng = np.random.default_rng(17)
        xs = np.linspace(0, 60, 200)
        truth = (100.0, 14.5, 3.0)
        ys = truth[0] * np.exp(-((xs - truth[1]) ** 2) / (2 * truth[2] ** 2))
        ys = np.clip(ys + rng.normal(0, 1.0, xs.size), 0, None)
        d = make_dataset(xs, ys)
        spec = get_model("gaussian_peak")
        r = fit_least_squares(spec, d, initial_guess(spec, d))
        for got, want in zip(r.params, truth):
            assert abs(got - want) / want < 0.05

    def test_rss_never_exceeds_start(self, gaussian_dataset):
        spec = get_model("gaussian_peak")
        start = initial_guess(spec, gaussian_dataset)
        pred = np.asarray(
            [float(np.asarray(spec.eval_fn(start, x))) for x in gaussian_dataset.xs])
        start_rss = float(np.sum((gaussian_dataset.ys - pred) ** 2))
        r = fit_least_squares(spec, gaussian_dataset, start)
        assert r.rss <= start_rss

    def test_weights_honored(self):
        # heavy weight on one outlier pulls the constant fit toward it
        d_plain = make_dataset([0, 1, 2, 3], [1.0, 1.0, 1.0, 9.0])
        r_plain = fit_least_squares(get_model("poly0"), d_plain, [0.0])
        d_heavy = Dataset.from_points([0, 1, 2, 3], [1.0, 1.0, 1.0, 9.0], study="s",
                                      weight=[1.0, 1.0, 1.0, 100.0])
        r_heavy = fit_least_squares(get_model("poly0"), d_heavy, [0.0])
        assert r_heavy.params[0] > r_plain.params[0]

    def test_underdetermined_error(self):
        d = make_dataset([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="underdetermined"):
            fit_least_squares(get_model("poly2"), d, [0.0, 0.0, 0.0])

    def test_identical_x_singular(self):
        d = make_dataset([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="singular"):
            fit_least_squares(get_model("poly1"), d, [0.0, 0.0])

    def test_scale_equivariance_of_r2(self):
        rng = np.random.default_rng(23)
        d = make_dataset(rng.uniform(0, 10, 50), rng.uniform(1, 9, 50))
        for name in ("poly1", "poly2", "exp_decay_offset"):
            spec = get_model(name)
            r_base = fit_least_squares(spec, d, initial_guess(spec, d))
            scaled = make_dataset(d.xs, 3.0 * d.ys)
            r_scaled = fit_least_squares(spec, scaled,
                                         initial_guess(spec, scaled))
            assert r_scaled.r2 == pytest.approx(r_base.r2, abs=1e-8)


class TestRSquared:
    def test_perfect_prediction(self, line_dataset):
        assert r_squared(get_model("poly1"), [1.0, 2.0], line_dataset) == 1.0

    def test_constant_at_mean_is_zero(self):
        d = make_dataset([0, 1, 2], [2.0, 4.0, 6.0])
        assert r_squared(get_model("poly0"), [4.0], d) == pytest.approx(0.0)

    def test_negative_when_worse_than_mean(self):
        d = make_dataset([0, 1, 2], [2.0, 4.0, 6.0])
        assert r_squared(get_model("poly0"), [100.0], d) < 0

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(12)
        d = make_dataset(rng.uniform(0, 10, 30), rng.uniform(0, 10, 30))
        params = [1.0, 0.5, 0.02]
        got = r_squared(get_model("poly2"), params, d)
        preds = [params[0] + params[1] * x + params[2] * x * x for x in d.xs]
        ybar = sum(d.ys) / len(d)
        rss = sum((y - p) ** 2 for y, p in zip(d.ys, preds))
        tss = sum((y - ybar) ** 2 for y in d.ys)
        assert got == pytest.approx(1 - rss / tss, rel=1e-12)

    def test_degenerate_errors(self):
        d = make_dataset([0, 1, 2], [5.0, 5.0, 5.0])
        with pytest.raises(ValueError, match="identical"):
            r_squared(get_model("poly0"), [5.0], d)
        with pytest.raises(ValueError):
            r_squared(get_model("poly0"), [5.0], make_dataset([0.0], [1.0]))


class TestMultiStart:
    def test_single_start_equals_plain_fit(self, gaussian_dataset):
        spec = get_model("gaussian_peak")
        direct = fit_least_squares(spec, gaussian_dataset,
                                   initial_guess(spec, gaussian_dataset))
        via = multi_start(spec, gaussian_dataset, n_starts=1, seed=9)
        assert via.params == direct.params
        assert via.rss == direct.rss

    def test_determinism(self, gaussian_dataset):
        spec = get_model("gaussian_peak")
        a = multi_start(spec, gaussian_dataset, n_starts=8, seed=5)
        b = multi_start(spec, gaussian_dataset, n_starts=8, seed=5)
        assert a == b

    def test_finds_global_basin_of_bimodal_objective(self):
        # two bumps; a single-gaussian fit has a basin per bump
        xs = np.linspace(0, 60, 240)
        ys = (10.0 * np.exp(-((xs - 10.0) ** 2) / (2 * 3.0 ** 2))
              + 5.0 * np.exp(-((xs - 40.0) ** 2) / (2 * 3.0 ** 2)))
        d = make_dataset(xs, ys)
        spec = get_model("gaussian_peak")
        result = multi_start(spec, d, n_starts=20, seed=1)

        # dense grid search oracle over (amplitude, center, width)
        best = (np.inf, None)
        for amp in np.linspace(2, 12, 11):
            for center in np.linspace(0, 60, 121):
                for width in (2.0, 3.0, 4.5):
                    pred = amp * np.exp(-((xs - center) ** 2) / (2 * width ** 2))
                    rss = float(np.sum((ys - pred) ** 2))
                    if rss < best[0]:
                        best = (rss, center)
        assert abs(result.params[1] - best[1]) < 3.0
        assert result.rss <= best[0]

    def test_n_starts_validation(self, gaussian_dataset):
        with pytest.raises(ValueError):
            multi_start(get_model("poly0"), gaussian_dataset, n_starts=0)


class TestRankAll:
    def test_linear_dominates_constant_on_line(self, line_dataset):
        specs = [get_model("poly0"), get_model("poly1")]
        ranked = rank_all(specs, line_dataset,
                          PlausibilityConfig(domain=(0, 2)))
        assert ranked.entries[0].result.spec_name == "poly1"
        assert ranked.entries[0].result.r2 == pytest.approx(1.0)
        assert ranked.gold_standard.spec_name == "poly1"

    def test_tie_break_prefers_fewer_parameters(self):
        # flat data: every polynomial fits exactly as well
        rng = np.random.default_rng(2)
        d = make_dataset(np.arange(20.0), 5.0 + 0.001 * rng.standard_normal(20))
        specs = [get_model("poly2"), get_model("poly1")]
        ranked = rank_all(specs, d, PlausibilityConfig(domain=(0, 19)))
        r2s = [e.result.r2 for e in ranked.entries]
        if abs(r2s[0] - r2s[1]) < 1e-9:
            assert len(ranked.entries[0].result.params) <= \
                len(ranked.entries[1].result.params)

    def test_implausible_best_fit_excluded(self):
        # strongly declining line: poly1 wins on r2 but dips negative
        xs = np.linspace(0, 20, 40)
        ys = np.clip(10.0 - xs + 0.01 * np.sin(xs), 0, None)
        d = make_dataset(xs, ys)
        cfg = PlausibilityConfig(domain=(0, 20), require_nonnegative=True)
        ranked = rank_all([get_model("poly1"), get_model("exp_decay")], d, cfg)
        by_name = {e.result.spec_name: e for e in ranked.entries}
        assert not by_name["poly1"].plausible
        assert ranked.gold_standard.spec_name == "exp_decay"

    def test_all_entries_present(self, gaussian_dataset):
        specs = [get_model(n) for n in ("poly0", "poly1", "gaussian_peak")]
        ranked = rank_all(specs, gaussian_dataset,
                          PlausibilityConfig(domain=(0, 60)))
        assert {e.result.spec_name for e in ranked.entries} == \
            {"poly0", "poly1", "gaussian_peak"}

    def test_no_gold_standard_outcome(self):
        xs = np.linspace(0, 20, 30)
        d = make_dataset(xs, np.clip(10.0 - xs, 0, None) + 0.001 * xs)
        cfg = PlausibilityConfig(domain=(-1000, 1000), require_nonnegative=True)
        ranked = rank_all([get_model("poly1")], d, cfg)
        assert ranked.gold_standard is None
        assert len(ranked.entries) == 1

    def test_deterministic_ordering(self, gaussian_dataset):
        specs = [get_model(n) for n in ("poly1", "poly2", "gaussian_peak")]
        cfg = PlausibilityConfig(domain=(0, 60))
        a = rank_all(specs, gaussian_dataset, cfg, seed=3)
        b = rank_all(specs, gaussian_dataset, cfg, seed=3)
        assert a.to_json() == b.to_json()

    def test_leaderboard_text(self, line_dataset):
        ranked = rank_all([get_model("poly1")], line_dataset,
                          PlausibilityConfig(domain=(0, 2)))
        text = ranked.leaderboard()
        assert "poly1" in text
        assert "plausible" in text


def paper_scale_dataset(seed, n=330):
    """Peaked counts with lognormal noise, 8% of ages pre-birth, 8 studies."""
    rng = np.random.default_rng(seed)
    n_pre = round(0.08 * n)
    xs = np.concatenate([rng.uniform(-0.75, 0.0, n_pre),
                         rng.uniform(0.0, 51.0, n - n_pre)])
    ys = 1e5 * np.exp(-((xs - 15.0) ** 2) / (2 * 8.0 ** 2))
    ys *= np.exp(rng.normal(0.0, 0.3, n))
    studies = rng.integers(0, 8, n)
    return Dataset.from_points(xs, ys, study=[f"study{s}" for s in studies],
                               label=f"paper{seed}")


def demo_03_dataset():
    """The dataset of demos/03_rank_model_catalog.py."""
    rng = np.random.default_rng(42)
    ages = rng.uniform(0, 55, 250)
    truth = 300.0 * np.exp(-((ages - 16.0) ** 2) / (2 * 8.0 ** 2))
    values = np.clip(truth * (1 + rng.normal(0, 0.08, ages.size)), 0, None)
    return make_dataset(ages, values, study_id="demo")


def grid_dataset(seed, n=5000):
    """rank_5k-shaped: n points on 3 pre-birth and 103 post-birth ages with
    lognormal noise, 8 studies, a third of the rows at weight 2."""
    rng = np.random.default_rng(seed)
    n_pre = round(0.08 * n)
    xs = rng.permutation(np.concatenate([
        rng.choice([-0.75, -0.5, -0.25], n_pre),
        rng.choice(np.linspace(0.0, 51.0, 103), n - n_pre)]))
    ys = 1e5 * np.exp(-((xs - 15.0) ** 2) / (2 * 8.0 ** 2))
    ys *= np.exp(rng.normal(0.0, 0.3, n))
    weights = np.ones(n)
    weights[rng.permutation(n)[:n // 3]] = 2.0
    studies = rng.integers(0, 8, n)
    return Dataset.from_points(xs, ys, weight=weights,
                               study=[f"study{s}" for s in studies], label=f"grid{seed}")


def weighted_dataset(xs, ys, weights):
    return Dataset.from_points(xs, ys, weight=weights, study="s")


def acceptance_datasets():
    """The datasets criteria 4 and 8 rank, with their plausibility settings."""
    rng = np.random.default_rng(11)
    xs = rng.uniform(0, 60, 300)
    clean = 100.0 * np.exp(-((xs - 14.5) ** 2) / (2 * 9.0 * 9.0))
    c4 = make_dataset(xs, np.clip(clean * (1.0 + rng.normal(0, 0.05, 300)), 0, None))
    rng = np.random.default_rng(5)
    xs = rng.uniform(0, 60, 60)
    c8 = make_dataset(xs, np.clip(50 * np.exp(-((xs - 15) ** 2) / 60.0)
                                  + rng.normal(0, 1, 60), 0, None))
    cfg = PlausibilityConfig(domain=(0, 60), require_nonnegative=True)
    return [(c4, cfg, 11), (c8, cfg, 7)]


class TestBatchedKernel:
    def test_batch_member_equals_single_start_fit(self):
        d = paper_scale_dataset(3)
        for spec in catalog():
            starts = _start_points(spec, d, 5, seed=4)
            params, rss, iterations, stop = _levenberg_marquardt(spec, d, starts)
            ok = stop != STOP_REASONS.index("start_nonfinite")
            for i, start in enumerate(starts):
                if not ok[i]:
                    with pytest.raises(ValueError, match="non-finite"):
                        fit_least_squares(spec, d, start)
                    continue
                alone = fit_least_squares(spec, d, start)
                assert alone.params == tuple(params[i]), spec.name
                assert (alone.rss, alone.iterations, alone.stop_reason) == \
                    (rss[i], iterations[i], STOP_REASONS[stop[i]]), spec.name
            if ok.any():
                best = multi_start(spec, d, n_starts=5, seed=4)
                assert best.params in {tuple(params[i]) for i in np.flatnonzero(ok)}

    def test_degenerate_start_leaves_other_starts_unchanged(self):
        # amplitude 0 zeroes two Jacobian columns (singular J^T J); a NaN
        # start never evaluates; neither may disturb their neighbours
        d = paper_scale_dataset(5)
        spec = get_model("gaussian_peak")
        good = _start_points(spec, d, 3, seed=1)
        batch = np.vstack([good[:1], [[0.0, 20.0, 5.0]], good[1:2],
                           [[np.nan, 1.0, 1.0]], good[2:]])
        params, rss, iterations, stop = _levenberg_marquardt(spec, d, batch)
        assert [STOP_REASONS[c] == "start_nonfinite" for c in stop] == \
            [False, False, False, True, False]
        for i, start in zip((0, 2, 4), good):
            alone = fit_least_squares(spec, d, start)
            assert alone.params == tuple(params[i])
            assert (alone.rss, alone.iterations) == (rss[i], iterations[i])

    def test_solve_falls_back_per_slice_on_a_singular_matrix(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3, 3))
        a = a @ a.transpose(0, 2, 1) + 3 * np.eye(3)
        a[1] = 0.0
        b = rng.standard_normal((4, 3))
        x = _solve(a, b)
        assert np.isnan(x[1]).all()
        for i in (0, 2, 3):
            assert np.array_equal(x[i], _solve(a[i:i + 1], b[i:i + 1])[0])
            assert np.allclose(a[i] @ x[i], b[i])

    def test_start_failures_and_iteration_cap(self, monkeypatch):
        d = paper_scale_dataset(6)
        spec = get_model("double_exp_decay")
        starts = _start_points(spec, d, 5, seed=2)
        monkeypatch.setattr(fit_module, "_MAX_ITER", 3)
        params, rss, iterations, stop = _levenberg_marquardt(spec, d, starts)
        for i in np.flatnonzero(stop != STOP_REASONS.index("start_nonfinite")):
            alone = fit_least_squares(spec, d, starts[i])
            assert alone.iterations == iterations[i] <= 3
            assert alone.params == tuple(params[i])
        monkeypatch.setattr(fit_module, "_MAX_ITER", 0)
        r = fit_least_squares(spec, d, starts[0])
        assert (r.iterations, r.converged) == (0, False)


class TestAgainstPerStartReference:
    """The batched kernel against the pre-batch per-start loop."""

    @pytest.mark.parametrize("case", ["criterion4", "criterion8", "demo03",
                                      "paper330", "grid5k"])
    def test_rank_matches_reference(self, case, monkeypatch):
        datasets = dict(zip(("criterion4", "criterion8"), acceptance_datasets()))
        datasets["demo03"] = (demo_03_dataset(), PlausibilityConfig(
            domain=(0.0, 55.0), require_nonnegative=True), 42)
        datasets["paper330"] = (paper_scale_dataset(8), PlausibilityConfig(
            domain=(-1.0, 55.0), require_nonnegative=True), 9)
        datasets["grid5k"] = (grid_dataset(12), PlausibilityConfig(
            domain=(-1.0, 55.0), require_nonnegative=True), 13)
        d, cfg, seed = datasets[case]
        got = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)
        monkeypatch.setattr(fit_module, "multi_start", reference_lm.multi_start)
        want = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)

        assert got.gold_standard.spec_name == want.gold_standard.spec_name
        # Families with linear parameters are solved by variable projection,
        # which the reference does not do: they must fit no worse, and
        # converge wherever the reference does. The rest keep the reference's
        # arithmetic, order, reasons and convergence.
        linear = {s.name for s in catalog() if s.linear}
        ref = {e.result.spec_name: e for e in want.entries}
        for g in got.entries:
            w = ref[g.result.spec_name]
            if g.result.spec_name in linear:
                assert g.result.rss <= w.result.rss * (1 + 1e-9), g.result.spec_name
                assert g.result.converged or not w.result.converged, g.result.spec_name
        got_rest = [e for e in got.entries if e.result.spec_name not in linear]
        want_rest = [e for e in want.entries if e.result.spec_name not in linear]
        if case == "grid5k":
            # Fitting on distinct ages rounds differently from the per-point
            # reference, so entries whose reference r^2 agree within the r^2
            # tolerance below may swap: exp_quadratic, gaussian_peak
            # reparametrized, stops elsewhere in its flat valley (r^2
            # unweighted moves 1e-10, the weighted RSS 3e-16).
            assert [ref[e.result.spec_name].result.r2 for e in got_rest] == \
                pytest.approx([e.result.r2 for e in want_rest],
                              rel=1e-9, abs=1e-12, nan_ok=True)
            r2_abs = 1e-12
        else:
            assert [e.result.spec_name for e in got_rest] == \
                [e.result.spec_name for e in want_rest]
            r2_abs = 0
        for g in got_rest:
            w = ref[g.result.spec_name]
            assert g.result.converged == w.result.converged, g.result.spec_name
            assert g.reason == w.reason
            for attr, abs_tol in (("r2", r2_abs), ("rss", 0)):
                a, b = getattr(g.result, attr), getattr(w.result, attr)
                if np.isfinite(b):
                    assert a == pytest.approx(b, rel=1e-9, abs=abs_tol), \
                        g.result.spec_name
                else:
                    assert not np.isfinite(a)


@st.composite
def grid_datasets(draw):
    """5-12 distinct integer ages on both sides of a Gaussian peak at 20,
    1-8 rows each with noise factors in [0.8, 1.25], weights in [0.1, 10].
    The fit then has an interior optimum: with the peak's far side missing or
    weighted near 0, the width runs off to infinity and both fitters stop at
    different points along that valley."""
    ages = draw(st.lists(st.integers(-1, 60), min_size=5, max_size=12,
                         unique=True).filter(lambda a: min(a) < 10 and max(a) > 30))
    rows = [(age, draw(st.floats(0.8, 1.25)), draw(st.floats(0.1, 10.0)))
            for age in ages for _ in range(draw(st.integers(1, 8)))]
    order = draw(st.permutations(range(len(rows))))
    xs, noise, weights = np.array([rows[i] for i in order], dtype=float).T
    ys = 100.0 * np.exp(-((xs - 20.0) ** 2) / (2 * 12.0 ** 2)) * noise
    return weighted_dataset(xs, ys, weights)


class TestDistinctX:
    """The kernel fits on distinct x: weights summed, y averaged per x."""

    @staticmethod
    def _bits(a):
        return np.asarray(a, dtype=float).view(np.int64).tolist()

    def test_no_repeated_x_returns_the_columns_bit_for_bit(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1.0, 60.0, 200)
        ys = rng.uniform(0.0, 1e5, 200)
        ys[[3, 50]] = -0.0, 0.0
        d = weighted_dataset(xs, ys, rng.uniform(0.1, 10.0, 200))
        gx, wsum, ybar, pure = _distinct_x(d)
        for got, want in ((gx, d.xs), (wsum, d.weights), (ybar, d.ys)):
            assert self._bits(got) == self._bits(want)
        assert self._bits([pure]) == self._bits([0.0])

    def test_signed_zero_ages_form_two_groups(self):
        d = weighted_dataset([0.0, -0.0, 1.0, 0.0, -0.0],
                             [1.0, 2.0, 3.0, 4.0, 6.0], [1.0] * 5)
        gx, wsum, ybar, pure = _distinct_x(d)
        assert self._bits(gx) == self._bits([0.0, -0.0, 1.0])
        assert wsum.tolist() == [2.0, 2.0, 1.0]
        assert ybar.tolist() == [2.5, 4.0, 3.0]
        assert pure == 2 * 1.5 ** 2 + 2 * 2.0 ** 2

    def test_group_sums_match_a_loop(self):
        rng = np.random.default_rng(9)
        xs = rng.choice(np.linspace(-0.75, 51.0, 30), 600)
        ys = rng.uniform(0.0, 1e4, 600)
        weights = rng.choice([0.3, 1.0, 2.0, 7.5], 600) * rng.uniform(0.5, 1.5, 600)
        gx, wsum, ybar, pure = _distinct_x(weighted_dataset(xs, ys, weights))
        want_x = list(dict.fromkeys(xs.tolist()))
        assert gx.tolist() == want_x
        for x, w_g, y_g in zip(want_x, wsum, ybar):
            rows = [(w, y) for xi, y, w in zip(xs, ys, weights) if xi == x]
            w_want = math.fsum(w for w, _ in rows)
            assert w_g == pytest.approx(w_want, rel=1e-15, abs=0)
            assert y_g == pytest.approx(math.fsum(w * y for w, y in rows) / w_want,
                                        rel=1e-15, abs=0)
        assert pure == pytest.approx(
            math.fsum(w * (y - ybar[want_x.index(x)]) ** 2
                      for x, y, w in zip(xs, ys, weights)), rel=1e-12)

    @pytest.mark.parametrize("name", ["gaussian_peak", "poly2", "exp_decay",
                                      "logistic", "lorentzian_peak",
                                      "gaussian_peak_offset"])
    def test_kernel_rss_is_the_full_data_rss(self, name):
        d = grid_dataset(3, n=2000)
        spec = get_model(name)
        params, rss, _, stop = _levenberg_marquardt(
            spec, d, _start_points(spec, d, 5, seed=1))
        ok = stop != STOP_REASONS.index("start_nonfinite")
        assert ok.any()
        for p, r in zip(params[ok], rss[ok]):
            pred = evaluate(spec, p, d.xs)
            full = math.fsum(w * (y - f) ** 2
                             for w, y, f in zip(d.weights, d.ys, pred))
            assert r == pytest.approx(full, rel=1e-12, abs=0), name

    @given(grid_datasets(), st.sampled_from(["gaussian_peak", "poly2"]),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_converged_starts_match_the_per_point_reference(self, d, name, seed):
        spec = get_model(name)
        starts = _start_points(spec, d, 3, seed=seed)
        params, rss, _, stop = _levenberg_marquardt(spec, d, starts)
        # an exact fit leaves an RSS of rounding noise, ~eps^2 sum w y^2
        floor = 1e-20 * float(np.sum(d.weights * d.ys ** 2))
        converged = [STOP_REASONS.index(r) for r in ("rss_rtol", "step_tol",
                                                     "no_descent")]
        for i in np.flatnonzero(np.isin(stop, converged)):
            want = reference_lm.fit_least_squares(spec, d, starts[i])
            assert rss[i] == pytest.approx(want.rss, rel=1e-9, abs=floor)


@st.composite
def projection_cases(draw):
    """A family with linear parameters, values for its other parameters, and
    20-200 weighted points on ages in [-0.75, 51]."""
    name = draw(st.sampled_from(["double_exp_decay", "exp_decay_offset",
                                 "exp_saturating", "poly3", "log_law"]))
    spec = get_model(name)
    rate = draw(st.floats(0.01, 0.5))
    theta = {"double_exp_decay": [rate + draw(st.floats(0.05, 1.0)), rate],
             "exp_decay_offset": [rate], "exp_saturating": [rate]}.get(name, [])
    n = draw(st.integers(20, 200))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-0.75, 51.0, n)
    ys = 1e4 * np.exp(-((xs - 15.0) ** 2) / 128.0) * rng.lognormal(0.0, 0.3, n)
    d = weighted_dataset(xs, ys, rng.uniform(0.1, 10.0, n))
    params = np.zeros((1, spec.n_params))
    free = [j for j in range(spec.n_params) if j not in spec.linear]
    params[0, free] = theta
    return spec, d, params


class TestVariableProjection:
    """Families that declare ``linear`` parameters solve them exactly."""

    @given(projection_cases())
    @settings(max_examples=80, deadline=None)
    def test_solved_coefficients_leave_the_residual_orthogonal(self, case):
        spec, d, params = case
        xs, wsum, ybar, _ = _distinct_x(d)
        sw = np.sqrt(wsum)
        with np.errstate(all="ignore"):
            res = _residuals(spec, params, xs, ybar, sw)
            phi = _basis(spec, params, xs, sw)[0]
        assert np.isfinite(params).all() and np.isfinite(res).all()
        # phi and res carry sqrt(w) each, so phi @ res is Φᵀ W r
        scale = np.sqrt((phi * phi).sum(axis=1)) * np.linalg.norm(sw * ybar)
        assert np.all(np.abs(phi @ res[0]) <= 1e-9 * scale), spec.name
        # and the residual is that of the model at the solved parameters
        want = sw * (ybar - evaluate(spec, params[0], xs))
        assert res[0] == pytest.approx(want, rel=1e-9, abs=1e-9 * np.abs(want).max())

    def test_linear_family_is_one_solve(self):
        d = paper_scale_dataset(2)
        spec = get_model("poly3")
        starts = _start_points(spec, d, 5, seed=3)
        params, rss, iterations, stop = _levenberg_marquardt(spec, d, starts)
        assert iterations.tolist() == [1] * 5
        assert {STOP_REASONS[c] for c in stop} == {"step_tol"}
        # every start's own coefficients are overwritten by the one solution
        assert (params == params[0]).all()
        assert params[0] == pytest.approx(closed_form_poly(d, 3), rel=1e-8)

    def test_step_tol_measures_the_nonlinear_step_only(self, monkeypatch):
        # b moves by less than 10 per step while the solved amplitude (~1e4)
        # moves by thousands, so only a theta-only norm stops at once
        d = paper_scale_dataset(4)
        spec = get_model("exp_saturating")
        starts = _start_points(spec, d, 3, seed=1)
        monkeypatch.setattr(fit_module, "_RTOL", 0.0)
        monkeypatch.setattr(fit_module, "_XTOL", 10.0)
        _, _, iterations, stop = _levenberg_marquardt(spec, d, starts)
        assert iterations.tolist() == [1, 1, 1]
        assert {STOP_REASONS[c] for c in stop} == {"step_tol"}

    def test_guess_entries_of_linear_parameters_are_ignored(self):
        d = paper_scale_dataset(4)
        spec = get_model("double_exp_decay")
        starts = _start_points(spec, d, 3, seed=1)
        moved = starts.copy()
        moved[:, list(spec.linear)] = [[1e9, -5.0], [0.0, 0.0], [np.nan, 3.0]]
        a = _levenberg_marquardt(spec, d, starts)
        b = _levenberg_marquardt(spec, d, moved)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def _counting_model(name, grad_scale=1.0, nan_after=None):
    """y = a exp(-b x); ``grad_scale`` inflates the Jacobian, and
    ``nan_after`` calls of eval_fn make every later evaluation NaN."""
    calls = []

    def f(p, x):
        calls.append(1)
        y = p[0] * np.exp(-p[1] * x)
        return y * np.nan if nan_after is not None and len(calls) > nan_after else y

    def g(p, x):
        e = np.exp(-p[1] * x)
        return grad_scale * np.stack([e, -p[0] * x * e])

    return ModelSpec(name=name, n_params=2, family_class="exponential",
                     eval_fn=f, grad_fn=g,
                     guess_fn=lambda xs, ys: np.array([1.0, 0.1]))


class TestStopReasons:
    """Every stop code the kernel returns is reachable and named."""

    @pytest.mark.parametrize("reason", STOP_REASONS)
    def test_each_reason_is_reached(self, reason, gaussian_dataset, monkeypatch):
        d = gaussian_dataset
        spec = get_model("gaussian_peak")
        start = [[90.0, 15.0, 4.0]]
        if reason == "step_tol":  # no RSS drop is small enough; any step is
            monkeypatch.setattr(fit_module, "_RTOL", 0.0)
            monkeypatch.setattr(fit_module, "_XTOL", np.inf)
        elif reason == "no_descent":  # every trial point evaluates NaN
            spec = _counting_model("nan_trials", nan_after=1)
        elif reason == "max_iterations":
            monkeypatch.setattr(fit_module, "_MAX_ITER", 1)
        elif reason == "nonfinite_jacobian":  # JᵀJ overflows
            spec = _counting_model("huge_jacobian", grad_scale=1e200)
        elif reason == "start_nonfinite":
            start = [[np.nan, 15.0, 4.0]]
        if spec.n_params == 2:
            start = [[50.0, 0.05]]
        params, rss, iterations, stop = _levenberg_marquardt(
            spec, d, np.array(start))
        assert STOP_REASONS[stop[0]] == reason
        if reason == "no_descent":  # the model counts its calls: start afresh
            spec = _counting_model("nan_trials", nan_after=1)
        if reason == "start_nonfinite":
            with pytest.raises(ValueError, match="non-finite"):
                fit_least_squares(spec, d, start[0])
        else:
            r = fit_least_squares(spec, d, start[0])
            assert r.stop_reason == reason
            assert r.converged == (reason in ("rss_rtol", "step_tol", "no_descent"))

    def test_converged_is_the_stop_code(self):
        # a family whose every start fails has no stop code and is not converged
        cfg = PlausibilityConfig(domain=(-1.0, 55.0))
        ranked = rank_all(catalog(), paper_scale_dataset(7), cfg, seed=3)
        assert len(ranked.entries) == len(catalog())
        for e in ranked.entries:
            r = e.result
            assert r.converged == (r.stop_reason in
                                   {"rss_rtol", "step_tol", "no_descent"}), r.spec_name

    def test_winner_reason_reaches_rank_json_and_leaderboard(self, monkeypatch):
        d = paper_scale_dataset(6)
        cfg = PlausibilityConfig(domain=(-1.0, 55.0), require_nonnegative=True)
        monkeypatch.setattr(fit_module, "_MAX_ITER", 2)
        capped = rank_all(catalog(), d, cfg, seed=2)
        entries = capped.as_dict()["entries"]
        assert {e["stop_reason"] for e in entries} <= set(STOP_REASONS) | {None}
        assert any(e["stop_reason"] == "max_iterations" for e in entries)
        failed = [e for e in entries if e["reason"].startswith("fit failed")]
        assert failed and all(e["stop_reason"] is None for e in failed)
        assert "excluded: not converged (max_iterations)" in capped.leaderboard()


class TestGroupingOncePerRank:
    def test_rank_groups_the_dataset_once(self, monkeypatch):
        calls = []

        def counting(d):
            calls.append(d)
            return _distinct_x(d)

        monkeypatch.setattr(fit_module, "_distinct_x", counting)
        d = grid_dataset(5, n=600)
        cfg = PlausibilityConfig(domain=(-1.0, 55.0))
        rank_all(catalog(), d, cfg)
        assert calls == [d]
        multi_start(get_model("gaussian_peak"), d)  # the same dataset again
        assert len(calls) == 1
        rank_all(catalog()[:3], grid_dataset(5, n=600), cfg)
        assert len(calls) == 2


class TestLeaderboardStatus:
    def _board(self, converged, r2, stop_reason=None):
        result = FitResult(spec_name="m", params=(1.0,), rss=1.0, r2=r2,
                           converged=converged, iterations=3,
                           stop_reason=stop_reason)
        return RankedFits(entries=(RankedEntry(result, True, "ok"),))

    def test_status_matches_sort_key(self):
        assert self._board(True, 0.9).leaderboard().endswith("plausible")
        assert self._board(False, 0.9).leaderboard().endswith(
            "excluded: not converged")
        assert self._board(True, float("nan")).leaderboard().endswith(
            "excluded: r2 not finite")
        assert self._board(False, 0.9).gold_standard is None
        assert self._board(False, 0.9, "max_iterations").leaderboard().endswith(
            "excluded: not converged (max_iterations)")
