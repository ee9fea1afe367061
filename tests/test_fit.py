import numpy as np
import pytest

import curvemine.fit as fit_module
from curvemine.dataset import DataPoint, Dataset
from curvemine.fit import (
    FitOptions,
    FitResult,
    RankedEntry,
    RankedFits,
    _levenberg_marquardt,
    _solve,
    _start_points,
    fit_least_squares,
    multi_start,
    r_squared,
    rank_all,
)
from curvemine.models import PlausibilityConfig, catalog, get_model, initial_guess

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

    def test_residual_count(self, gaussian_dataset):
        spec = get_model("poly2")
        r = fit_least_squares(spec, gaussian_dataset,
                              initial_guess(spec, gaussian_dataset))
        assert len(r.residuals) == len(gaussian_dataset)

    def test_weights_honored(self):
        # heavy weight on one outlier pulls the constant fit toward it
        d_plain = make_dataset([0, 1, 2, 3], [1.0, 1.0, 1.0, 9.0])
        r_plain = fit_least_squares(get_model("poly0"), d_plain, [0.0])
        from curvemine.dataset import DataPoint, Dataset
        pts = [DataPoint(x=float(i), y=y, study_id="s",
                         weight=(100.0 if y == 9.0 else 1.0))
               for i, y in enumerate([1.0, 1.0, 1.0, 9.0])]
        r_heavy = fit_least_squares(get_model("poly0"),
                                    Dataset.from_points(pts), [0.0])
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
    return Dataset.from_points(
        [DataPoint(x=float(x), y=float(y), study_id=f"study{s}")
         for x, y, s in zip(xs, ys, studies)], label=f"paper{seed}")


def demo_03_dataset():
    """The dataset of demos/03_rank_model_catalog.py."""
    rng = np.random.default_rng(42)
    ages = rng.uniform(0, 55, 250)
    truth = 300.0 * np.exp(-((ages - 16.0) ** 2) / (2 * 8.0 ** 2))
    values = np.clip(truth * (1 + rng.normal(0, 0.08, ages.size)), 0, None)
    return make_dataset(ages, values, study_id="demo")


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
        options = FitOptions()
        for spec in catalog():
            starts = _start_points(spec, d, 5, seed=4)
            params, rss, converged, iterations, ok = _levenberg_marquardt(
                spec, d, starts, options)
            for i, start in enumerate(starts):
                if not ok[i]:
                    with pytest.raises(ValueError, match="non-finite"):
                        fit_least_squares(spec, d, start, options)
                    continue
                alone = fit_least_squares(spec, d, start, options)
                assert alone.params == tuple(params[i]), spec.name
                assert (alone.rss, alone.converged, alone.iterations) == \
                    (rss[i], converged[i], iterations[i]), spec.name
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
        params, rss, converged, iterations, ok = _levenberg_marquardt(
            spec, d, batch, FitOptions())
        assert ok.tolist() == [True, True, True, False, True]
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

    def test_start_failures_and_iteration_cap(self):
        d = paper_scale_dataset(6)
        spec = get_model("double_exp_decay")
        starts = _start_points(spec, d, 5, seed=2)
        capped = FitOptions(max_iterations=3)
        params, rss, converged, iterations, ok = _levenberg_marquardt(
            spec, d, starts, capped)
        for i in np.flatnonzero(ok):
            alone = fit_least_squares(spec, d, starts[i], capped)
            assert alone.iterations == iterations[i] <= 3
            assert alone.params == tuple(params[i])
        none = FitOptions(max_iterations=0)
        r = fit_least_squares(spec, d, starts[0], none)
        assert (r.iterations, r.converged) == (0, False)


class TestAgainstPerStartReference:
    """The batched kernel against the pre-batch per-start loop."""

    @pytest.mark.parametrize("case", ["criterion4", "criterion8", "demo03",
                                      "paper330"])
    def test_rank_matches_reference(self, case, monkeypatch):
        datasets = dict(zip(("criterion4", "criterion8"), acceptance_datasets()))
        datasets["demo03"] = (demo_03_dataset(), PlausibilityConfig(
            domain=(0.0, 55.0), require_nonnegative=True), 42)
        datasets["paper330"] = (paper_scale_dataset(8), PlausibilityConfig(
            domain=(-1.0, 55.0), require_nonnegative=True), 9)
        d, cfg, seed = datasets[case]
        got = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)
        monkeypatch.setattr(fit_module, "multi_start", reference_lm.multi_start)
        want = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)

        assert got.gold_standard.spec_name == want.gold_standard.spec_name
        assert [e.result.spec_name for e in got.entries] == \
            [e.result.spec_name for e in want.entries]
        for g, w in zip(got.entries, want.entries):
            assert g.result.converged == w.result.converged, g.result.spec_name
            assert g.reason == w.reason
            for attr in ("r2", "rss"):
                a, b = getattr(g.result, attr), getattr(w.result, attr)
                if np.isfinite(b):
                    assert a == pytest.approx(b, rel=1e-9, abs=0), g.result.spec_name
                else:
                    assert not np.isfinite(a)


class TestLeaderboardStatus:
    def _board(self, converged, r2):
        result = FitResult(spec_name="m", params=(1.0,), rss=1.0, r2=r2,
                           converged=converged, iterations=3, residuals=())
        return RankedFits(entries=(RankedEntry(result, True, "ok"),))

    def test_status_matches_sort_key(self):
        assert self._board(True, 0.9).leaderboard().endswith("plausible")
        assert self._board(False, 0.9).leaderboard().endswith(
            "excluded: not converged")
        assert self._board(True, float("nan")).leaderboard().endswith(
            "excluded: r2 not finite")
        assert self._board(False, 0.9).gold_standard is None
