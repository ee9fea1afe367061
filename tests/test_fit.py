import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import curvemine.fit as fit_module
from curvemine.dataset import Dataset
from curvemine.fit import (
    STOP_REASONS,
    FitResult,
    RankedEntry,
    RankedFits,
    _basis,
    _distinct_x,
    _lockstep,
    _residuals,
    _row_dot,
    _ruled_out,
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

    def test_a_fit_reports_an_undefined_r2_as_nan(self):
        d = make_dataset([0, 1, 2], [5.0, 5.0, 5.0])
        assert math.isnan(fit_least_squares(get_model("poly1"), d, [1.0, 1.0]).r2)

    def test_unit_weights_give_the_unweighted_r2_bit_for_bit(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.uniform(-1, 60, 330), rng.uniform(0, 1e5, 330))
        spec, params = get_model("gaussian_peak"), [6e4, 18.0, 9.0]
        pred = evaluate(spec, params, d.xs)
        want = 1.0 - (float(np.sum((d.ys - pred) ** 2))
                      / float(np.sum((d.ys - d.ys.mean()) ** 2)))
        assert r_squared(spec, params, d) == want

    @given(st.integers(0, 2**16), st.integers(3, 60))
    @settings(max_examples=80, deadline=None)
    def test_doubled_weight_equals_a_duplicated_row(self, seed, n):
        rng = np.random.default_rng(seed)
        spec, params = get_model("poly2"), [1e3, 80.0, -1.5]
        xs = rng.uniform(-1.0, 60.0, n)
        ys = np.abs(evaluate(spec, params, xs) + rng.normal(0.0, 100.0, n))
        w = rng.uniform(0.1, 10.0, n)
        i = int(rng.integers(n))
        doubled = w.copy()
        doubled[i] *= 2.0
        duplicated = weighted_dataset(np.append(xs, xs[i]), np.append(ys, ys[i]),
                                      np.append(w, w[i]))
        assert r_squared(spec, params, weighted_dataset(xs, ys, doubled)) == \
            pytest.approx(r_squared(spec, params, duplicated), rel=1e-12)


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
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            multi_start(get_model("poly0"), gaussian_dataset, n_starts=0)
        # rank_all rejects it once, not as one failed entry per family
        with pytest.raises(ValueError, match="^n_starts must be >= 1$"):
            rank_all(catalog(), gaussian_dataset,
                     PlausibilityConfig(domain=(0, 60)), n_starts=0)


class TestRankAll:
    def test_empty_dataset_rejected(self):
        # every fit entry point gives the same reason
        empty = Dataset.from_points([], [])
        with pytest.raises(ValueError, match="^empty dataset$"):
            rank_all(catalog(), empty, PlausibilityConfig(domain=(0, 1)))
        with pytest.raises(ValueError, match="^empty dataset$"):
            multi_start(get_model("poly1"), empty)
        with pytest.raises(ValueError, match="^empty dataset$"):
            fit_least_squares(get_model("poly1"), empty, [0.0, 0.0])

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
            params, rss, iterations, stop = _lockstep([spec], d, [starts])[0]
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
            if ok.any() and not spec.twin:
                best = multi_start(spec, d, n_starts=5, seed=4)
                assert best.params in {tuple(params[i]) for i in np.flatnonzero(ok)}
        for spec in catalog():  # a twin's best is a mapped row of its twin's call
            if spec.twin:
                twin, from_twin, _ = spec.twin
                params, _, _, stop = _lockstep([twin], d, [_start_points(twin, d, 5, seed=4)])[0]
                mapped = {tuple(from_twin(params[i]))
                          for i in np.flatnonzero(stop != STOP_REASONS.index("start_nonfinite"))}
                assert multi_start(spec, d, n_starts=5, seed=4).params in mapped, spec.name

    def test_degenerate_start_leaves_other_starts_unchanged(self):
        # amplitude 0 zeroes two Jacobian columns (singular J^T J); a NaN
        # start never evaluates; neither may disturb their neighbours
        d = paper_scale_dataset(5)
        spec = get_model("gaussian_peak")
        good = _start_points(spec, d, 3, seed=1)
        batch = np.vstack([good[:1], [[0.0, 20.0, 5.0]], good[1:2],
                           [[np.nan, 1.0, 1.0]], good[2:]])
        params, rss, iterations, stop = _lockstep([spec], d, [batch])[0]
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
        params, rss, iterations, stop = _lockstep([spec], d, [starts])[0]
        for i in np.flatnonzero(stop != STOP_REASONS.index("start_nonfinite")):
            alone = fit_least_squares(spec, d, starts[i])
            assert alone.iterations == iterations[i] <= 3
            assert alone.params == tuple(params[i])
        monkeypatch.setattr(fit_module, "_MAX_ITER", 0)
        r = fit_least_squares(spec, d, starts[0])
        assert (r.iterations, r.converged) == (0, False)


ORACLE_CASES = ["criterion4", "criterion8", "demo03", "paper330", "grid5k"]


def oracle_case(case):
    """The dataset, plausibility settings and seed of one ``ORACLE_CASES`` entry."""
    if case in ("criterion4", "criterion8"):
        return acceptance_datasets()[case == "criterion8"]
    cfg = PlausibilityConfig(domain=(-1.0, 55.0), require_nonnegative=True)
    if case == "demo03":
        return demo_03_dataset(), PlausibilityConfig(
            domain=(0.0, 55.0), require_nonnegative=True), 42
    if case == "paper330":
        return paper_scale_dataset(8), cfg, 9
    return grid_dataset(12), cfg, 13


class TestAgainstPerStartReference:
    """The catalog-wide kernel against the pre-batch per-start loop."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_rank_matches_reference(self, case, monkeypatch):
        d, cfg, seed = oracle_case(case)
        got = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)
        ran, reference = [], reference_lm.multi_start

        def counted(spec, *args):
            ran.append(spec.name)
            return reference(spec, *args)

        monkeypatch.setattr(reference_lm, "multi_start", counted)
        monkeypatch.setattr(fit_module, "_fit_catalog", reference_lm.fit_catalog)
        want = rank_all(catalog(), d, cfg, n_starts=5, seed=seed)
        # the reference ran once per family, a family with a twin as that twin
        assert ran == [(s.twin[0] if s.twin else s).name for s in catalog()]

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


PEAKED_CASES = (ORACLE_CASES + [f"paper{s}" for s in range(1, 13)]
                + [f"grid{s}" for s in range(1, 5)])


def peaked_case(case):
    """The dataset and seed of one ``PEAKED_CASES`` entry."""
    if case in ORACLE_CASES:
        d, _, seed = oracle_case(case)
        return d, seed
    kind = case.rstrip("0123456789")
    seed = int(case[len(kind):])
    return {"paper": paper_scale_dataset, "grid": grid_dataset}[kind](seed), seed


class TestEquivalentFamilies:
    """Two families that describe the same curves reach the same best RSS:
    an oracle that needs no outside fitter. On peaked data exp(a + b x +
    c x^2), c < 0, is a Gaussian peak; the two are fitted apart. Everywhere,
    tanh_sigmoid is logistic_offset with L = 2b, k' = 2k and offset a - b,
    and inverse_shift is rational_lin_lin with c' = 1/c: each is its twin's
    one fit, mapped and scored in its own coordinates."""

    @staticmethod
    def _best_rss(case, *names):
        d, seed = peaked_case(case)
        return [multi_start(get_model(name), d, n_starts=5, seed=seed).rss
                for name in names]

    @staticmethod
    def _assert_twin_fit(case, name):
        d, seed = peaked_case(case)
        spec = get_model(name)
        twin, from_twin, _ = spec.twin
        want = multi_start(twin, d, n_starts=5, seed=seed)
        got = multi_start(spec, d, n_starts=5, seed=seed)
        assert got.params == tuple(from_twin(np.array(want.params)))
        assert (got.iterations, got.stop_reason) == (want.iterations, want.stop_reason)
        assert got.rss == np.sum(d.weights * (d.ys - evaluate(spec, got.params, d.xs)) ** 2)
        assert got.rss == pytest.approx(want.rss, rel=1e-9)
        assert got.r2 == pytest.approx(want.r2, rel=0, abs=1e-12)

    @pytest.mark.parametrize("case", PEAKED_CASES)
    def test_exp_quadratic_matches_gaussian_peak(self, case):
        quad, gauss = self._best_rss(case, "exp_quadratic", "gaussian_peak")
        assert quad == pytest.approx(gauss, rel=1e-9)

    @pytest.mark.parametrize("case", PEAKED_CASES)
    def test_tanh_sigmoid_matches_logistic_offset(self, case):
        self._assert_twin_fit(case, "tanh_sigmoid")

    @pytest.mark.parametrize("case", PEAKED_CASES)
    def test_inverse_shift_matches_rational_lin_lin(self, case):
        self._assert_twin_fit(case, "inverse_shift")


class TestTwinFamilies:
    """A family with a twin (``models._reparam``) is fitted as that twin."""

    CFG = PlausibilityConfig(domain=(-1.0, 55.0), require_nonnegative=True)

    def test_each_twin_runs_its_starts_once_per_rank(self, monkeypatch):
        calls = []

        def recording(specs, d, starts):
            calls.append([s.name for s in specs])
            return _lockstep(specs, d, starts)

        monkeypatch.setattr(fit_module, "_lockstep", recording)
        rank_all(catalog(), paper_scale_dataset(3), self.CFG, seed=4)
        # one kernel call, in which each twin's twin (rational_lin_lin,
        # logistic_offset) runs once and the two twins not at all
        assert calls == [[s.name for s in catalog() if not s.twin]]

    def test_each_family_fitted_draws_its_starts_once_per_rank(self, monkeypatch):
        drawn = []

        def recording(spec, *args):
            drawn.append(spec.name)
            return _start_points(spec, *args)

        monkeypatch.setattr(fit_module, "_start_points", recording)
        rank_all(catalog(), paper_scale_dataset(3), self.CFG, seed=4)
        # logistic_offset and rational_lin_lin are drawn once, not once
        # more for tanh_sigmoid and inverse_shift
        assert drawn == [s.name for s in catalog() if not s.twin]

    def test_a_line_is_lost_to_inverse_shift(self):
        # rational_lin_lin fits y = 2 + 3x with c' ~ 0, where inverse_shift's
        # a, b and c diverge: its own r^2 there would contradict the twin's 1
        xs = np.linspace(0.0, 50.0, 40)
        d = make_dataset(xs, 2.0 + 3.0 * xs)
        assert multi_start(get_model("rational_lin_lin"), d).r2 == pytest.approx(1.0)
        why = ("inverse_shift: the best fit is a straight line, which "
               "inverse_shift reaches only as c -> inf")
        with pytest.raises(ValueError) as info:
            multi_start(get_model("inverse_shift"), d)
        assert str(info.value) == why
        entries = {e.result.spec_name: e
                   for e in rank_all(catalog(), d, self.CFG, seed=1).entries}
        assert entries["inverse_shift"].reason == f"fit failed: {why}"
        assert not entries["inverse_shift"].plausible

    def test_a_guess_error_of_the_twin_names_both(self):
        d = make_dataset([1.0, 2.0], [3.0, 5.0])
        entries = {e.result.spec_name: e.reason
                   for e in rank_all(catalog(), d, self.CFG, seed=1).entries}
        assert entries["rational_lin_lin"] == \
            "fit failed: rational_lin_lin: need >= 3 points, got 2"
        assert entries["inverse_shift"] == \
            "fit failed: inverse_shift: fitted as rational_lin_lin: need >= 3 points, got 2"
        with pytest.raises(ValueError, match="^tanh_sigmoid: fitted as logistic_offset: "):
            multi_start(get_model("tanh_sigmoid"), d)

    def test_a_family_with_unhashable_callables_is_ranked(self):
        # families are told apart by identity, so a callable that defines
        # __eq__ and no __hash__ still fits
        class Decay:
            __hash__ = None

            def __call__(self, p, x):
                return p[0] * np.exp(-p[1] * x)

        spec = ModelSpec("decay_object", 2, "exponential", Decay(),
                         guess_fn=lambda xs, ys: np.array([1.0, 0.1]))
        d = paper_scale_dataset(3)
        entry, = rank_all([spec], d, self.CFG, seed=1).entries
        assert entry.result.converged
        assert entry.result.rss == multi_start(spec, d, seed=1).rss

    @pytest.mark.parametrize("name", ["inverse_shift", "tanh_sigmoid"])
    def test_fit_least_squares_iterates_in_own_coordinates(self, name):
        d = acceptance_datasets()[0][0]
        spec = get_model(name)
        r = fit_least_squares(spec, d, initial_guess(spec, d))
        assert r.spec_name == name and r.iterations > 0
        assert np.isfinite(r.params).all() and np.isfinite([r.rss, r.r2]).all()


@pytest.mark.parametrize("case", PEAKED_CASES)
def test_family_without_gradient_fits_as_well(case):
    # gaussian_peak without its grad_fn: the kernel takes complex-step partials
    d, seed = peaked_case(case)
    gauss = get_model("gaussian_peak")
    no_grad = ModelSpec("gaussian_peak_no_grad", 3, "peaked", gauss.eval_fn,
                        guess_fn=gauss.guess_fn, bounds=gauss.bounds)
    got = multi_start(no_grad, d, n_starts=5, seed=seed)
    want = multi_start(gauss, d, n_starts=5, seed=seed)
    assert got.rss == pytest.approx(want.rss, rel=1e-9)


class TestGeneratingParameters:
    """The benchmark's own oracle: data drawn from a Gaussian peak with
    lognormal noise, refitted by that family, reach a weighted RSS no higher
    than the curve that generated them. The RSS at the generating parameters
    is computed here, not by the program."""

    @pytest.mark.parametrize("case", PEAKED_CASES[len(ORACLE_CASES):])
    def test_fit_reaches_the_generating_rss(self, case):
        d, seed = peaked_case(case)
        truth = 1e5 * np.exp(-((d.xs - 15.0) ** 2) / (2 * 8.0 ** 2))
        rss_true = float(np.sum(d.weights * (d.ys - truth) ** 2))
        fit = multi_start(get_model("gaussian_peak"), d, n_starts=5, seed=seed)
        assert fit.rss <= rss_true * (1 + 1e-6)


@functools.cache
def _admitted_catalog_call(case):
    """The families of the catalog that the ``PEAKED_CASES`` entry ``case``
    admits, their starts, and their rows from one ``_lockstep`` call over
    all of them."""
    d, seed = peaked_case(case)
    specs, starts = [], []
    for spec in catalog():
        try:
            s = _start_points(spec, d, 5, seed)
        except (ValueError, np.linalg.LinAlgError):
            continue
        if _ruled_out(spec, np.unique(d.xs).size) is None:
            specs.append(spec)
            starts.append(s)
    return d, specs, starts, _lockstep(specs, d, starts)


class TestLockstep:
    """One catalog-wide kernel call gives each family the rows of its own call.
    Alone, a family's q x q systems are unpadded; in the catalog call they are
    padded to the widest q, so these tests also pin the padding's exactness."""

    @staticmethod
    def _bits(a):
        return a.dtype, a.shape, np.ascontiguousarray(a).tobytes()

    @pytest.mark.parametrize("max_iter", [None, 3])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_family_rows_equal_its_own_call(self, case, max_iter, monkeypatch):
        d, _, seed = oracle_case(case)
        if max_iter is not None:
            monkeypatch.setattr(fit_module, "_MAX_ITER", max_iter)
        specs = catalog()
        starts = [_start_points(s, d, 5, seed) for s in specs]
        together = _lockstep(specs, d, starts)
        for spec, s, rows in zip(specs, starts, together):
            alone = _lockstep([spec], d, [s])[0]
            for got, want in zip(rows, alone):  # params, rss, iterations, stop
                assert self._bits(got) == self._bits(want), spec.name
        if max_iter is not None:  # rows stop at different iterations, some capped
            stopped = {int(i) for _, _, its, _ in together for i in its}
            assert max_iter in stopped and len(stopped) > 2

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.data())
    def test_any_families_in_any_order_get_their_catalog_bits(self, case, data):
        # the per-family row slices and first rows the kernel keeps between
        # compactions must not depend on which families share the call
        d, specs, starts, together = _admitted_catalog_call(case)
        order = data.draw(st.permutations(range(len(specs))))
        picked = order[:data.draw(st.integers(1, len(order)))]
        got = _lockstep([specs[i] for i in picked], d, [starts[i] for i in picked])
        for i, rows in zip(picked, got):
            for g, want in zip(rows, together[i]):  # params, rss, iterations, stop
                assert self._bits(g) == self._bits(want), specs[i].name

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda q: st.tuples(
        st.integers(q, 5),
        arrays(np.float64, (q, 2 * q + 1), elements=st.floats(-1e6, 1e6)),
        arrays(np.float64, (1, q), elements=st.floats(-1e6, 1e6)))),
        st.floats(1e-12, 1e8))
    def test_padded_system_solves_to_its_own_bits(self, case, lam):
        qmax, jac, g = case
        q = g.shape[1]

        def damped(width):  # the kernel's: zero off the block, lam * 1e-12 past it
            a = np.zeros((1, width, width))
            a[0, :q, :q] = jac @ jac.T
            diag = a.reshape(1, -1)[:, ::width + 1]
            a.reshape(1, -1)[:, ::width + 1] += lam * np.maximum(diag, 1e-12)
            return a

        padded_g = np.zeros((1, qmax))
        padded_g[:, :q] = g
        want, got = _solve(damped(q), g), _solve(damped(qmax), padded_g)
        assert self._bits(got[:, :q]) == self._bits(want)
        assert (got[:, q:] == 0.0).all()
        for short, long in ((want, got), (g, padded_g)):
            assert self._bits(_row_dot(long)) == self._bits(_row_dot(short))

    @staticmethod
    def _residual_rows(monkeypatch):
        """The family name and number of rows of each ``_residuals`` call the
        kernel makes from here on."""
        rows = []

        def counted(spec, params, *args):
            rows.append((spec.name, len(params)))
            return _residuals(spec, params, *args)

        monkeypatch.setattr(fit_module, "_residuals", counted)
        return rows

    def test_one_trial_per_row_per_pass(self, gaussian_dataset, monkeypatch):
        # y = a exp(-b x), NaN once b is more than 1e-6 from 0.05, so a step
        # wins only at a large damping; every trial of nan_trials is NaN
        def tethered(p, x):
            return np.where(np.abs(p[1] - 0.05) <= 1e-6, p[0] * np.exp(-p[1] * x), np.nan)

        def grad(p, x):
            e = np.exp(-p[1] * x)
            return np.stack([e, -p[0] * x * e])

        tether = ModelSpec(name="tethered", n_params=2, family_class="exponential",
                           eval_fn=tethered, grad_fn=grad,
                           guess_fn=lambda xs, ys: np.array([1.0, 0.1]))
        start = np.array([[50.0, 0.05]])

        def run(spec, max_iter):
            with monkeypatch.context() as m:
                m.setattr(fit_module, "_MAX_ITER", max_iter)
                rows = self._residual_rows(m)
                return _lockstep([spec], gaussian_dataset, [start])[0], rows

        # One call for the start, then a one-row call per trial: nan_trials
        # loses every damping level of its first iteration and no more
        (_, _, its, stop), rows = run(_counting_model("nan_trials", nan_after=1),
                                      fit_module._MAX_ITER)
        assert (STOP_REASONS[stop[0]], its[0]) == ("no_descent", 1)
        assert rows == [("nan_trials", 1)] * (1 + fit_module._MAX_TRIALS)

        # Tethered converges where the one-level-at-a-time reference does
        (params, rss, its, stop), _ = run(tether, fit_module._MAX_ITER)
        want = reference_lm.fit_least_squares(tether, gaussian_dataset, start[0])
        assert STOP_REASONS[stop[0]] == "rss_rtol" and want.converged
        assert (its[0], rss[0]) == (want.iterations, pytest.approx(want.rss, rel=1e-9))
        assert params[0] == pytest.approx(want.params, rel=1e-9)
        # and its first iteration loses its first levels and wins at the
        # reference's level, after the same number of trials
        evals = []
        counted = ModelSpec(name="tethered", n_params=2, family_class="exponential",
                            eval_fn=lambda p, x: evals.append(1) or tethered(p, x),
                            grad_fn=grad, guess_fn=tether.guess_fn)
        monkeypatch.setattr(fit_module, "_MAX_ITER", 1)
        reference_lm.fit_least_squares(counted, gaussian_dataset, start[0])
        calls = len(evals) - 1  # the last is the reference's r^2
        (_, _, its, stop), rows = run(tether, 1)
        assert (STOP_REASONS[stop[0]], its[0]) == ("max_iterations", 1)
        assert rows == [("tethered", 1)] * calls and calls > 5

    @pytest.mark.parametrize("case", ["paper330", "paper1", "grid1"])
    def test_no_model_call_holds_more_rows_than_its_family_has_starts(
            self, case, monkeypatch):
        d, specs, starts, _ = _admitted_catalog_call(case)
        rows = self._residual_rows(monkeypatch)
        _lockstep(specs, d, starts)
        n_starts = {spec.name: len(s) for spec, s in zip(specs, starts)}
        assert rows and all(k <= n_starts[name] for name, k in rows)


def _raising_model(exc):
    """y = a exp(-b x), whose guess_fn raises ``exc``."""
    def guess(xs, ys):
        raise exc

    return ModelSpec(name="raises", n_params=2, family_class="exponential",
                     eval_fn=lambda p, x: p[0] * np.exp(-p[1] * x),
                     grad_fn=lambda p, x: np.stack([np.exp(-p[1] * x),
                                                    -p[0] * x * np.exp(-p[1] * x)]),
                     guess_fn=guess)


def _few_x_dataset(xs):
    return Dataset.from_points(xs, [5.0, 6.0, 7.0, 2.0, 2.5, 3.0][:len(xs)], study="s")


TWO_X, ONE_X = [3.0] * 3 + [10.0] * 3, [3.0] * 6


class TestFailureIsolation:
    """A family that fails alone keeps its reason and leaves the rest as
    ranked alone: its guess raises, the data rule it out (fewer distinct
    ages than parameters), or every start evaluates non-finite (pre-birth
    ages)."""

    CFG = PlausibilityConfig(domain=(-1.0, 55.0))
    NO_START = "fit failed: {}: no start point produced a fit"

    @pytest.mark.parametrize("case, exc", [
        ("paper", ValueError("no guess")),
        ("two_x", np.linalg.LinAlgError("singular guess")),
        ("one_x", ValueError("no guess")),
    ])
    def test_failed_family_leaves_the_others_alone(self, case, exc):
        d = {"paper": paper_scale_dataset(8), "two_x": _few_x_dataset(TWO_X),
             "one_x": _few_x_dataset(ONE_X)}[case]
        specs = catalog()
        specs.insert(len(specs) // 2, _raising_model(exc))
        ranked = {e.result.spec_name: e
                  for e in rank_all(specs, d, self.CFG, seed=3).entries}
        assert len(ranked) == len(specs)
        assert ranked["raises"].reason == f"fit failed: {exc}"
        for spec in specs:
            alone, = rank_all([spec], d, self.CFG, seed=3).entries
            assert repr(ranked[spec.name]) == repr(alone), spec.name

    def test_failure_reasons_are_pinned(self):
        def failed(d):
            return {e.result.spec_name: e.reason
                    for e in rank_all(catalog(), d, self.CFG, seed=3).entries
                    if e.reason.startswith("fit failed")}

        # every start non-finite at the pre-birth ages
        assert failed(paper_scale_dataset(8)) == {
            name: self.NO_START.format(name)
            for name in ("power_law", "sqrt_law", "lognormal_peak", "power_offset")}
        # 2 distinct ages rule out every family with more than 2 parameters
        assert failed(_few_x_dataset(TWO_X)) == {
            s.name: f"fit failed: {s.name}: underdetermined: 2 distinct ages "
                    f"for {s.n_params} parameters"
            for s in catalog() if s.n_params > 2}
        # all x identical rules out every family but poly0; poly5's guess
        # needs 6 points and raises first
        want = {s.name: f"fit failed: {s.name}: all x identical: singular "
                        f"system for an x-dependent family"
                for s in catalog() if s.name != "poly0"}
        want["poly5"] = "fit failed: poly5: need >= 6 points, got 5"
        assert failed(_few_x_dataset(ONE_X[:5])) == want

    def test_two_ages_converge_no_family_above_two_parameters(self):
        xs = np.repeat([3.0, 10.0], 50)
        ys = 10.0 * np.exp(-0.1 * xs) * np.random.default_rng(5).lognormal(0.0, 0.1, 100)
        d = Dataset.from_points(xs, ys, study="s")
        ranked = rank_all(catalog(), d, self.CFG, seed=3).entries
        assert {e.result.spec_name for e in ranked if e.result.converged} == {
            s.name for s in catalog() if s.n_params <= 2}
        # every entry point gives a ruled-out family the same reason
        spec = get_model("gaussian_peak")
        why = "gaussian_peak: underdetermined: 2 distinct ages for 3 parameters"
        assert f"fit failed: {why}" in {e.reason for e in ranked}
        for call in (lambda: multi_start(spec, d),
                     lambda: fit_least_squares(spec, d, [10.0, 5.0, 2.0])):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == why


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
        params, rss, _, stop = _lockstep(
            [spec], d, [_start_points(spec, d, 5, seed=1)])[0]
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
        params, rss, _, stop = _lockstep([spec], d, [starts])[0]
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
        params, rss, iterations, stop = _lockstep([spec], d, [starts])[0]
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
        _, _, iterations, stop = _lockstep([spec], d, [starts])[0]
        assert iterations.tolist() == [1, 1, 1]
        assert {STOP_REASONS[c] for c in stop} == {"step_tol"}

    def test_guess_entries_of_linear_parameters_are_ignored(self):
        d = paper_scale_dataset(4)
        spec = get_model("double_exp_decay")
        starts = _start_points(spec, d, 3, seed=1)
        moved = starts.copy()
        moved[:, list(spec.linear)] = [[1e9, -5.0], [0.0, 0.0], [np.nan, 3.0]]
        a = _lockstep([spec], d, [starts])[0]
        b = _lockstep([spec], d, [moved])[0]
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
        elif reason == "start_far":  # an RMS miss ~1e18 times the data's
            start = [[1e20, 15.0, 4.0]]
        if spec.n_params == 2:
            start = [[50.0, 0.05]]
        params, rss, iterations, stop = _lockstep(
            [spec], d, [np.array(start)])[0]
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


class TestFarStarts:
    """A start whose RSS, after its linear solve, exceeds ``_FAR`` times the
    zero curve's (sum w y^2) stops at once as ``start_far``."""

    @staticmethod
    def _rss(spec, d, start):
        """The start's weighted RSS over every point."""
        with np.errstate(all="ignore"):
            return np.sum(d.weights * (d.ys - evaluate(spec, start, d.xs)) ** 2)

    def test_far_start_is_returned_unconverged_with_its_rss(self, gaussian_dataset):
        d, spec = gaussian_dataset, get_model("gaussian_peak")
        start = [1e20, 15.0, 4.0]
        r = fit_least_squares(spec, d, start)
        assert (r.stop_reason, r.converged, r.iterations) == ("start_far", False, 0)
        assert r.params == tuple(start)
        assert r.rss == pytest.approx(self._rss(spec, d, start), rel=1e-12)

    def test_far_row_ends_alike_in_a_batch(self, gaussian_dataset):
        d, spec = gaussian_dataset, get_model("gaussian_peak")
        batch = np.array([[90.0, 15.0, 4.0], [1e20, 15.0, 4.0], [80.0, 12.0, 3.0]])
        params, rss, iterations, stop = _lockstep([spec], d, [batch])[0]
        assert STOP_REASONS[stop[1]] == "start_far"
        for i, start in enumerate(batch):
            alone = fit_least_squares(spec, d, start)
            assert alone.params == tuple(params[i])
            assert (alone.rss, alone.iterations, alone.stop_reason) == \
                (rss[i], iterations[i], STOP_REASONS[stop[i]])

    @pytest.mark.parametrize("factor, far", [(1 + 1e-6, False), (1 - 1e-6, True)])
    def test_bound_is_the_starting_rss_over_the_zero_curves(
            self, gaussian_dataset, monkeypatch, factor, far):
        d, spec = gaussian_dataset, get_model("gaussian_peak")
        start = [1e4, 15.0, 4.0]
        ratio = self._rss(spec, d, start) / np.sum(d.weights * d.ys ** 2)
        monkeypatch.setattr(fit_module, "_FAR", ratio * factor)
        r = fit_least_squares(spec, d, start)
        assert (r.stop_reason == "start_far") == far
        assert (r.iterations == 0) == far

    def test_family_whose_every_start_is_far_is_not_converged(self, monkeypatch):
        # with a bound of 0 every start that misses at all is far; a family
        # linear in every parameter is one solve and is never far
        monkeypatch.setattr(fit_module, "_FAR", 0.0)
        cfg = PlausibilityConfig(domain=(-1.0, 55.0))
        ranked = rank_all(catalog(), paper_scale_dataset(3), cfg, seed=3)
        linear = {s.name for s in catalog() if len(s.linear) == s.n_params}
        assert linear
        # an entry without a stop_reason had no start that evaluated
        for r in (e.result for e in ranked.entries if e.result.stop_reason):
            if r.spec_name in linear:
                assert (r.stop_reason, r.converged) == ("step_tol", True), r.spec_name
            else:
                assert (r.stop_reason, r.converged, r.iterations) == \
                    ("start_far", False, 0), r.spec_name
        assert ranked.gold_standard.spec_name in linear
        assert "excluded: not converged (start_far)" in ranked.leaderboard()

    def test_all_zero_y_is_never_far(self, monkeypatch):
        monkeypatch.setattr(fit_module, "_FAR", 0.0)
        d = make_dataset(np.linspace(0.0, 50.0, 30), np.zeros(30))
        r = fit_least_squares(get_model("gaussian_peak"), d, [5.0, 20.0, 4.0])
        assert r.stop_reason != "start_far" and r.iterations > 0


class TestGroupingOncePerRank:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counting(d):
            calls.append(d)
            return _distinct_x(d)

        monkeypatch.setattr(fit_module, "_distinct_x", counting)
        return calls

    def test_rank_groups_the_dataset_once(self, calls):
        d = grid_dataset(5, n=600)
        cfg = PlausibilityConfig(domain=(-1.0, 55.0))
        rank_all(catalog(), d, cfg)
        assert calls == [d]
        rank_all(catalog()[:3], grid_dataset(5, n=600), cfg)
        assert len(calls) == 2

    @pytest.mark.parametrize("fit", [
        lambda d: rank_all(catalog(), d, PlausibilityConfig(domain=(-1.0, 55.0))),
        lambda d: multi_start(get_model("gaussian_peak"), d),
        lambda d: fit_least_squares(get_model("gaussian_peak"), d, [9e3, 20.0, 8.0]),
    ], ids=["rank_all", "multi_start", "fit_least_squares"])
    def test_each_fit_groups_once_and_writes_nothing_to_the_dataset(self, calls, fit):
        d = grid_dataset(5, n=600)
        before = dict(vars(d))
        fit(d)
        assert calls == [d]
        assert vars(d).keys() == before.keys()
        assert all(vars(d)[k] is v for k, v in before.items())


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
