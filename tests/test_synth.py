import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemine.dataset import describe
from curvemine.synth import (
    DEFAULT_Z_ONE_SIDED_95,
    LogNormalParams,
    SummaryRow,
    lognormal_moments,
    read_summary_csv,
    reconstruct_dataset,
    reconstruct_row,
    replicate,
    sd_from_upper_pl,
    solve_lognormal,
)


class TestSdFromUpperPl:
    def test_zero_width_limit(self):
        assert sd_from_upper_pl(5.0, 5.0, 1.96) == 0.0

    def test_direct_arithmetic(self):
        assert sd_from_upper_pl(10.0, 11.96, 1.96) == pytest.approx(1.0)
        assert sd_from_upper_pl(10.0, 13.29, 1.645) == pytest.approx(2.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            sd_from_upper_pl(10.0, 9.0, 1.96)
        with pytest.raises(ValueError):
            sd_from_upper_pl(10.0, 11.0, 0.0)

    @given(st.floats(0.0, 1e6), st.floats(0.01, 100.0), st.floats(0.5, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_width_and_inverse_in_z(self, mean, width, z):
        base = sd_from_upper_pl(mean, mean + width, z)
        assert sd_from_upper_pl(mean, mean + 2 * width, z) == pytest.approx(2 * base)
        assert sd_from_upper_pl(mean, mean + width, 2 * z) == pytest.approx(base / 2)


class TestSolveLognormal:
    def test_unit_params(self):
        mu = math.exp(0.5)
        sigma = math.sqrt(math.e * (math.e - 1.0))
        p = solve_lognormal(mu, sigma)
        assert p.x_log == pytest.approx(0.0, abs=1e-12)
        assert p.y_log == pytest.approx(1.0, rel=1e-12)

    def test_mu2_sigma1(self):
        p = solve_lognormal(2.0, 1.0)
        assert p.x_log == pytest.approx(0.581575, abs=1e-6)
        assert p.y_log == pytest.approx(0.472381, abs=1e-6)
        mean, sd = lognormal_moments(p)
        assert mean == pytest.approx(2.0, rel=1e-12)
        assert sd == pytest.approx(1.0, rel=1e-12)

    def test_small_variance_limit(self):
        p = solve_lognormal(1.0, 1e-6)
        assert p.x_log == pytest.approx(0.0, abs=1e-11)
        assert p.y_log == pytest.approx(1e-6, rel=1e-3)

    def test_round_trip_grid(self):
        for mu in (0.1, 1.0, 5.0, 50.0):
            for sd in (0.01, 0.5, 2.0, 10.0):
                mean_back, sd_back = lognormal_moments(solve_lognormal(mu, sd))
                assert mean_back == pytest.approx(mu, rel=1e-10)
                assert sd_back == pytest.approx(sd, rel=1e-10)

    def test_errors(self):
        with pytest.raises(ValueError):
            solve_lognormal(0.0, 1.0)
        with pytest.raises(ValueError):
            solve_lognormal(1.0, 0.0)
        with pytest.raises(ValueError):
            LogNormalParams(x_log=0.0, y_log=0.0)


class TestReconstructRow:
    def test_normal_moment_correct_exact(self):
        row = SummaryRow(x=30.0, n=100, mean=10.0, sd=2.0)
        vals = reconstruct_row(row, seed=1, moment_correct=True)
        assert len(vals) == 100
        assert vals.mean() == pytest.approx(10.0, rel=1e-9)
        assert vals.std(ddof=1) == pytest.approx(2.0, rel=1e-9)

    def test_lognormal_statistical_oracle(self):
        row = SummaryRow(x=30.0, n=10_000, mean=2.0, sd=1.0, family="lognormal")
        means = [reconstruct_row(row, seed=s).mean() for s in range(5)]
        se = 1.0 / math.sqrt(10_000)
        for m in means:
            assert abs(m - 2.0) < 3 * se

    def test_lognormal_values_positive(self):
        row = SummaryRow(x=30.0, n=1000, mean=0.5, sd=3.0, family="lognormal")
        assert (reconstruct_row(row, seed=4) > 0).all()

    def test_lognormal_moment_correct_on_log_scale(self):
        row = SummaryRow(x=30.0, n=50, mean=2.0, sd=1.0, family="lognormal")
        from curvemine.synth import solve_lognormal as solve
        target = solve(2.0, 1.0)
        vals = np.log(reconstruct_row(row, seed=2, moment_correct=True))
        assert vals.mean() == pytest.approx(target.x_log, rel=1e-9)
        assert vals.std(ddof=1) == pytest.approx(target.y_log, rel=1e-9)

    def test_determinism(self):
        row = SummaryRow(x=1.0, n=10, mean=3.0, sd=0.5)
        a = reconstruct_row(row, seed=42)
        b = reconstruct_row(row, seed=42)
        assert np.array_equal(a, b)

    def test_sd_from_prediction_limit_path(self):
        row = SummaryRow(x=1.0, n=100, mean=10.0,
                         upper_pl95=10.0 + 2.0 * DEFAULT_Z_ONE_SIDED_95)
        vals = reconstruct_row(row, seed=0, moment_correct=True)
        assert vals.std(ddof=1) == pytest.approx(2.0, rel=1e-9)

    def test_errors(self):
        with pytest.raises(ValueError):
            SummaryRow(x=1.0, n=0, mean=1.0, sd=1.0)
        with pytest.raises(ValueError, match="n >= 2"):
            reconstruct_row(SummaryRow(x=1.0, n=1, mean=1.0, sd=1.0),
                            seed=0, moment_correct=True)
        with pytest.raises(ValueError):
            SummaryRow(x=1.0, n=5, mean=1.0)  # no spread at all
        with pytest.raises(ValueError):
            SummaryRow(x=1.0, n=5, mean=2.0, upper_pl95=1.5)


class TestReconstructDataset:
    def test_near_degenerate(self):
        rows = [SummaryRow(x=30.0, n=5, mean=10.0, sd=0.0001)]
        d = reconstruct_dataset(rows, seed=0)
        assert len(d) == 5
        assert d.xs.tolist() == [30.0] * 5
        assert all(abs(y - 10.0) < 0.01 for y in d.ys.tolist())
        assert d.study_ids == ["synthetic"] * 5

    def test_count_additivity(self):
        rows = [SummaryRow(x=1.0, n=3, mean=5.0, sd=1.0),
                SummaryRow(x=2.0, n=4, mean=6.0, sd=1.0)]
        assert len(reconstruct_dataset(rows, seed=0)) == 7

    def test_pooled_moments_oracle(self):
        rng = np.random.default_rng(8)
        rows = []
        total = 0
        for i in range(60):
            n = 166 if i < 40 else 167  # totals 10,000 with the last rows
            total += n
            rows.append(SummaryRow(x=float(20 + i), n=n,
                                   mean=float(rng.uniform(5, 15)), sd=1.0))
        rows = rows[:60]
        d = reconstruct_dataset(rows, seed=13)
        assert len(d) == total
        pooled_mean = sum(r.n * r.mean for r in rows) / total
        pooled_se = math.sqrt(sum(r.n * r.sd ** 2 for r in rows)) / total
        assert abs(describe(d, "y").mean - pooled_mean) < 3 * pooled_se

    def test_row_order_independence_of_seeds(self):
        rows = [SummaryRow(x=1.0, n=4, mean=5.0, sd=1.0),
                SummaryRow(x=2.0, n=4, mean=6.0, sd=1.0)]
        d = reconstruct_dataset(rows, seed=0)
        ys_row0 = sorted(d.ys[d.xs == 1.0].tolist())
        # same first row alone produces the same values
        d_single = reconstruct_dataset(rows[:1], seed=0)
        assert sorted(d_single.ys.tolist()) == ys_row0


class TestReplicate:
    def test_k1_matches_derived_seed(self):
        rows = [SummaryRow(x=1.0, n=5, mean=5.0, sd=1.0)]
        [d] = replicate(rows, master_seed=7, k=1)
        from curvemine.synth import _derive_seed
        expected = reconstruct_dataset(rows, _derive_seed(7, 1))
        assert d.ys.tolist() == expected.ys.tolist()

    def test_determinism_across_runs(self):
        rows = [SummaryRow(x=1.0, n=5, mean=5.0, sd=1.0)]
        run1 = replicate(rows, master_seed=3, k=2)
        run2 = replicate(rows, master_seed=3, k=2)
        for a, b in zip(run1, run2):
            assert a.ys.tolist() == b.ys.tolist()

    def test_replicates_are_distinct(self):
        rows = [SummaryRow(x=1.0, n=5, mean=5.0, sd=1.0)]
        a, b = replicate(rows, master_seed=3, k=2)
        assert a.ys.tolist() != b.ys.tolist()

    def test_monte_carlo_spread(self):
        rows = [SummaryRow(x=1.0, n=400, mean=10.0, sd=2.0)]
        datasets = replicate(rows, master_seed=5, k=20)
        means = [describe(d, "y").mean for d in datasets]
        expected_spread = 2.0 / math.sqrt(400)
        assert np.std(means) < 3 * expected_spread
        assert np.std(means) > expected_spread / 10

    def test_k0_error(self):
        with pytest.raises(ValueError):
            replicate([SummaryRow(x=1.0, n=5, mean=5.0, sd=1.0)], 0, 0)


class TestSummaryCsv:
    def test_parse(self):
        rows = read_summary_csv(
            "x,n,mean,sd,upper_pl95,family\n"
            "25,10,5.0,1.0,,normal\n"
            "30,20,6.0,,9.29,lognormal\n")
        assert rows[0].sd == 1.0 and rows[0].upper_pl95 is None
        assert rows[1].sd is None and rows[1].family == "lognormal"

    def test_missing_column(self):
        with pytest.raises(ValueError, match="mean"):
            read_summary_csv("x,n\n1,2\n")

    def test_bad_row_reported(self):
        with pytest.raises(ValueError, match="row 2"):
            read_summary_csv("x,n,mean,sd\n1,0,5,1\n")
