import numpy as np
import pytest

from curvemine.fit import fit_least_squares
from curvemine.models import get_model, initial_guess
from curvemine.synth import SummaryRow, reconstruct_dataset
from curvemine.validate import (
    agreement,
    compare_descriptives,
    holdout_validate,
    split,
)

from conftest import make_dataset
from reference_ingest import rows


@pytest.fixture
def uniform100():
    rng = np.random.default_rng(0)
    return make_dataset(rng.uniform(0, 60, 100), rng.uniform(1, 9, 100))


class TestSplit:
    def test_half_split_partitions(self, uniform100):
        train, test = split(uniform100, 0.5, seed=1)
        assert len(train) == 50 and len(test) == 50
        combined = sorted(rows(train) + rows(test), key=lambda p: (p.x, p.y))
        assert combined == sorted(rows(uniform100), key=lambda p: (p.x, p.y))

    def test_determinism(self, uniform100):
        a = split(uniform100, 0.3, seed=7)
        b = split(uniform100, 0.3, seed=7)
        assert rows(a[0]) == rows(b[0])

    def test_fraction_within_one_point(self, uniform100):
        for frac in (0.2, 0.37, 0.8):
            train, _ = split(uniform100, frac, seed=2)
            assert abs(len(train) - frac * 100) <= 1

    def test_stratified_bins(self):
        xs = np.linspace(0, 59.9, 200)  # uniform over bins
        rng = np.random.default_rng(3)
        d = make_dataset(xs, rng.uniform(1, 9, 200))
        train, _ = split(d, 0.5, seed=4, stratify_bins=10)
        train_xs = train.xs
        for b in range(10):
            lo, hi = b * 6.0, (b + 1) * 6.0
            n_bin = np.sum((xs >= lo) & (xs < hi))
            n_train = np.sum((train_xs >= lo) & (train_xs < hi))
            assert abs(n_train - 0.5 * n_bin) <= 1

    def test_fraction_bounds(self, uniform100):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(uniform100, bad)

    def test_too_small(self):
        with pytest.raises(ValueError):
            split(make_dataset([1, 2, 3], [1, 2, 3]), 0.5)


class TestHoldoutValidate:
    def test_self_validation(self, uniform100):
        spec = get_model("poly1")
        fit = fit_least_squares(spec, uniform100,
                                initial_guess(spec, uniform100))
        report = holdout_validate(spec, fit.params, uniform100, uniform100)
        assert report.r2_test == report.r2_train
        assert report.agreement == 1.0

    def test_published_r2_pair(self):
        assert agreement(0.45, 0.43) == pytest.approx(0.43 / 0.45)
        assert agreement(0.45, 0.43) == pytest.approx(0.9556, abs=1e-4)

    def test_agreement_symmetry_and_identity(self):
        assert agreement(0.3, 0.6) == agreement(0.6, 0.3)
        assert agreement(0.5, 0.5) == 1.0
        assert agreement(-0.1, 0.5) is None
        assert agreement(0.0, 0.5) is None

    def test_synthetic_pipeline_agreement(self):
        rng = np.random.default_rng(21)
        xs = rng.uniform(0, 60, 400)
        A, c, w = 100.0, 20.0, 8.0
        ys = A * np.exp(-((xs - c) ** 2) / (2 * w * w))
        ys = np.clip(ys + rng.normal(0, 0.05 * A, xs.size), 0, None)
        d = make_dataset(xs, ys)
        train, test = split(d, 0.5, seed=2)
        spec = get_model("gaussian_peak")
        fit = fit_least_squares(spec, train, initial_guess(spec, train))
        report = holdout_validate(spec, fit.params, train, test)
        assert report.agreement is not None
        assert report.agreement >= 0.9

    def test_never_refits(self, uniform100):
        spec = get_model("poly1")
        fit = fit_least_squares(spec, uniform100,
                                initial_guess(spec, uniform100))
        train, test = split(uniform100, 0.5, seed=5)
        r1 = holdout_validate(spec, fit.params, train, test)
        perturbed = make_dataset(test.xs, test.ys + 1.0)
        r2 = holdout_validate(spec, fit.params, train, perturbed)
        assert r1.r2_train == r2.r2_train
        assert r1.r2_test != r2.r2_test

    def test_degenerate_test_set(self, uniform100):
        spec = get_model("poly0")
        flat = make_dataset([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        with pytest.raises(ValueError, match="degenerate|identical"):
            holdout_validate(spec, [5.0], uniform100, flat)

    def test_negative_test_r2_reported_verbatim(self, uniform100):
        spec = get_model("poly0")
        fit = fit_least_squares(spec, uniform100, [0.0])
        far = make_dataset([1, 2, 3, 4], [100.0, 101.0, 102.0, 103.0])
        report = holdout_validate(spec, fit.params, uniform100, far)
        assert report.r2_test < 0
        assert report.agreement is None


class TestCompareDescriptives:
    def test_identity(self, uniform100):
        report = compare_descriptives(uniform100, uniform100, tolerance=0.01)
        assert report.passed
        assert all(v == 0.0 for v in report.relative_differences.values())

    def test_scaled_cohort_fails(self, uniform100):
        doubled = make_dataset(uniform100.xs, 2.0 * uniform100.ys)
        report = compare_descriptives(uniform100, doubled, tolerance=0.1)
        assert not report.passed
        assert report.relative_differences["mean"] == pytest.approx(0.5)

    def test_two_reconstructions_similar(self):
        rows = [SummaryRow(x=float(20 + i), n=1000, mean=10.0 + 0.1 * i, sd=1.0)
                for i in range(5)]
        a = reconstruct_dataset(rows, seed=3)
        b = reconstruct_dataset(rows, seed=4)
        assert compare_descriptives(a, b, tolerance=0.1).passed

    def test_text_table(self, uniform100):
        text = compare_descriptives(uniform100, uniform100).to_text()
        assert "mean" in text and "pass: True" in text
