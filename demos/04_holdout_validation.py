"""Validate a fitted model on unseen data.

Fit on the training half, score residuals on the test half without
refitting, and report the agreement between the two r^2 values. Also
checks that the two cohorts have similar descriptive statistics.
"""

import numpy as np

from curvemine.dataset import Dataset
from curvemine.fit import multi_start
from curvemine.models import get_model
from curvemine.validate import compare_descriptives, holdout_validate, split


def main():
    rng = np.random.default_rng(7)
    ages = rng.uniform(15, 50, 400)
    truth = 8.0 * np.exp(-((ages - 24.0) ** 2) / (2 * 10.0 ** 2))
    levels = np.clip(truth + rng.normal(0, 1.2, ages.size), 0, None)
    d = Dataset.from_points(ages, levels, study="demo", label="hormone-levels")

    train, test = split(d, fraction=0.5, seed=1, stratify_bins=8)
    print(compare_descriptives(train, test, tolerance=0.2).to_text())

    spec = get_model("gaussian_peak")
    fitted = multi_start(spec, train, n_starts=5, seed=1)
    report = holdout_validate(spec, fitted.params, train, test)
    print(f"\nr2 train={report.r2_train:.3f} test={report.r2_test:.3f} "
          f"agreement={report.agreement:.3f}")


if __name__ == "__main__":
    main()
