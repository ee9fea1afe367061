"""Fit the whole model catalog to one dataset and rank by goodness of fit.

The winner ("gold standard") is the plausible model with the highest r^2;
implausible models (negative values, poles) stay in the table but cannot
win.
"""

import numpy as np

from curvemine.dataset import Dataset
from curvemine.fit import rank_all
from curvemine.models import PlausibilityConfig, catalog


def main():
    # Synthetic population-vs-age data: rise, peak in adolescence, decline.
    rng = np.random.default_rng(42)
    ages = rng.uniform(0, 55, 250)
    truth = 300.0 * np.exp(-((ages - 16.0) ** 2) / (2 * 8.0 ** 2))
    values = np.clip(truth * (1 + rng.normal(0, 0.08, ages.size)), 0, None)
    d = Dataset.from_points(ages, values, study="demo", label="demo-population")

    cfg = PlausibilityConfig(domain=(0.0, 55.0), require_nonnegative=True)
    ranked = rank_all(catalog(), d, cfg, n_starts=5, seed=42)

    print(ranked.leaderboard(top=10))
    gold = ranked.gold_standard
    print(f"\ngold standard: {gold.spec_name} "
          f"(r2={gold.r2:.4f}, {gold.iterations} iterations)")


if __name__ == "__main__":
    main()
