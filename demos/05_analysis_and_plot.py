"""Derived quantities and a publication-style SVG plot.

From a fitted decline model: the age of fastest monthly loss, the percent
of the starting reserve remaining at later ages, a cross-model
correlation, and a scatter + curve + 95% band SVG written to disk.
"""

from pathlib import Path

import numpy as np

from curvemine.analyze import (
    cross_correlation,
    monthly_loss,
    peak_age,
    percent_remaining,
    prediction_band,
)
from curvemine.dataset import Dataset
from curvemine.fit import multi_start
from curvemine.models import evaluate, get_model
from curvemine.plotting import render_svg

OUT = Path(__file__).parent / "output"


def main():
    rng = np.random.default_rng(3)
    ages = rng.uniform(0, 55, 300)
    truth = 250.0 * np.exp(-((ages - 14.5) ** 2) / (2 * 9.0 ** 2))
    values = np.clip(truth * (1 + rng.normal(0, 0.05, ages.size)), 0, None)
    d = Dataset.from_points(ages, values, study="demo", label="reserve")

    spec = get_model("gaussian_peak")
    fitted = multi_start(spec, d, n_starts=5, seed=3)

    pk = peak_age(lambda t: monthly_loss(spec, fitted.params, t), (0.0, 55.0))
    print(f"fastest monthly loss at age {pk.age:.2f} "
          f"({pk.value:.2f} units/month)")
    for age in (30.0, 40.0):
        pct = percent_remaining(spec, fitted.params, age,
                                reference="peak", domain=(0.0, 55.0))
        print(f"at age {age:.0f}: {pct:.1f}% of the peak value remains")

    # How well does the decline rate track a second, related curve?
    other = get_model("exp_decay")
    rep = cross_correlation(spec, fitted.params, other, [8.0, 0.08],
                            (0.0, 55.0),
                            transform_a="negated_derivative",
                            transform_b="value")
    print(f"loss-rate vs decay-curve correlation: r={rep.r:.3f} "
          f"on {rep.grid_size} monthly grid points")

    band = prediction_band(spec, fitted, d, level=0.95)
    xs = np.linspace(0, 55, 400)
    curve = (list(xs), list(np.asarray(evaluate(spec, fitted.params, xs))))
    OUT.mkdir(exist_ok=True)
    path = OUT / "reserve_model.svg"
    path.write_text(render_svg(d, curve=curve, band=band,
                               title="Reserve model with 95% band"),
                    encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
