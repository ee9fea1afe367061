import numpy as np
import pytest

from curvemine.dataset import Dataset


def make_dataset(xs, ys, study_id="s", label="", assay=None, unit=""):
    return Dataset.from_points(xs, ys, study=study_id, unit=unit, assay=assay,
                               label=label)


@pytest.fixture
def line_dataset():
    # exact y = 1 + 2x
    return make_dataset([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])


@pytest.fixture
def gaussian_dataset():
    rng = np.random.default_rng(7)
    xs = np.linspace(0.0, 60.0, 200)
    A, c, w = 100.0, 14.5, 3.0
    ys = A * np.exp(-((xs - c) ** 2) / (2 * w * w)) + rng.normal(0, 1.0, xs.size)
    return make_dataset(xs, np.clip(ys, 0.0, None))
