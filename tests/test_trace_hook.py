"""The benchmark's trace (perfbench/spans.py) wraps Dataset.from_points and
the column properties on the class; installing it records a span per call,
and uninstalling it puts the originals back."""

import importlib
import importlib.util
from pathlib import Path

from curvemine.dataset import Dataset

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_from_points_span_recorded_and_originals_restored():
    spans = _load_spans()
    modules = {layer: importlib.import_module(f"curvemine.{layer}")
               for layer in spans.LAYERS}
    attrs = ("from_points", *spans.COLUMN_PROPERTIES)
    originals = {a: Dataset.__dict__[a] for a in attrs}
    recorder = spans.Recorder(modules)
    recorder.install()
    try:
        assert Dataset.__dict__["from_points"] is not originals["from_points"]
        d = Dataset.from_points([1.0, 2.0], [3.0, 4.0], study="s")
        assert len(d) == 2
        assert "dataset.from_points" in recorder.names
        name_id = recorder.names.index("dataset.from_points")
        assert list(recorder.name).count(name_id) == 1
    finally:
        recorder.uninstall()
    assert {a: Dataset.__dict__[a] for a in attrs} == originals
