"""Every demo runs end to end; demo 05 still draws the tracked SVG byte for byte."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", sorted(DEMOS.glob("0*.py")), ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    demo = _load(path)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    assert capsys.readouterr().out


def test_demo_05_svg_matches_tracked_file(tmp_path, monkeypatch, capsys):
    demo = _load(DEMOS / "05_analysis_and_plot.py")
    monkeypatch.setattr(demo, "OUT", tmp_path)
    demo.main()
    tracked = DEMOS / "output" / "reserve_model.svg"
    assert (tmp_path / "reserve_model.svg").read_bytes() == tracked.read_bytes()
