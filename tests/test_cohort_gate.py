"""tools/cohort_gate.py's report: every op result or file that differs
between the trees, or exists on one side only, is a difference, and the
gate fails on any difference or on an op that fails on the new tree."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "cohort_gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("cohort_gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs(**changes):
    base = {"seed 1 op 2 describe": [None, {"y": {"count": 3, "min": 0.0}}],
            "seed 1 op 6 plot": [None, None],
            "seed 1 file figure.svg": "ab" * 32}
    return {**base, **changes}


def test_equal_trees_pass(gate, capsys):
    assert gate.compare(outputs(), outputs()) == 0
    assert capsys.readouterr().out == "0 differences in 3 outputs\n"


@pytest.mark.parametrize("change, line", [
    ({"seed 1 op 2 describe": [None, {"y": {"count": 3, "min": -0.0}}]},
     "seed 1 op 2 describe: result differs in y"),
    ({"seed 1 file figure.svg": "cd" * 32}, "seed 1 file figure.svg: bytes differ"),
    ({"seed 1 file band.csv": "ef" * 32}, "seed 1 file band.csv: only on the new side"),
])
def test_any_difference_fails(gate, capsys, change, line):
    assert gate.compare(outputs(), outputs(**change)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[-1] == f"1 differences in {len(outputs(**change))} outputs"


def test_an_op_failing_on_the_new_tree_fails(gate, capsys):
    failing = {"seed 1 op 6 plot": ["exit 1", None]}
    assert gate.compare(outputs(**failing), outputs(**failing)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["seed 1 op 6 plot: old fails: exit 1",
                       "seed 1 op 6 plot: new fails: exit 1"]
    assert out[-1] == "0 differences in 3 outputs"
    # failing on the old tree alone is a difference, not a new failure
    assert gate.compare(outputs(**failing), outputs()) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 differences in 3 outputs"
