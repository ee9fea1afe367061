"""tools/gate.py's report. A rank result is judged entry by entry and fails
the gate only on a worse or lost RSS; every other op result or file that
differs between the trees, or exists on one side only, is a difference,
and the gate fails on any difference or on an op that fails on the new
tree."""

import argparse
import importlib.util
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "gate.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("gate", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs(**changes):
    base = {"cohort_pipeline seed 1 op 2 describe": [None, {"y": {"count": 3, "min": 0.0}}],
            "cohort_pipeline seed 1 op 6 plot": [None, None],
            "cohort_pipeline seed 1 file figure.svg": "ab" * 32}
    return {**base, **changes}


def test_equal_trees_pass(gate, capsys):
    assert gate.compare(outputs(), outputs()) == 0
    assert capsys.readouterr().out == (
        "RSS against old: 0 worse, 0 better, 0 within 1e-09, 0 became non-finite\n"
        "0 changed entries of 0\n"
        "0 differences in 3 outputs\n")


@pytest.mark.parametrize("change, line", [
    ({"cohort_pipeline seed 1 op 2 describe": [None, {"y": {"count": 3, "min": -0.0}}]},
     "cohort_pipeline seed 1 op 2 describe: result differs in y"),
    ({"cohort_pipeline seed 1 file figure.svg": "cd" * 32},
     "cohort_pipeline seed 1 file figure.svg: bytes differ"),
    ({"cohort_pipeline seed 1 file band.csv": "ef" * 32},
     "cohort_pipeline seed 1 file band.csv: only on the new side"),
])
def test_any_difference_fails(gate, capsys, change, line):
    assert gate.compare(outputs(), outputs(**change)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[-1] == f"1 differences in {len(outputs(**change))} outputs"


def test_an_op_failing_on_the_new_tree_fails(gate, capsys):
    failing = {"cohort_pipeline seed 1 op 6 plot": ["exit 1", None]}
    assert gate.compare(outputs(**failing), outputs(**failing)) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["cohort_pipeline seed 1 op 6 plot: old fails: exit 1",
                       "cohort_pipeline seed 1 op 6 plot: new fails: exit 1"]
    assert out[-1] == "0 differences in 3 outputs"
    # failing on the old tree alone is a difference, not a new failure
    assert gate.compare(outputs(**failing), outputs()) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "1 differences in 3 outputs"


# --- rank results ------------------------------------------------------------

RANK = "rank_paper seed 1 op 0 rank"


def entry(name, r2, rss, **fields):
    return {"spec_name": name, "r2": r2, "rss": rss, "converged": True, **fields}


def ranked(*entries, gold="a", failure=None):
    return {RANK: [failure, {"gold_standard": gold, "entries": list(entries)}],
            "rank_paper seed 1 file op0/points.csv": "ab" * 32}


OLD = ranked(entry("a", 0.9, 2.0), entry("b", 0.8, 3.0))


@pytest.mark.parametrize("rss, status, moved", [
    (2.0 * (1 + 1e-8), 1, "1 worse, 0 better, 1 within 1e-09, 0 became non-finite"),
    (2.0 * (1 + 1e-10), 0, "0 worse, 0 better, 2 within 1e-09, 0 became non-finite"),
    (1.5, 0, "0 worse, 1 better, 1 within 1e-09, 0 became non-finite"),
    (float("inf"), 1, "0 worse, 0 better, 1 within 1e-09, 1 became non-finite"),
    (float("nan"), 1, "0 worse, 0 better, 1 within 1e-09, 1 became non-finite"),
], ids=["worse", "within", "better", "inf", "nan"])
def test_only_a_worse_or_lost_rss_fails(gate, capsys, rss, status, moved):
    assert gate.compare(OLD, ranked(entry("a", 0.9, rss), entry("b", 0.8, 3.0))) == status
    assert capsys.readouterr().out.splitlines() == [
        f"{RANK}: a: rss 2.0 -> {rss!r}",
        f"RSS against old: {moved}",
        "1 changed entries of 2",
        "0 differences in 2 outputs"]


def test_a_changed_entry_with_equal_rss_is_listed(gate, capsys):
    new = ranked(entry("a", 0.9, 2.0), entry("b", 0.8, 3.0, converged=False))
    assert gate.compare(OLD, new) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{RANK}: b: converged True -> False"
    assert out[-2:] == ["1 changed entries of 2", "0 differences in 2 outputs"]


def test_gold_standard_and_order_changes_are_printed(gate, capsys):
    new = ranked(entry("b", 0.95, 3.0), entry("a", 0.9, 2.0), gold="b")
    assert gate.compare(OLD, new) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{RANK}: b: r2 0.8 -> 0.95",
        f"{RANK}: gold standard a -> b",
        f"{RANK}: order at ranks 1-2: ['a (r2 0.9)', 'b (r2 0.8)'] -> "
        "['b (r2 0.95)', 'a (r2 0.9)']",
        "RSS against old: 0 worse, 0 better, 2 within 1e-09, 0 became non-finite",
        "1 changed entries of 2",
        "0 differences in 2 outputs"]


def test_a_rank_op_failing_on_the_new_tree_fails(gate, capsys):
    new = ranked(entry("a", 0.9, 2.0), entry("b", 0.8, 3.0), failure="rank: bad order")
    assert gate.compare(OLD, new) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"{RANK}: new fails: rank: bad order",
        f"{RANK}: failure differs",
        "RSS against old: 0 worse, 0 better, 2 within 1e-09, 0 became non-finite",
        "0 changed entries of 2",
        "1 differences in 2 outputs"]
    # the same failure on both sides still fails the gate
    assert gate.compare(new, new) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0 differences in 2 outputs"


# --- collecting --------------------------------------------------------------

def test_an_op_or_check_that_raises_is_a_failed_op(gate, monkeypatch):
    def build_round(workdir, key):
        workdir.mkdir(parents=True)
        (workdir / "input.txt").write_text("x")

        def check(stdout):
            json.loads(stdout)["result"]["no_such_field"]
        return [types.SimpleNamespace(command="catalog", argv=["catalog"], check=check),
                types.SimpleNamespace(command="rank", argv=["rank", "--no-such-flag"],
                                      check=check)]

    stub = types.ModuleType("workloads")
    stub.CheckFailed = type("CheckFailed", (Exception,), {})
    stub.WORKLOADS = {"rank_paper": (1, build_round)}
    monkeypatch.setitem(sys.modules, "workloads", stub)
    monkeypatch.setattr(sys, "path", list(sys.path))
    got = gate.collect(ROOT, [("rank_paper", 1)])
    assert list(got) == ["rank_paper seed 1 op 0 catalog", "rank_paper seed 1 op 1 rank",
                         "rank_paper seed 1 file input.txt"]
    failure, result = got["rank_paper seed 1 op 0 catalog"]
    assert failure == "check raised KeyError: 'no_such_field'"
    assert len(result["models"]) == 31
    assert got["rank_paper seed 1 op 1 rank"] == ["exit raised SystemExit: 2", None]


def test_seeds_name_any_workload(gate, capsys):
    assert gate._seed_range("cohort_pipeline:9-10") == ("cohort_pipeline", range(9, 11))
    assert gate._seed_range("rank_5k:7") == ("rank_5k", range(7, 8))
    for text in ("rank_1m:1-2", "cohort_pipeline", "rank_paper:x-2"):
        with pytest.raises(argparse.ArgumentTypeError):
            gate._seed_range(text)
    with pytest.raises(SystemExit) as exc:
        gate.main([".", ".", "--seeds", "rank_1m:1-2"])
    assert exc.value.code == 2
    assert "WORKLOAD one of ['cohort_pipeline', 'rank_5k', 'rank_paper']" in capsys.readouterr().err
