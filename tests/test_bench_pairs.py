"""tools/bench_pairs.py: the spread of a side's runs; the gain rule, which
needs the change to win nine pairs in ten by more than the parent's IQR
without failing more ops or reporting a run not correct; and the one
staging path that every run of either side is made from."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
LOWER = {"name": "op_p50_s", "unit": "s", "better": "lower"}
HIGHER = {"name": "points_per_s", "unit": "1/s", "better": "higher"}


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(value, failed=0, correct=True):
    return {"op_p50_s": value, "points_per_s": 1 / value, "attempted": 20,
            "failed": failed, "correct": correct}


def pairs_of(parent, change):
    return [{"first": "parent" if i % 2 == 0 else "change", "parent": p, "change": c}
            for i, (p, c) in enumerate(zip(parent, change))]


PARENT = [run(1.0 + i / 100) for i in range(10)]   # IQR 0.045 s


def test_spread_of_one_value(bench):
    assert bench.spread([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "iqr": 0.0}


def test_spread_of_four_values(bench):
    assert bench.spread([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                                                  "iqr": 1.5}


def test_nine_wins_of_ten_apart_by_more_than_the_iqr_meet_the_rule(bench):
    change = [run(0.8)] * 9 + [run(1.2)]
    got = bench.summarize(pairs_of(PARENT, change), [LOWER])["op_p50_s"]
    assert (got["change_better_pairs"], got["change_worse_pairs"]) == (9, 1)
    assert got["parent"]["iqr"] == pytest.approx(0.045)
    assert got["meets_gain_rule"] is True


def test_eight_wins_of_ten_do_not(bench):
    change = [run(0.8)] * 8 + [run(1.2)] * 2
    got = bench.summarize(pairs_of(PARENT, change), [LOWER])["op_p50_s"]
    assert got["change_better_pairs"] == 8
    assert got["meets_gain_rule"] is False


def test_medians_apart_by_less_than_the_iqr_do_not(bench):
    change = [run(p["op_p50_s"] - 0.001) for p in PARENT]
    got = bench.summarize(pairs_of(PARENT, change), [LOWER])["op_p50_s"]
    assert got["change_better_pairs"] == 10
    assert got["meets_gain_rule"] is False


def test_higher_is_better(bench):
    faster = bench.summarize(pairs_of(PARENT, [run(0.8)] * 10), [HIGHER])["points_per_s"]
    assert (faster["change_better_pairs"], faster["meets_gain_rule"]) == (10, True)
    slower = bench.summarize(pairs_of(PARENT, [run(1.2)] * 10), [HIGHER])["points_per_s"]
    assert (slower["change_worse_pairs"], slower["meets_gain_rule"]) == (10, False)


@pytest.mark.parametrize("bad", [run(0.8, failed=1), run(0.8, correct=False)])
def test_a_change_that_fails_an_op_or_is_not_correct_does_not(bench, bad):
    pairs = pairs_of(PARENT, [run(0.8)] * 9 + [bad])
    got = bench.summarize(pairs, [LOWER, HIGHER])
    assert got["op_p50_s"]["change_better_pairs"] == 10
    assert not got["op_p50_s"]["meets_gain_rule"]
    assert not got["points_per_s"]["meets_gain_rule"]
    assert bench.ops(pairs)["change"] == {"attempted": 200, "failed": bad["failed"],
                                          "correct": bad["correct"]}
    assert bench.ops(pairs)["parent"] == {"attempted": 200, "failed": 0, "correct": True}


def test_a_parent_that_fails_as_many_ops_does_not_block_the_rule(bench):
    parent = [run(p["op_p50_s"], failed=1) for p in PARENT]
    change = [run(0.8, failed=1)] * 10
    assert bench.summarize(pairs_of(parent, change), [LOWER])["op_p50_s"]["meets_gain_rule"]


def test_stage_copies_what_a_run_reads_and_nothing_it_leaves(bench, tmp_path):
    tree = tmp_path / "checkout"
    for name in ("src/pkg/mod.py", "perfbench/run.py", "BENCHMARK.json",
                 "src/pkg/__pycache__/mod.pyc", "perfbench/out/trace.json", ".git/HEAD",
                 ".hypothesis/db"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text(name)
    at = tmp_path / "stage" / "tree"
    at.mkdir(parents=True)
    (at / "stale.py").write_text("from an earlier side")
    bench.stage(tree, at)
    got = sorted(str(p.relative_to(at)) for p in at.rglob("*") if p.is_file())
    assert got == ["BENCHMARK.json", "perfbench/run.py", "src/pkg/mod.py"]
    assert (at / "src/pkg/mod.py").read_text() == "src/pkg/mod.py"


def test_both_sides_run_from_one_recorded_path(bench, tmp_path, monkeypatch):
    """Every run of either side is made from the one staging path, which
    holds that side's files at the time and is recorded in the report."""
    root = tmp_path / "root"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "op_p50_s", "unit": "s", "better": "lower"}]}')
    trees = {"parent": tmp_path / "p", "change": tmp_path / "a" / "longer" / "change"}
    for side, tree in trees.items():
        tree.mkdir(parents=True)
        (tree / "side.txt").write_text(side)
    runs = []

    def run_once(tree, workload, seed, seconds):
        side = (tree / "side.txt").read_text()
        runs.append((tree, side))
        return run(0.9 if side == "change" else 1.0), {"python": "3"}

    monkeypatch.setattr(bench, "ROOT", root)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main([str(trees["parent"]), str(trees["change"]), "--workload", "w",
                       "--seed", "1", "--pairs", "3", "--seconds", "1", "--label", "t"]) == 0
    assert [side for _, side in runs] == ["parent", "change", "change", "parent",
                                          "parent", "change"]
    assert len({tree for tree, _ in runs}) == 1
    report = json.loads((root / "BENCH_t.json").read_text())["workloads"]["w"]
    assert report["staged_at"] == str(runs[0][0])
    assert not runs[0][0].exists()   # the staging directory is removed at the end
    assert report["metrics"]["op_p50_s"]["change_better_pairs"] == 3
