"""tools/bench_pairs.py's summary: the spread of a side's runs and the gain
rule, which needs the change to win nine pairs in ten by more than the
parent's IQR without failing more ops or reporting a run not correct."""

import importlib.util
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
