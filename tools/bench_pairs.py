"""Paired benchmark runs of two checkouts, summarized into BENCH_<LABEL>.json.

    python tools/bench_pairs.py PARENT CHANGE --workload cohort_pipeline \\
        --seed 71 --pairs 10 --seconds 30 --label pr29

PARENT and CHANGE are checkouts of this repository. Each pair runs
``perfbench/run.py --trace 0`` once in each, in a fresh interpreter from
the checkout's root; the side that runs first alternates from pair to
pair, starting with PARENT. Before every run the checkout's
``__pycache__`` directories and ``perfbench/out`` are removed, so that
both sides compile their bytecode the same way. ``--workload`` may be
given more than once; each workload gets its own pairs.

The summary goes to BENCH_<LABEL>.json at the root of this checkout. An
existing file keeps the workloads this call does not run. Per workload it
holds the seed, the run length, each side's git commit and ``src`` tree,
the Python and numpy versions and CPU count the runs reported, every
pair's end-to-end metrics and op counts, each side's ops attempted and
failed over all its runs and whether every run was correct, and per metric
of BENCHMARK.json: each side's median, quartiles and IQR, in how many pairs
the change was better and worse, and whether the change meets the gain
rule (better in at least nine tenths of the pairs, medians apart by more
than the parent's IQR, no more failed ops than the parent and every run
of the change correct). Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git_ids(tree: Path) -> dict:
    """The commit checked out in tree, the hash of its ``src`` tree and
    whether ``src`` differs from that commit; None where git cannot tell."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    return {"commit": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
            "src_dirty": bool(git("status", "--porcelain", "--", "src"))}


def clean(tree: Path) -> None:
    """Remove the bytecode caches and the benchmark's output of tree."""
    for cache in [p for p in tree.rglob("__pycache__") if ".git" not in p.parts]:
        shutil.rmtree(cache, ignore_errors=True)
    shutil.rmtree(tree / "perfbench" / "out", ignore_errors=True)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One benchmark run in tree: its summary line (metric values by name,
    ops attempted and failed, correct) and its ``env:`` line."""
    clean(tree)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run failed ({proc.returncode}):\n{proc.stderr}")
    last = json.loads(lines[-1])
    env = next((json.loads(line[len("env: "):]) for line in lines
                if line.startswith("env: ")), {})
    summary = {name: m["value"] for name, m in last["metrics"].items()}
    summary.update(attempted=last["attempted"], failed=last["failed"],
                   correct=last["correct"])
    return summary, env


def spread(values: list[float]) -> dict:
    """Median, quartiles (inclusive method) and IQR of values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def ops(pairs: list[dict]) -> dict:
    """Per side: the ops attempted and failed in all its runs, and whether
    every run was correct."""
    return {s: {"attempted": sum(p[s]["attempted"] for p in pairs),
                "failed": sum(p[s]["failed"] for p in pairs),
                "correct": all(p[s]["correct"] for p in pairs)} for s in SIDES}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread, the pairs the change was better and
    worse in (ties count for neither) and whether it meets the gain rule,
    which a change that fails more ops than the parent, or has a run that
    is not correct, never does."""
    totals = ops(pairs)
    sound = (totals["change"]["correct"]
             and totals["change"]["failed"] <= totals["parent"]["failed"])
    out = {}
    for m in metrics:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        sides = {s: spread([p[s][name] for p in pairs]) for s in SIDES}
        deltas = [sign * (p["change"][name] - p["parent"][name]) for p in pairs]
        better = sum(d < 0 for d in deltas)
        apart = sign * (sides["change"]["median"] - sides["parent"]["median"])
        out[name] = {
            "unit": m["unit"], "better": m["better"], **sides,
            "change_better_pairs": better, "change_worse_pairs": sum(d > 0 for d in deltas),
            "median_change_ratio": (sides["change"]["median"] / sides["parent"]["median"] - 1
                                    if sides["parent"]["median"] else None),
            "meets_gain_rule": (sound and 10 * better >= 9 * len(pairs)
                                and -apart > sides["parent"]["iqr"]),
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="the checkout to compare against")
    p.add_argument("change", type=Path, help="the checkout under test")
    p.add_argument("--workload", action="append", required=True,
                   help="a perfbench workload; may be repeated")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    out_file = ROOT / f"BENCH_{args.label}.json"
    report = (json.loads(out_file.read_text(encoding="utf-8")) if out_file.exists()
              else {"label": args.label, "workloads": {}})
    for workload in args.workload:
        pairs, envs = [], []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side], env = run_once(trees[side], workload, args.seed, args.seconds)
                envs.append(env)
            pairs.append(pair)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{m['name']} {pair['parent'][m['name']]:.6g} -> {pair['change'][m['name']]:.6g}"
                for m in metrics), file=sys.stderr)
        report["workloads"][workload] = {
            "seed": args.seed, "seconds": args.seconds,
            "sides": {s: git_ids(t) for s, t in trees.items()},
            "environment": {k: sorted({str(e.get(k)) for e in envs})
                            for k in ("python", "numpy", "nproc", "cpu", "platform")},
            "ops": ops(pairs), "metrics": summarize(pairs, metrics), "pairs": pairs}
        out_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
