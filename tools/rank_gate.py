"""Rank quality gate: compare two source trees' rank results on fixed datasets.

    python tools/rank_gate.py OLD_TREE NEW_TREE [--seeds rank_paper:201-208 ...]

OLD_TREE and NEW_TREE are checkouts of this repository; each supplies only
its ``src/``. The inputs come from this checkout's perfbench/workloads.py:
round 0 of ``rank_paper`` seeds 1-8 and 101-108 and of ``rank_5k`` seeds
1-4, four ``rank`` ops each, 80 datasets in all; ``--seeds WORKLOAD:A-B``
adds seeds A to B of a workload. Each tree runs every op in one fresh
process through ``curvemine.cli.main``, and each op's own check is applied.

Only each stdout's ``result`` is compared, since the envelope holds paths
and hashes. The report lists every changed entry with its changed fields
old -> new, every gold-standard and order change, each op whose check fails,
and counts of entries whose RSS (its family's best start) got worse, better
or stayed within 1e-9 relative. The last line reads "N changed entries of M".
Exit status 1 if any RSS rose beyond 1e-9 relative, a finite RSS became
non-finite, or an op fails on NEW_TREE that passes on OLD_TREE.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE = {"rank_paper": [*range(1, 9), *range(101, 109)], "rank_5k": [*range(1, 5)]}
RTOL = 1e-9


def collect(tree: Path, datasets: list[tuple[str, int]]) -> list[dict]:
    """Run round 0 of each (workload, seed) with ``tree``'s curvemine; one
    record per op: its key, why it failed (exit or check) or None, and
    its stdout's ``result``."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import workloads
    from curvemine import cli
    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"curvemine imported from {cli.__file__}, not {tree / 'src'}")
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in datasets:
            wid, build_round = workloads.WORKLOADS[name]
            for j, op in enumerate(build_round(Path(tmp) / name / str(seed), (seed, wid, 0))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        code = cli.main(op.argv)
                    except Exception as exc:  # a crashing op is a failed op
                        code = f"raised {type(exc).__name__}: {exc}"
                failure = None if code == 0 else f"exit {code}"
                if failure is None:
                    try:
                        op.check(out.getvalue())
                    except workloads.CheckFailed as exc:
                        failure = str(exc)
                result = json.loads(out.getvalue())["result"] if code == 0 else None
                records.append({"key": [name, seed, j], "failure": failure,
                                "result": result})
    return records


def run_tree(tree: Path, datasets: list[tuple[str, int]]) -> dict:
    """``collect`` in a fresh interpreter with one BLAS thread, keyed by op."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(tree), json.dumps(datasets)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: collecting failed:\n{proc.stderr}")
    return {tuple(r["key"]): r for r in json.loads(proc.stdout)}


def _rss_change(old: float, new: float) -> str:
    """'worse', 'better', 'lost' (finite became non-finite) or 'within'."""
    if not math.isfinite(new):
        return "lost" if math.isfinite(old) else "within"
    if not math.isfinite(old) or new < old * (1 - RTOL):
        return "better"
    return "worse" if new > old * (1 + RTOL) else "within"


def compare(old: dict, new: dict) -> int:
    """Print the report; return the exit status."""
    counts = dict.fromkeys(("worse", "better", "within", "lost"), 0)
    changed = total = regressions = 0
    for key in old:
        a, b = old[key], new[key]
        label = "{} seed {} op {}".format(*key)
        if b["failure"] and not a["failure"]:
            regressions += 1
        for side, r in (("old", a), ("new", b)):
            if r["failure"]:
                print(f"{label}: {side} fails: {r['failure']}")
        if a["result"] is None or b["result"] is None:
            continue
        was = {e["spec_name"]: e for e in a["result"]["entries"]}
        now = {e["spec_name"]: e for e in b["result"]["entries"]}
        for name, e in was.items():
            total += 1
            counts[_rss_change(e["rss"], now[name]["rss"])] += 1
            diff = [f"{k} {e[k]!r} -> {now[name][k]!r}" for k in e
                    if json.dumps(e[k]) != json.dumps(now[name][k])]  # NaN equals NaN
            if diff:
                changed += 1
                print(f"{label}: {name}: " + "; ".join(diff))
        if a["result"]["gold_standard"] != b["result"]["gold_standard"]:
            print(f"{label}: gold standard {a['result']['gold_standard']} -> "
                  f"{b['result']['gold_standard']}")
        moved = [i for i, (p, q) in enumerate(zip(was, now)) if p != q]
        if moved:
            i, j = moved[0], moved[-1] + 1
            ranks = [[f"{n} (r2 {side[n]['r2']!r})" for n in list(side)[i:j]]
                     for side in (was, now)]
            print(f"{label}: order at ranks {i + 1}-{j}: {ranks[0]} -> {ranks[1]}")
    print(f"RSS against old: {counts['worse']} worse, {counts['better']} better, "
          f"{counts['within']} within {RTOL:g}, {counts['lost']} became non-finite")
    print(f"{changed} changed entries of {total}")
    return int(bool(counts["worse"] or counts["lost"] or regressions))


def _seed_range(text: str) -> tuple[str, range]:
    name, _, span = text.partition(":")
    first, _, last = span.partition("-")
    if name not in GATE or not first.isdigit() or not (last or first).isdigit():
        raise argparse.ArgumentTypeError(f"want WORKLOAD:FIRST-LAST, WORKLOAD one of {sorted(GATE)}")
    return name, range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--collect"]:
        json.dump(collect(Path(sys.argv[2]), [tuple(d) for d in json.loads(sys.argv[3])]),
                  sys.stdout)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old", type=Path, help="the tree to compare against")
    p.add_argument("new", type=Path, help="the tree under test")
    p.add_argument("--seeds", type=_seed_range, action="append", default=[],
                   help="add round 0 of these seeds, e.g. rank_paper:201-208")
    args = p.parse_args(argv)
    datasets = [(name, s) for name, seeds in GATE.items() for s in seeds]
    datasets = list(dict.fromkeys(datasets + [(name, s) for name, seeds in args.seeds
                                              for s in seeds]))
    old, new = (run_tree(t.resolve(), datasets) for t in (args.old, args.new))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
