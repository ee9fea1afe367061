"""Output gate: compare two source trees' outputs on the benchmark's inputs.

    python tools/gate.py OLD_TREE NEW_TREE [--seeds WORKLOAD:A-B ...]

OLD_TREE and NEW_TREE are checkouts of this repository; each supplies only
its ``src/``. The inputs come from this checkout's perfbench/workloads.py:
round 0 of ``rank_paper`` seeds 1-8 and 101-108 and of ``rank_5k`` seeds
1-4 (four ``rank`` ops each, 80 datasets in all), and of
``cohort_pipeline`` seeds 1-8 (each the chain of synth, ingest, describe,
two validates, analyze and plot). ``--seeds WORKLOAD:A-B`` adds seeds A to
B of a workload. Each tree runs every op in one fresh process through
``curvemine.cli.main``, and each op's own check is applied; a check that
raises anything fails its op.

Only each stdout's ``result`` is compared, since the envelope holds paths
and hashes; paths inside a result are taken relative to the round's
directory. A ``rank`` result is compared entry by entry: the report lists
every changed entry with its changed fields old -> new, every gold-standard
and order change, and counts of entries whose RSS (its family's best start)
got worse, better or stayed within 1e-9 relative. Every other result,
whether each op fails, and every file a round leaves (the parse cache's
directories aside) are compared byte for byte; the report lists each that
differs or exists on one side only. It also lists every op that fails.
The last two lines read "N changed entries of M" and "N differences in M
outputs". Exit status 1 if any RSS rose beyond 1e-9 relative or a finite
RSS became non-finite, if any output differs, or if an op fails on
NEW_TREE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GATE = {"rank_paper": [*range(1, 9), *range(101, 109)], "rank_5k": [*range(1, 5)],
        "cohort_pipeline": [*range(1, 9)]}
RTOL = 1e-9
CACHE_DIR = "__curvemine_cache__"


def _result(stdout: str):
    """The stdout's ``result``, or None if it holds no JSON (plot prints nothing)."""
    try:
        return json.loads(stdout)["result"]
    except ValueError:
        return None


def collect(tree: Path, datasets: list[tuple[str, int]]) -> dict:
    """Run round 0 of each (workload, seed) with ``tree``'s curvemine. Per
    output key, "W seed S op J COMMAND" maps to [why it failed (exit or
    check) or None, its stdout's ``result`` or None] and "W seed S file
    NAME" to the file's SHA-256."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import workloads
    from curvemine import cli
    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"curvemine imported from {cli.__file__}, not {tree / 'src'}")
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, seed in datasets:
            wid, build_round = workloads.WORKLOADS[name]
            workdir = Path(tmp) / name / str(seed)
            for j, op in enumerate(build_round(workdir, (seed, wid, 0))):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    try:
                        code = cli.main(op.argv)
                    except (Exception, SystemExit) as exc:  # a crash or a usage error fails the op
                        code = f"raised {type(exc).__name__}: {exc}"
                failure = None if code == 0 else f"exit {code}"
                if failure is None:
                    try:
                        op.check(out.getvalue())
                    except Exception as exc:  # a check that crashes fails the op too
                        failure = (str(exc) if isinstance(exc, workloads.CheckFailed)
                                   else f"check raised {type(exc).__name__}: {exc}")
                text = out.getvalue().replace(str(workdir) + os.sep, "")
                result = _result(text) if code == 0 else None
                outputs[f"{name} seed {seed} op {j} {op.command}"] = [failure, result]
            for path in sorted(workdir.rglob("*")):
                if path.is_file() and CACHE_DIR not in path.parts:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    outputs[f"{name} seed {seed} file {path.relative_to(workdir)}"] = digest
            shutil.rmtree(workdir)
    return outputs


def run_tree(tree: Path, datasets: list[tuple[str, int]]) -> dict:
    """``collect`` in a fresh interpreter with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(tree), json.dumps(datasets)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: collecting failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _is_rank(record) -> bool:
    return isinstance(record, list) and isinstance(record[1], dict) and "entries" in record[1]


def _rss_change(old: float, new: float) -> str:
    """'worse', 'better', 'lost' (finite became non-finite) or 'within'."""
    if not math.isfinite(new):
        return "lost" if math.isfinite(old) else "within"
    if not math.isfinite(old) or new < old * (1 - RTOL):
        return "better"
    return "worse" if new > old * (1 + RTOL) else "within"


def _compare_rank(key: str, old: dict, new: dict, counts: dict) -> int:
    """Print one rank op's changes and add its entries' RSS moves to
    ``counts``; return the number of changed entries."""
    was = {e["spec_name"]: e for e in old["entries"]}
    now = {e["spec_name"]: e for e in new["entries"]}
    changed = 0
    for name, e in was.items():
        f = now.get(name, {})
        counts[_rss_change(e["rss"], f.get("rss", math.nan))] += 1
        diff = [f"{k} {e[k]!r} -> {f.get(k)!r}" for k in e
                if json.dumps(e[k]) != json.dumps(f.get(k))]  # NaN equals NaN
        if diff:
            changed += 1
            print(f"{key}: {name}: " + "; ".join(diff))
    if old["gold_standard"] != new["gold_standard"]:
        print(f"{key}: gold standard {old['gold_standard']} -> {new['gold_standard']}")
    moved = [i for i, (p, q) in enumerate(zip(was, now)) if p != q]
    if moved:
        i, j = moved[0], moved[-1] + 1
        ranks = [[f"{n} (r2 {side[n]['r2']!r})" for n in list(side)[i:j]]
                 for side in (was, now)]
        print(f"{key}: order at ranks {i + 1}-{j}: {ranks[0]} -> {ranks[1]}")
    return changed


def compare(old: dict, new: dict) -> int:
    """Print the report; return the exit status."""
    counts = dict.fromkeys(("worse", "better", "within", "lost"), 0)
    changed = differences = failures = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        for side, r in (("old", a), ("new", b)):
            if isinstance(r, list) and r[0]:
                print(f"{key}: {side} fails: {r[0]}")
                failures += side == "new"
        if _is_rank(a) and _is_rank(b):
            changed += _compare_rank(key, a[1], b[1], counts)
            a, b = [a[0], None], [b[0], None]  # beyond its entries, only whether it fails
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            differences += 1
            if a is None or b is None:
                print(f"{key}: only on the {'new' if a is None else 'old'} side")
            elif isinstance(a, list):
                fields = sorted(k for k in (a[1] or {}).keys() | (b[1] or {}).keys()
                                if json.dumps((a[1] or {}).get(k)) != json.dumps((b[1] or {}).get(k)))
                print(f"{key}: " + (f"result differs in {', '.join(fields)}" if fields
                                    else "failure differs"))
            else:
                print(f"{key}: bytes differ")
    print(f"RSS against old: {counts['worse']} worse, {counts['better']} better, "
          f"{counts['within']} within {RTOL:g}, {counts['lost']} became non-finite")
    print(f"{changed} changed entries of {sum(counts.values())}")
    print(f"{differences} differences in {len(old.keys() | new.keys())} outputs")
    return int(bool(counts["worse"] or counts["lost"] or differences or failures))


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
    datasets = list(dict.fromkeys([(name, s) for name, seeds in GATE.items() for s in seeds]
                                  + [(name, s) for name, seeds in args.seeds for s in seeds]))
    old, new = (run_tree(t.resolve(), datasets) for t in (args.old, args.new))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
