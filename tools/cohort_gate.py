"""Cohort byte-identity gate: compare two source trees' cohort chains.

    python tools/cohort_gate.py OLD_TREE NEW_TREE

OLD_TREE and NEW_TREE are checkouts of this repository; each supplies only
its ``src/``. The inputs come from this checkout's perfbench/workloads.py:
round 0 of ``cohort_pipeline`` seeds 1-8, each the chain of synth, ingest,
describe, two validates, analyze and plot. Each tree runs
every op in one fresh process through ``curvemine.cli.main``, and each
op's own check is applied.

Compared are each op's stdout ``result`` and every file the round leaves
behind (replicates, normalized CSV, band CSV, SVG, and the inputs), byte
for byte. The envelope around ``result`` holds paths and hashes and is not
compared; paths inside a result are taken relative to the round's
directory, and the parse cache's directories are skipped. The report lists
every op whose result or failure differs, every file that differs or
exists on one side only, and every op that fails. The last line reads
"N differences in M outputs". Exit status 1 if N > 0 or an op fails on
NEW_TREE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "cohort_pipeline"
SEEDS = list(range(1, 9))
CACHE_DIR = "__curvemine_cache__"


def collect(tree: Path, seeds: list[int]) -> dict:
    """Run round 0 of each seed with ``tree``'s curvemine. Per output key,
    "seed S op J COMMAND" maps to [why it failed (exit or check) or None,
    its stdout's ``result`` or None] and "seed S file NAME" to the file's
    SHA-256."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import workloads
    from curvemine import cli
    if not Path(cli.__file__).resolve().is_relative_to(tree / "src"):
        raise SystemExit(f"curvemine imported from {cli.__file__}, not {tree / 'src'}")
    wid, build_round = workloads.WORKLOADS[WORKLOAD]
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            workdir = Path(tmp) / str(seed)
            for j, op in enumerate(build_round(workdir, (seed, wid, 0))):
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
                    except Exception as exc:  # a check that crashes fails the op too
                        failure = (str(exc) if isinstance(exc, workloads.CheckFailed)
                                   else f"check raised {type(exc).__name__}: {exc}")
                text = out.getvalue().replace(str(workdir) + os.sep, "")
                result = json.loads(text)["result"] if code == 0 and text else None
                outputs[f"seed {seed} op {j} {op.command}"] = [failure, result]
            for path in sorted(workdir.rglob("*")):
                if path.is_file() and CACHE_DIR not in path.parts:
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    outputs[f"seed {seed} file {path.relative_to(workdir)}"] = digest
            shutil.rmtree(workdir)
    return outputs


def run_tree(tree: Path, seeds: list[int]) -> dict:
    """``collect`` in a fresh interpreter with one BLAS thread."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, __file__, "--collect", str(tree), json.dumps(seeds)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: collecting failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(old: dict, new: dict) -> int:
    """Print the report; return the exit status."""
    differences = failures = 0
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        for side, r in (("old", a), ("new", b)):
            if isinstance(r, list) and r[0]:
                print(f"{key}: {side} fails: {r[0]}")
                failures += side == "new"
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            differences += 1
            if a is None or b is None:
                print(f"{key}: only on the {'new' if a is None else 'old'} side")
            elif isinstance(a, list):
                fields = sorted(k for k in (a[1] or {}).keys() | (b[1] or {}).keys()
                                if json.dumps((a[1] or {}).get(k)) != json.dumps((b[1] or {}).get(k)))
                print(f"{key}: result differs" + (f" in {', '.join(fields)}" if fields else ""))
            else:
                print(f"{key}: bytes differ")
    print(f"{differences} differences in {len(old.keys() | new.keys())} outputs")
    return int(bool(differences or failures))


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--collect"]:
        json.dump(collect(Path(sys.argv[2]), json.loads(sys.argv[3])), sys.stdout)
        return 0
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old", type=Path, help="the tree to compare against")
    p.add_argument("new", type=Path, help="the tree under test")
    args = p.parse_args(argv)
    old, new = (run_tree(t.resolve(), SEEDS) for t in (args.old, args.new))
    return compare(old, new)


if __name__ == "__main__":
    sys.exit(main())
