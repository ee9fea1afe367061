"""curvemine benchmark: drives the public CLI in-process and checks every op.

    python3 perfbench/run.py --workload rank_paper --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One process, one caller, closed loop: each
op is ``curvemine.cli.main(argv)`` on seeded input files, started only after
the previous op returned and its output was checked. Workloads, metrics and
the layer-to-metric map are described in perfbench/NOTES.md.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported; with ``--trace 1`` the span recorder in ``spans.py`` wraps the
package and the per-layer metrics are reported over the ops of the first
``TRACE_ROUNDS`` rounds, a fixed set of ops however fast they run. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Raw per-op timings and the environment go to perfbench/out/.
"""

from __future__ import annotations

import os

# One process with no extra threads: BLAS must not start workers of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
KERNEL_SHARE = 0.03     # of each op's time, spent timing the reference kernel
TRACE_ROUNDS = 2        # rounds whose ops the per-layer metrics cover
OVERHEAD_REPEATS = 5    # untraced/traced pairs of op 0 for trace.overhead_ratio

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import workloads  # noqa: E402
from kernel import NOMINAL_S, reference_kernel  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def pin_to_one_cpu() -> int | None:
    """Run this process, and the children it starts, on one CPU.

    The CPUs of a shared guest slow down independently. On one CPU, the
    reference kernel sees the same contention as the op it sits beside.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program():
    """Import curvemine from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        modules = {layer: importlib.import_module(f"curvemine.{layer}")
                   for layer in spans.LAYERS}
    except ImportError as exc:
        sys.exit(f"error: cannot import curvemine from {SRC}: {exc}")
    origin = Path(modules["cli"].__file__).resolve().parent.parent
    if origin != SRC.resolve():
        sys.exit(f"error: curvemine imported from {origin}, not {SRC}")
    return modules


def kernel_gap(op_seconds: float) -> list[float]:
    """Time the reference kernel for about KERNEL_SHARE of op_seconds (>= 2 runs)."""
    n = max(2, round(KERNEL_SHARE * op_seconds / NOMINAL_S))
    return [reference_kernel() for _ in range(n)]


def normalized(record: dict) -> float:
    """Seconds at reference speed: raw seconds scaled by the kernel beside them."""
    return record["seconds"] * NOMINAL_S / record["kernel_s"]


def measure_setup() -> list[dict]:
    """Time `python -m curvemine.cli catalog` in fresh children, with the
    reference kernel timed before and after each child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    before = kernel_gap(0.0)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "curvemine.cli", "catalog"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"error: catalog exited {proc.returncode}: {proc.stderr.strip()}")
        models = json.loads(proc.stdout)["result"]["models"]
        if len(models) != workloads.CATALOG_SIZE:
            sys.exit(f"error: catalog lists {len(models)} models, "
                     f"want {workloads.CATALOG_SIZE}")
        after = kernel_gap(0.0)
        runs.append({"seconds": seconds, "kernel_s": statistics.median(before + after)})
        before = after
    return runs


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    return int(getattr(handle, sym)())
    except OSError:
        pass
    return None


def execute(cli, recorder, op, index: int, traced: bool) -> tuple[dict, str]:
    """Run one op; return its record and stdout. Only cli.main is timed."""
    out, err = io.StringIO(), io.StringIO()
    reason = None
    gc.collect()  # start each op from a collected heap, as a fresh CLI process does
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        if traced:
            recorder.open_op(index, op.command, t0)
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an op that crashes is a failed op
            code, reason = "raised", f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if traced:
            recorder.close_op(t1)
    if reason is None and code != 0:
        lines = err.getvalue().strip().splitlines()
        reason = f"exit {code}: {lines[0] if lines else ''}"
    stdout = out.getvalue()
    if reason is None:
        try:
            op.check(stdout)
        except CheckFailed as exc:
            reason = str(exc)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
    record = {"op": index, "command": op.command, "seconds": t1 - t0,
              "points": op.points, "ok": reason is None,
              "reason": None if reason is None else f"{op.command}: {reason}"}
    return record, stdout


def trace_overhead(cli, recorder, op, problems: list[str]) -> dict:
    """Normalized times of ``op`` untraced and traced, and the ratio of medians.

    Untraced and traced runs alternate, each with the kernel timed just
    before and after it. Traced repeats get op ids below -1, which no
    metric covers.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    for k in range(OVERHEAD_REPEATS):
        for traced in (False, True):
            if traced:
                recorder.install()
            before = kernel_gap(0.0)
            record, _ = execute(cli, recorder, op, -2 - k, traced)
            record["kernel_s"] = statistics.median(before + kernel_gap(record["seconds"]))
            if traced:
                recorder.uninstall()
            if not record["ok"]:
                problems.append(f"overhead repeat {record['reason']}")
            times[traced].append(normalized(record))
    return {"untraced_s": times[False], "traced_s": times[True],
            "ratio": statistics.median(times[True]) / statistics.median(times[False])}


def run(args) -> int:
    wid, build_round = WORKLOADS[args.workload]
    cpu = pin_to_one_cpu()
    modules = import_program()
    recorder = spans.Recorder(modules) if args.trace else None
    setup = measure_setup()

    workdir = OUT / "work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    rounds = {0: build_round(workdir / "round", (args.seed, wid, 0))}
    cli = modules["cli"]
    problems: list[str] = []

    # Warm-up: op 0 once, untimed. The timed loop repeats it and must print
    # byte-identical output. A traced run then times op 0 untraced and
    # traced, for the tracing overhead ratio.
    first = rounds[0][0]
    warm, warm_out = execute(cli, recorder, first, -1, traced=False)
    if not warm["ok"]:
        problems.append(f"warm-up {warm['reason']}")
    overhead = None
    if args.trace:
        overhead = trace_overhead(cli, recorder, first, problems)
        recorder.install()

    timed: list[dict] = []
    gap = kernel_gap(warm["seconds"])
    t_start = time.perf_counter()
    last_round_s = 0.0
    r = 0
    # Whole rounds only, so each run sees the same op mix. A round starts
    # while at least half of the previous round's duration is left in the
    # window, so a run ends within half a round of --seconds. A traced run
    # always completes the rounds its metrics cover.
    min_rounds = TRACE_ROUNDS if args.trace else 1
    while r < min_rounds or time.perf_counter() - t_start + last_round_s / 2 <= args.seconds:
        t_round = time.perf_counter()
        ops = rounds.pop(r, None) or build_round(workdir / "round", (args.seed, wid, r))
        for op in ops:
            record, stdout = execute(cli, recorder, op, len(timed), traced=bool(args.trace))
            # The kernel runs just before and just after the op.
            after = kernel_gap(record["seconds"])
            record["round"] = r
            record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            record["kernel_s"] = statistics.median(gap + after)
            gap = after
            timed.append(record)
            if len(timed) == 1 and stdout != warm_out:
                problems.append("first op repeated: output not byte-identical")
        last_round_s = time.perf_counter() - t_round
        r += 1
    window_s = time.perf_counter() - t_start
    if args.trace:
        recorder.uninstall()

    done = [t for t in timed if t["ok"]]
    failed = [t for t in timed if not t["ok"]]
    if not done:
        problems.append("no op completed")
    op_times = [normalized(t) for t in done] or [float("nan")]
    raw_times = [t["seconds"] for t in done] or [float("nan")]
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__, "nproc": os.cpu_count(),
        "blas_threads": blas_threads(), "cpu": cpu, "platform": platform.platform(),
    }
    saved = {"env": env, "kernel_nominal_s": NOMINAL_S, "setup_runs": setup,
             "window_s": window_s, "rounds": r,
             "warm_up": warm, "ops": timed, "problems": problems}
    notes = []

    if args.trace:
        problems.extend(recorder.verify())
        # The ops of the first TRACE_ROUNDS rounds, each scaled to reference
        # speed like the end-to-end times.
        traced = {t["op"]: NOMINAL_S / t["kernel_s"]
                  for t in timed if t["round"] < TRACE_ROUNDS}
        metrics = recorder.metrics(traced)
        metrics["trace.overhead_ratio"] = overhead["ratio"]
        saved["overhead"] = overhead
        per_op = recorder.layer_self(traced)
        saved["traced_ops"] = sorted(traced)
        saved["layer_self_per_op"] = [per_op[o] for o in sorted(traced)]
        recorder.save(OUT / f"spans-{args.workload}.npz")
        shares = ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'] / metrics['trace.op_s']:.1%}"
            for layer in spans.LAYERS)
        notes.append(f"per-layer metrics cover ops {min(traced)}-{max(traced)} "
                     f"(rounds 0-{TRACE_ROUNDS - 1})")
        notes.append(f"layer self-time shares: {shares}")
        exact = {k: metrics[k] for k in spans.EXACT_COUNTS}
        notes.append(f"exact counts: {json.dumps(exact)}")
        report = {k: (v, spans.unit_of(k)) for k, v in metrics.items()}
    else:
        report = {
            "setup_s": (statistics.median(map(normalized, setup)), "s"),
            "op_p50_s": (statistics.median(op_times), "s"),
            "points_per_s": (sum(t["points"] for t in done) / sum(op_times)
                             if done else float("nan"), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        # The tail is the highest percentile with at least ten ops beyond it.
        if len(done) >= 11:
            pct = 100.0 * (1.0 - 10.0 / len(done))
            saved["op_tail_s"] = {"percentile": pct, "ops": len(done),
                                  "value": float(np.percentile(op_times, pct))}
            notes.append(f"op_tail_s: {saved['op_tail_s']['value']!r} s "
                         f"(p{pct:.1f} of {len(done)} ops)")
        else:
            notes.append(f"op_tail_s: not reported: {len(done)} ops, "
                         f"a tail needs at least 11")
        saved["raw"] = {
            "setup_s": statistics.median(s["seconds"] for s in setup),
            "op_p50_s": statistics.median(raw_times),
            "points_per_s": sum(t["points"] for t in done) / sum(raw_times),
            "kernel_s": statistics.median(t["kernel_s"] for t in timed),
        }
        notes.append("raw wall figures: " + ", ".join(
            f"{k} {v!r}" for k, v in saved["raw"].items()))
        saved["op_failed_ratio"] = len(failed) / len(timed)
        notes.append(f"op_failed_ratio: {saved['op_failed_ratio']!r} "
                     f"({len(failed)}/{len(timed)})")

    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"ops: {len(timed)} attempted, {len(done)} completed, {r} rounds "
          f"in {window_s:.1f} s")
    for t in failed:
        print(f"failed op {t['op']} (round {t['round']}): {t['reason']}")
    for p in problems:
        print(f"check failed: {p}")
    for line in notes:
        print(line)
    for name, (value, unit) in report.items():
        print(f"{name}: {value!r} {unit}")

    saved["metrics"] = {k: v for k, (v, _) in report.items()}
    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(saved, indent=1, default=str) + "\n",
                           encoding="utf-8")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(timed),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
