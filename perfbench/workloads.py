"""Seeded inputs, CLI ops and output checks for the benchmark workloads.

A workload is a sequence of rounds. A round is a fixed mix of ops, so every
run sees the same mix whatever its length:

- ``rank_paper`` / ``rank_5k``: four ``rank`` ops, one per generating
  family in ``GEN_FAMILIES``, each on a fresh dataset;
- ``cohort_pipeline``: one chain of seven commands on a fresh summary table.

Every input is a pure function of (workload, seed, round, op). An op's
check reads the op's stdout and files and raises ``CheckFailed`` with a
reason when the output is wrong.
"""

from __future__ import annotations

import csv
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CATALOG_SIZE = 31
# Peaked catalog families that are finite and positive on all of x >= -1,
# so every pre-birth age has a defined generating value.
GEN_FAMILIES = ("gaussian_peak", "gaussian_peak_offset", "lorentzian_peak",
                "sech2_peak")
N_STUDIES = 8
THOUSANDS_STUDIES = 3        # a third of the studies report in thousands
PRE_BIRTH_SHARE = 0.08       # ages in [-0.75, 0)
# synth writes an empty unit label; the table maps it, and "thousand", to count.
UNIT_TABLE = "thousand = count,1000\n = count\n"
RANK_FLAGS = ["--nonnegative", "--domain=-1:55", "--starts", "5"]
COHORT_MODEL = "poly3"
Z_ONE_SIDED_95 = 1.6448536269514722


class CheckFailed(Exception):
    """An op's output is wrong; the message is the reason."""


@dataclass
class Op:
    command: str
    argv: list[str]
    points: int                      # input points the op reads or draws
    check: Callable[[str], None]     # called with the op's stdout


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def peak_curve(family: str, params, x: np.ndarray) -> np.ndarray:
    """Generating curves, written here so the oracle does not use the program."""
    if family == "gaussian_peak_offset":
        return peak_curve("gaussian_peak", params[:3], x) + params[3]
    a, c, w = params
    u = (x - c) / w
    if family == "gaussian_peak":
        return a * np.exp(-0.5 * u * u)
    if family == "lorentzian_peak":
        return a / (1.0 + u * u)
    if family == "sech2_peak":
        return a / np.cosh(u) ** 2
    raise ValueError(family)


# --- rank workloads ----------------------------------------------------------

def _rank_ages(rng, n: int, grid: bool) -> np.ndarray:
    n_pre = round(PRE_BIRTH_SHARE * n)
    if grid:   # many points per age, as synth produces
        pre = rng.choice(np.array([-0.75, -0.5, -0.25]), n_pre)
        post = rng.choice(np.linspace(0.0, 51.0, 103), n - n_pre)
    else:
        pre = rng.uniform(-0.75, 0.0, n_pre)
        post = rng.uniform(0.0, 51.0, n - n_pre)
    return rng.permutation(np.concatenate([pre, post]))


def rank_op(workdir: Path, rng, family: str, n: int, grid: bool) -> Op:
    """One rank op on a fresh dataset drawn from ``family`` with lognormal noise."""
    amp = 10.0 ** rng.uniform(4.0, 6.0)
    params = [amp, rng.uniform(8.0, 25.0), rng.uniform(4.0, 12.0)]
    if family == "gaussian_peak_offset":
        params.append(amp * rng.uniform(0.02, 0.1))
    x = _rank_ages(rng, n, grid)
    y = peak_curve(family, params, x) * np.exp(rng.normal(0.0, 0.3, n))
    study = rng.integers(0, N_STUDIES, n)
    thousands = study < THOUSANDS_STUDIES
    reported = np.where(thousands, y / 1000.0, y)

    data = workdir / "points.csv"
    with open(data, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["study_id", "x", "y", "unit", "assay_id", "weight"])
        for s, xi, yi, k in zip(study.tolist(), x.tolist(), reported.tolist(),
                                thousands.tolist()):
            w.writerow([f"study{s + 1}", repr(xi), repr(yi),
                        "thousand" if k else "count", "", ""])
    units = workdir / "units.txt"
    units.write_text(UNIT_TABLE, encoding="utf-8")
    # The values the program sees after unit normalization (y * factor).
    seen = np.where(thousands, reported * 1000.0, reported)
    rss_true = float(np.sum((seen - peak_curve(family, params, x)) ** 2))

    def check(stdout: str) -> None:
        entries = json.loads(stdout)["result"]["entries"]
        names = [e["spec_name"] for e in entries]
        _require(len(names) == CATALOG_SIZE and len(set(names)) == CATALOG_SIZE,
                 f"rank: {len(set(names))} distinct of {len(names)} entries, "
                 f"want each of {CATALOG_SIZE} families once")
        keys = [_rank_key(e) for e in entries]
        _require(keys == sorted(keys), "rank: entries not in documented order")
        gen = entries[names.index(family)]
        _require(gen["rss"] <= rss_true * (1.0 + 1e-6),
                 f"rank: {family} rss {gen['rss']!r} above the rss "
                 f"{rss_true!r} at its generating parameters")

    seed = int(rng.integers(0, 2**31))
    argv = ["rank", "--data", str(data), "--units", str(units), *RANK_FLAGS,
            "--seed", str(seed)]
    return Op("rank", argv, n, check)


def _rank_key(e: dict):
    r2 = e["r2"] if math.isfinite(e["r2"]) else -math.inf
    ok = e["plausible"] and e["converged"] and math.isfinite(e["r2"])
    return (not ok, -r2, len(e["params"]), e["spec_name"])


def rank_round(workdir: Path, key: tuple, n: int, grid: bool) -> list[Op]:
    ops = []
    for j, family in enumerate(GEN_FAMILIES):
        d = workdir / f"op{j}"
        d.mkdir(parents=True, exist_ok=True)
        ops.append(rank_op(d, _rng(*key, j), family, n, grid))
    return ops


# --- cohort pipeline ---------------------------------------------------------

def _summary_table(rng) -> tuple[str, int]:
    """About 50k subjects over 120 ages; mostly lognormal rows, 1 in 8 normal.

    Normal rows use a coefficient of variation of 0.08-0.15, where a
    negative draw (which aborts synth) has probability below 1e-10 per draw.
    A third of the lognormal rows publish an upper 95% prediction limit
    instead of an sd.
    """
    ages = np.concatenate([[-0.75, -0.5, -0.25], np.linspace(0.0, 51.0, 117)])
    amp = 10.0 ** rng.uniform(4.5, 5.5)
    centre, width = rng.uniform(10.0, 25.0), rng.uniform(6.0, 12.0)
    means = peak_curve("gaussian_peak_offset",
                       [amp, centre, width, 0.02 * amp], ages)
    ns = rng.integers(350, 490, ages.size)
    lines = ["x,n,mean,sd,upper_pl95,family"]
    for i, (x, m, k) in enumerate(zip(ages.tolist(), means.tolist(), ns.tolist())):
        if i % 8 == 3:
            lines.append(f"{x!r},{k},{m!r},{m * rng.uniform(0.08, 0.15)!r},,normal")
            continue
        sd = m * rng.uniform(0.4, 0.9)
        if i % 3 == 0:
            lines.append(f"{x!r},{k},{m!r},,{m + Z_ONE_SIDED_95 * sd!r},lognormal")
        else:
            lines.append(f"{x!r},{k},{m!r},{sd!r},,lognormal")
    return "\n".join(lines) + "\n", int(ns.sum())


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _check_agreement(result: dict, n_train: int | None, n_total: int) -> None:
    v = result["validation"]
    _require(v["n_train"] + v["n_test"] == n_total,
             f"validate: n_train {v['n_train']} + n_test {v['n_test']} != {n_total}")
    if n_train is not None:
        _require(v["n_train"] == n_train, f"validate: n_train {v['n_train']} != {n_train}")
    a = v["agreement"]
    _require(a is not None and 0.0 < a <= 1.0, f"validate: agreement {a!r} not in (0, 1]")


def cohort_round(workdir: Path, key: tuple) -> list[Op]:
    rng = _rng(*key)
    workdir.mkdir(parents=True, exist_ok=True)
    text, n = _summary_table(rng)
    summary, units = workdir / "summary.csv", workdir / "units.txt"
    summary.write_text(text, encoding="utf-8")
    units.write_text(UNIT_TABLE, encoding="utf-8")
    reps = workdir / "replicates"
    rep0, rep1 = reps / "replicate_000.csv", reps / "replicate_001.csv"
    norm, band, svg = workdir / "normalized.csv", workdir / "band.csv", workdir / "figure.svg"
    seeds = [str(s) for s in rng.integers(0, 2**31, 4)]
    fit = ["--model", COHORT_MODEL]

    def check_synth(out):
        written = json.loads(out)["result"]["replicates"]
        _require(len(written) == 2, f"synth: {len(written)} replicates, want 2")
        for rep in (rep0, rep1):
            rows = _count_rows(rep)
            _require(rows == n, f"synth: {rep.name} has {rows} rows, want {n}")
        _require(all(r["n_points"] == n for r in written), "synth: n_points != sum of n")

    def check_ingest(out):
        got = json.loads(out)["result"]["n_points"]
        _require(got == n, f"ingest: {got} points, want {n}")
        _require(_count_rows(norm) == n, "ingest: written CSV row count")

    def check_describe(out):
        y = json.loads(out)["result"]["y"]
        _require(y["count"] == n, f"describe: count {y['count']}, want {n}")
        _require(y["min"] <= y["median"] <= y["max"], "describe: order statistics")

    def check_band(out):
        json.loads(out)
        with open(band, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) > 0, "analyze: empty band CSV")
        for r in rows:
            lo, f, up = float(r["lower"]), float(r["fit"]), float(r["upper"])
            _require(lo <= f <= up, f"analyze: band row x={r['x']} not lower <= fit <= upper")

    def check_svg(out):
        markers = 0
        try:
            for _, el in ET.iterparse(svg):
                if el.tag.endswith("circle") and el.get("class") == "datapoint":
                    markers += 1
                el.clear()
        except ET.ParseError as exc:
            raise CheckFailed(f"plot: SVG is not well-formed XML: {exc}") from None
        _require(markers == n, f"plot: {markers} markers, want {n}")

    return [
        Op("synth", ["synth", "--summary", str(summary), "--replicates", "2",
                     "--out-dir", str(reps), "--seed", seeds[0]], 2 * n, check_synth),
        Op("ingest", ["ingest", "--data", str(rep0), "--units", str(units),
                      "--out", str(norm)], n, check_ingest),
        Op("describe", ["describe", "--data", str(norm)], n, check_describe),
        Op("validate", ["validate", "--data", str(norm), *fit, "--stratify-bins", "10",
                        "--seed", seeds[1]], n,
           lambda out: _check_agreement(json.loads(out)["result"], None, n)),
        Op("validate", ["validate", "--train", str(rep0), "--test", str(rep1), *fit,
                        "--seed", seeds[2]], 2 * n,
           lambda out: _check_agreement(json.loads(out)["result"], n, 2 * n)),
        Op("analyze", ["analyze", "--data", str(norm), *fit, "--domain=-1:55",
                       "--band-out", str(band), "--seed", seeds[3]], n, check_band),
        Op("plot", ["plot", "--data", str(norm), *fit, "--band", "--out", str(svg),
                    "--seed", seeds[3]], n, check_svg),
    ]


# Workload name -> (stable id mixed into every seed, round builder).
WORKLOADS = {
    "rank_paper": (1, lambda wd, key: rank_round(wd, key, 330, grid=False)),
    "rank_5k": (2, lambda wd, key: rank_round(wd, key, 5_000, grid=True)),
    "cohort_pipeline": (3, cohort_round),
}
