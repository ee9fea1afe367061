"""Command-line pipeline: ingest, describe, synth, fit, rank, validate, analyze, plot.

Every emitted report embeds the seed, the tool and numpy versions, and
SHA-256 digests of its input files, so two runs on identical inputs with the
same numpy are byte-identical.
Machine-readable JSON is the primary output; plain-text mirrors accompany
it where a human-readable form is useful.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analyze import (
    monthly_loss,
    peak_age,
    percent_remaining,
    prediction_band,
)
from .dataset import (
    Dataset,
    IngestError,
    UnknownUnitError,
    describe,
    ingest_csv,
    normalize_units,
    read_unit_table,
    write_csv,
)
from .fit import multi_start, rank_all
from .models import PlausibilityConfig, catalog, evaluate, get_model, spec_to_dict
from .plotting import render_svg
from .synth import (
    DEFAULT_Z_ONE_SIDED_95,
    read_summary_csv,
    replicate,
)
from .validate import compare_descriptives, holdout_validate, split

__all__ = ["main"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(command: str, args, result: dict,
            input_paths: Sequence[Path]) -> str:
    envelope = {
        "command": command,
        "version": __version__,
        "numpy": np.__version__,
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in input_paths},
        "result": result,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _load_dataset(path: Path, units: Optional[Path], skip_bad_rows: bool,
                  label: Optional[str] = None) -> Dataset:
    with open(path, encoding="utf-8") as fh:
        d = ingest_csv(fh, skip_bad_rows=skip_bad_rows,
                       label=label if label is not None else path.stem)
    if units is not None:
        with open(units, encoding="utf-8") as fh:
            d = normalize_units(d, read_unit_table(fh))
    return d


def _parse_domain(text: str) -> tuple[float, float]:
    lo_s, hi_s = text.split(":", 1)
    return float(lo_s), float(hi_s)


def _bind_domain_values(argv: Sequence[str]) -> list[str]:
    """Join ``--domain lo:hi`` into ``--domain=lo:hi``: argparse would read a
    negative value such as ``-1:55`` as an option and reject it."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--domain" and ":" in tok:
            out[-1] = f"--domain={tok}"
        else:
            out.append(tok)
    return out


# --- subcommand handlers ---------------------------------------------------

def _cmd_ingest(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(d, fh)
    result = {
        "n_points": len(d),
        "studies": [
            {"study_id": s.study_id, "n_observations": s.n_observations,
             "min_age": s.min_age, "max_age": s.max_age,
             "median_age": s.median_age}
            for s in d.studies
        ],
        "written": str(args.out) if args.out else None,
    }
    inputs = [args.data] + ([args.units] if args.units else [])
    sys.stdout.write(_report("ingest", args, result, inputs))
    return 0


def _cmd_describe(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    result = {args.axis: describe(d, axis=args.axis).as_dict()}
    inputs = [args.data] + ([args.units] if args.units else [])
    sys.stdout.write(_report("describe", args, result, inputs))
    return 0


def _cmd_synth(args) -> int:
    with open(args.summary, encoding="utf-8") as fh:
        rows = read_summary_csv(fh)
    datasets = replicate(rows, args.seed, args.replicates,
                         moment_correct=args.moment_correct, z=args.z)
    outdir = args.out_dir
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, d in enumerate(datasets):
        path = outdir / f"replicate_{i:03d}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_csv(d, fh)
        written.append({"path": str(path), "n_points": len(d)})
    result = {"replicates": written, "z": args.z,
              "moment_correct": args.moment_correct}
    sys.stdout.write(_report("synth", args, result, [args.summary]))
    return 0


def _cmd_fit(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    spec = get_model(args.model)
    result = multi_start(spec, d, n_starts=args.starts, seed=args.seed)
    inputs = [args.data] + ([args.units] if args.units else [])
    sys.stdout.write(_report("fit", args, result.as_dict(), inputs))
    return 0


def _plausibility_from_args(args) -> PlausibilityConfig:
    return PlausibilityConfig(
        domain=_parse_domain(args.domain),
        require_nonnegative=args.nonnegative,
        max_sign_changes_of_derivative=args.max_sign_changes,
    )


def _filtered_catalog(pattern: Optional[str]):
    specs = catalog()
    if pattern:
        specs = [s for s in specs
                 if pattern in s.name or pattern == s.family_class]
        if not specs:
            raise ValueError(f"catalog filter {pattern!r} matches no model")
    return specs


def _cmd_rank(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    specs = _filtered_catalog(args.catalog_filter)
    ranked = rank_all(specs, d, _plausibility_from_args(args),
                      n_starts=args.starts, seed=args.seed)
    inputs = [args.data] + ([args.units] if args.units else [])
    payload = _report("rank", args, ranked.as_dict(), inputs)
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "leaderboard.json").write_text(payload, encoding="utf-8")
        (args.out / "leaderboard.txt").write_text(
            ranked.leaderboard() + "\n", encoding="utf-8")
    sys.stdout.write(payload)
    return 0


def _cmd_validate(args) -> int:
    inputs = []
    if args.train and args.test:
        train = _load_dataset(args.train, args.units, args.skip_bad_rows, "train")
        test = _load_dataset(args.test, args.units, args.skip_bad_rows, "test")
        inputs = [args.train, args.test]
    elif args.data:
        d = _load_dataset(args.data, args.units, args.skip_bad_rows)
        train, test = split(d, args.fraction, seed=args.seed,
                            stratify_bins=args.stratify_bins)
        inputs = [args.data]
    else:
        raise ValueError("need either --train/--test or --data")
    if args.units:
        inputs.append(args.units)
    spec = get_model(args.model)
    fitted = multi_start(spec, train, n_starts=args.starts, seed=args.seed)
    report = holdout_validate(spec, fitted.params, train, test)
    similarity = compare_descriptives(train, test, tolerance=args.tolerance)
    result = {
        "model": spec.name,
        "fit": fitted.as_dict(),
        "validation": report.as_dict(),
        "similarity": similarity.as_dict(),
    }
    sys.stdout.write(_report("validate", args, result, inputs))
    return 0


def _cmd_analyze(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    spec = get_model(args.model)
    fitted = multi_start(spec, d, n_starts=args.starts, seed=args.seed)
    domain = _parse_domain(args.domain)
    loss_peak = peak_age(
        lambda t: monthly_loss(spec, fitted.params, t), domain)
    value_peak = peak_age(
        lambda t: float(evaluate(spec, fitted.params, t)), domain)
    remaining = {
        str(age): percent_remaining(spec, fitted.params, age,
                                    reference=value_peak.age)
        for age in args.ages
    }
    band = prediction_band(spec, fitted, d, level=args.level)
    result = {
        "model": spec.name,
        "fit": fitted.as_dict(),
        "monthly_loss_peak": {"age": loss_peak.age, "value": loss_peak.value,
                              "plateau": loss_peak.plateau},
        "value_peak": {"age": value_peak.age, "value": value_peak.value},
        "percent_remaining": remaining,
        "band_level": args.level,
    }
    if args.band_out:
        args.band_out.write_text(band.to_csv(), encoding="utf-8")
        result["band_csv"] = str(args.band_out)
    inputs = [args.data] + ([args.units] if args.units else [])
    sys.stdout.write(_report("analyze", args, result, inputs))
    return 0


def _cmd_plot(args) -> int:
    d = _load_dataset(args.data, args.units, args.skip_bad_rows)
    curve = None
    band = None
    if args.model:
        spec = get_model(args.model)
        fitted = multi_start(spec, d, n_starts=args.starts, seed=args.seed)
        xs = np.linspace(d.xs.min(), d.xs.max(), 400)
        ys = np.asarray(evaluate(spec, fitted.params, xs), dtype=float)
        curve = (list(xs), list(ys))
        if args.band:
            band = prediction_band(spec, fitted, d, level=args.level)
    svg = render_svg(d, curve=curve, band=band, title=args.title)
    args.out.write_text(svg, encoding="utf-8")
    return 0


def _cmd_catalog(args) -> int:
    result = {"models": [spec_to_dict(s) for s in catalog()]}
    sys.stdout.write(json.dumps(
        {"command": "catalog", "version": __version__, "numpy": np.__version__,
         "result": result},
        indent=2, sort_keys=True, default=str) + "\n")
    return 0


# --- parser ----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, data: bool = True):
    if data:
        p.add_argument("--data", type=Path, required=True,
                       help="point CSV (study_id,x,y,unit,assay_id,weight)")
    p.add_argument("--units", type=Path, default=None,
                   help="unit alias table (alias = canonical,factor)")
    p.add_argument("--skip-bad-rows", action="store_true",
                   help="drop rejected rows instead of aborting")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=Path, default=None,
                   help="key=value defaults, overridden by flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvemine",
        description="Aggregate mined datapoints, reconstruct microdata, and "
                    "fit/rank/validate a catalog of parametric models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", help="read, normalize and summarize a point CSV")
    _add_common(p)
    p.add_argument("--out", type=Path, default=None,
                   help="write the normalized CSV here")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("describe", help="descriptive statistics of one axis")
    _add_common(p)
    p.add_argument("--axis", choices=("x", "y"), default="y")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("synth", help="reconstruct microdata from summary rows")
    _add_common(p, data=False)
    p.add_argument("--summary", type=Path, required=True,
                   help="summary CSV (x,n,mean,sd,upper_pl95,family)")
    p.add_argument("--replicates", type=int, default=1)
    p.add_argument("--moment-correct", action="store_true")
    p.add_argument("--z", type=float, default=DEFAULT_Z_ONE_SIDED_95,
                   help="z-multiplier for upper prediction limits")
    p.add_argument("--out-dir", type=Path, required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("fit", help="fit one model family to a dataset")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--starts", type=int, default=5)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("rank", help="fit the whole catalog and rank by r^2")
    _add_common(p)
    p.add_argument("--domain", default="0:60", help="plausibility domain lo:hi")
    p.add_argument("--nonnegative", action="store_true")
    p.add_argument("--max-sign-changes", type=int, default=None)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--catalog-filter", default=None,
                   help="substring or family class to restrict the catalog")
    p.add_argument("--out", type=Path, default=None,
                   help="directory for leaderboard.json / leaderboard.txt")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("validate", help="holdout-validate a model")
    _add_common(p, data=False)
    p.add_argument("--train", type=Path, default=None)
    p.add_argument("--test", type=Path, default=None)
    p.add_argument("--data", type=Path, default=None,
                   help="single dataset to split (alternative to --train/--test)")
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--stratify-bins", type=int, default=1)
    p.add_argument("--model", required=True)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--tolerance", type=float, default=0.1,
                   help="relative tolerance for descriptive similarity")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="derived quantities of a fitted model")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--domain", default="0:60")
    p.add_argument("--ages", type=lambda s: [float(v) for v in s.split(",")],
                   default=[30.0, 40.0],
                   help="comma-separated ages for percent-remaining")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--band-out", type=Path, default=None,
                   help="write the prediction band CSV here")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("plot", help="scatter + fitted curve + band as SVG")
    _add_common(p)
    p.add_argument("--model", default=None)
    p.add_argument("--starts", type=int, default=5)
    p.add_argument("--band", action="store_true")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--title", default="")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("catalog", help="export the model catalog as JSON")
    p.set_defaults(func=_cmd_catalog)

    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: Sequence[str]) -> argparse.Namespace:
    """Config file supplies defaults; explicit flags win. Each ``key = value``
    line is parsed as ``--key=value`` ahead of the explicit flags, so it gets
    the option's own type; a store_true option is set by 1, true or yes."""
    if not getattr(args, "config", None):
        return args
    flags = []
    lines = args.config.read_text(encoding="utf-8").splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            continue
        flag = "--" + attr.replace("_", "-")
        if not isinstance(getattr(args, attr), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
    at = argv.index(args.subcommand) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _bind_domain_values(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        return args.func(args)
    except (IngestError, UnknownUnitError, ValueError, OSError,
            KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
