"""Command-line pipeline: ingest, describe, synth, fit, rank, validate,
analyze, plot, catalog.

Every command but ``plot`` prints one JSON report envelope: the command, the
seed, the tool and numpy versions, SHA-256 digests of the files its path
options name (``--data``, ``--train``, ``--test``, ``--summary``,
``--units``), and the command's result. Each digest is of the bytes the
command read, taken as it read them, so a command that rewrites its input
(``ingest --data a.csv --out a.csv``) reports the file it read. Two runs on
identical inputs with the same numpy are byte-identical. Plain-text mirrors
accompany a report where a human-readable form is useful. Point CSVs are
read with ``dataset.ingest_cached`` and written with
``dataset.write_points``, which keep their parse cache (see the
``dataset`` module docstring); every other file is written whole or not at
all by ``dataset._replace``.

Each handler imports the modules it runs, so a command loads only those.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import __version__

if TYPE_CHECKING:
    from .dataset import Dataset

__all__ = ["main"]


def _report(args, result: dict) -> str:
    envelope = {
        "command": args.subcommand,
        "version": __version__,
        "numpy": np.__version__,
        "seed": getattr(args, "seed", None),
        "inputs": args.digests,
        "result": result,
    }
    return json.dumps(envelope, indent=2, sort_keys=True) + "\n"


def _read(args, path: Path, newline: Optional[str] = None) -> io.TextIOWrapper:
    """The text of ``path`` as ``open(path, encoding="utf-8",
    newline=newline)`` gives it, from its bytes read once; their SHA-256
    goes into the report's inputs."""
    from .dataset import _sha256
    with open(path, "rb") as fh:
        raw = io.BytesIO(fh.read())
    args.digests[str(path)] = _sha256(raw)
    raw.seek(0)
    return io.TextIOWrapper(raw, encoding="utf-8", newline=newline)


def _load(args, path: Optional[Path] = None,
          label: Optional[str] = None) -> Dataset:
    """Read the point CSV at ``path`` (default ``--data``) and apply
    ``--units``; its SHA-256 goes into the report's inputs."""
    from .dataset import ingest_cached, normalize_units, read_unit_table
    path = path or args.data
    d, args.digests[str(path)] = ingest_cached(
        path, args.skip_bad_rows, path.stem if label is None else label)
    if args.units is not None:
        d = normalize_units(d, read_unit_table(_read(args, args.units)))
    return d


def _write(path: Path, write) -> None:
    """Call write(fh) on a text file that replaces ``path`` only when write
    returns (``dataset._replace``)."""
    from .dataset import _replace
    _replace(path, write, "w")


def _fit(args, d: Dataset):
    """``--model``'s spec and its fit to ``d`` from ``--starts`` starts
    seeded by ``--seed``."""
    from .fit import multi_start
    from .models import get_model
    spec = get_model(args.model)
    return spec, multi_start(spec, d, n_starts=args.starts, seed=args.seed)


def _parse_domain(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError:
        raise ValueError(f"--domain must be lo:hi, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"--domain needs finite lo < hi, got {text!r}")
    return lo, hi


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


# --- subcommand handlers: each returns its report's result ----------------

def _cmd_ingest(args) -> dict:
    from .dataset import write_points
    d = _load(args)
    if args.out:
        write_points(d, args.out)
    return {
        "n_points": len(d),
        "studies": [
            {"study_id": s.study_id, "n_observations": s.n_observations,
             "min_age": s.min_age, "max_age": s.max_age,
             "median_age": s.median_age}
            for s in d.studies
        ],
        "written": str(args.out) if args.out else None,
    }


def _cmd_describe(args) -> dict:
    from .dataset import describe
    return {args.axis: describe(_load(args), axis=args.axis).as_dict()}


def _cmd_synth(args) -> dict:
    from .dataset import write_points
    from .synth import DEFAULT_Z_ONE_SIDED_95, read_summary_csv, replicate
    z = DEFAULT_Z_ONE_SIDED_95 if args.z is None else args.z
    rows = read_summary_csv(_read(args, args.summary, newline=""))
    datasets = replicate(rows, args.seed, args.replicates,
                         moment_correct=args.moment_correct, z=z)
    outdir = args.out_dir
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for i, d in enumerate(datasets):
        path = outdir / f"replicate_{i:03d}.csv"
        write_points(d, path)
        written.append({"path": str(path), "n_points": len(d)})
    return {"replicates": written, "z": z,
            "moment_correct": args.moment_correct}


def _cmd_fit(args) -> dict:
    return _fit(args, _load(args))[1].as_dict()


def _filtered_catalog(pattern: Optional[str]):
    from .models import catalog
    specs = catalog()
    if pattern:
        specs = [s for s in specs
                 if pattern in s.name or pattern == s.family_class]
        if not specs:
            raise ValueError(f"catalog filter {pattern!r} matches no model")
    return specs


def _cmd_rank(args) -> dict:
    from .fit import rank_all
    from .models import PlausibilityConfig
    plaus = PlausibilityConfig(
        domain=_parse_domain(args.domain),
        require_nonnegative=args.nonnegative,
        max_sign_changes_of_derivative=args.max_sign_changes,
    )
    specs = _filtered_catalog(args.catalog_filter)
    ranked = rank_all(specs, _load(args), plaus,
                      n_starts=args.starts, seed=args.seed)
    if args.out:   # main writes leaderboard.json beside it
        args.out.mkdir(parents=True, exist_ok=True)
        _write(args.out / "leaderboard.txt",
               lambda fh: fh.write(ranked.leaderboard() + "\n"))
    return ranked.as_dict()


def _cmd_validate(args) -> dict:
    from .validate import compare_descriptives, holdout_validate, split
    if args.data and not (args.train or args.test):
        train, test = split(_load(args), args.fraction, seed=args.seed,
                            stratify_bins=args.stratify_bins)
    elif args.train and args.test and not args.data:
        train, test = _load(args, args.train, "train"), _load(args, args.test, "test")
    else:
        raise ValueError("validate takes either --data alone "
                         "or both --train and --test")
    spec, fitted = _fit(args, train)
    report = holdout_validate(spec, fitted.params, train, test)
    similarity = compare_descriptives(train, test, tolerance=args.tolerance)
    return {
        "model": spec.name,
        "fit": fitted.as_dict(),
        "validation": report.as_dict(),
        "similarity": similarity.as_dict(),
    }


def _cmd_analyze(args) -> dict:
    from .analyze import _peak, monthly_loss, percent_remaining, prediction_band
    from .models import evaluate
    domain = _parse_domain(args.domain)
    d = _load(args)
    spec, fitted = _fit(args, d)
    # each objective takes the peak scan's whole grid in one call
    loss_peak = _peak(lambda t: monthly_loss(spec, fitted.params, t), domain)
    value_peak = _peak(lambda t: evaluate(spec, fitted.params, t), domain)
    remaining = {
        str(age): percent_remaining(spec, fitted.params, age,
                                    reference=value_peak.age)
        for age in args.ages
    }
    result = {
        "model": spec.name,
        "fit": fitted.as_dict(),
        "monthly_loss_peak": {"age": loss_peak.age, "value": loss_peak.value,
                              "plateau": loss_peak.plateau},
        "value_peak": {"age": value_peak.age, "value": value_peak.value},
        "percent_remaining": remaining,
    }
    if args.band_out:
        band = prediction_band(spec, fitted, d, level=args.level)
        _write(args.band_out, lambda fh: fh.write(band.to_csv()))
        result["band_csv"] = str(args.band_out)
        result["band_level"] = args.level
    return result


def _cmd_plot(args) -> None:
    from .analyze import prediction_band
    from .models import evaluate
    from .plotting import write_svg
    d = _load(args)
    curve = None
    band = None
    if args.model:
        spec, fitted = _fit(args, d)
        xs = np.linspace(d.xs.min(), d.xs.max(), 400)
        ys = np.asarray(evaluate(spec, fitted.params, xs), dtype=float)
        curve = (xs, ys)
        if args.band:
            band = prediction_band(spec, fitted, d, level=args.level)
    _write(args.out, lambda fh: write_svg(d, fh, curve=curve, band=band,
                                          title=args.title))


def _cmd_catalog(args) -> dict:
    from .models import catalog, spec_to_dict
    return {"models": [spec_to_dict(s) for s in catalog()]}


# --- parser ----------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", type=Path, default=None,
                   help="key=value defaults, overridden by flags")


def _add_points(p: argparse.ArgumentParser, required: bool = True):
    """The options of a command that reads point CSVs, then the common ones."""
    p.add_argument("--data", type=Path, required=required,
                   help="point CSV (study_id,x,y,unit,assay_id,weight)")
    p.add_argument("--units", type=Path, default=None,
                   help="unit alias table (alias = canonical,factor)")
    p.add_argument("--skip-bad-rows", action="store_true",
                   help="drop rejected rows instead of aborting")
    _add_common(p)


def _add_fit(p: argparse.ArgumentParser, model_required: bool = True):
    p.add_argument("--model", required=model_required)
    p.add_argument("--starts", type=int, default=5)


# Each subcommand, its help and its handler, in the order the help lists them.
COMMANDS = {
    "ingest": ("read, normalize and summarize a point CSV", _cmd_ingest),
    "describe": ("descriptive statistics of one axis", _cmd_describe),
    "synth": ("reconstruct microdata from summary rows", _cmd_synth),
    "fit": ("fit one model family to a dataset", _cmd_fit),
    "rank": ("fit the whole catalog and rank by r^2", _cmd_rank),
    "validate": ("holdout-validate a model", _cmd_validate),
    "analyze": ("derived quantities of a fitted model", _cmd_analyze),
    "plot": ("scatter + fitted curve + band as SVG", _cmd_plot),
    "catalog": ("export the model catalog as JSON", _cmd_catalog),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The CLI parser: with only ``command``'s subparser when it names a
    subcommand, else with every one. Its usage line names every subcommand
    either way, so an error that prints it reads the same."""
    parser = argparse.ArgumentParser(
        prog="curvemine",
        description="Aggregate mined datapoints, reconstruct microdata, and "
                    "fit/rank/validate a catalog of parametric models.")
    parser.add_argument("--version", action="version", version=__version__)
    one = command in COMMANDS
    # The metavar spells out the choices argparse would list. It would also
    # name the subcommand in an invalid-choice or missing-subcommand error,
    # which a parser built for the subcommand given cannot raise.
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)

    def add(name: str):
        """The subparser of ``name``, or None when it is not built."""
        if one and name != command:
            return None
        text, func = COMMANDS[name]
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        return p

    if p := add("ingest"):
        _add_points(p)
        p.add_argument("--out", type=Path, default=None,
                       help="write the normalized CSV here")

    if p := add("describe"):
        _add_points(p)
        p.add_argument("--axis", choices=("x", "y"), default="y")

    if p := add("synth"):
        _add_common(p)
        p.add_argument("--summary", type=Path, required=True,
                       help="summary CSV (x,n,mean,sd,upper_pl95,family)")
        p.add_argument("--replicates", type=int, default=1)
        p.add_argument("--moment-correct", action="store_true")
        p.add_argument("--z", type=float, default=None,
                       help="z-multiplier for upper prediction limits "
                            "(default: the one-sided 95%% normal quantile)")
        p.add_argument("--out-dir", type=Path, required=True)

    if p := add("fit"):
        _add_points(p)
        _add_fit(p)

    if p := add("rank"):
        _add_points(p)
        p.add_argument("--domain", default="0:60", help="plausibility domain lo:hi")
        p.add_argument("--nonnegative", action="store_true")
        p.add_argument("--max-sign-changes", type=int, default=None)
        p.add_argument("--starts", type=int, default=5)
        p.add_argument("--catalog-filter", default=None,
                       help="substring or family class to restrict the catalog")
        p.add_argument("--out", type=Path, default=None,
                       help="directory for leaderboard.json / leaderboard.txt")

    if p := add("validate"):
        _add_points(p, required=False)
        p.add_argument("--train", type=Path, default=None)
        p.add_argument("--test", type=Path, default=None)
        p.add_argument("--fraction", type=float, default=0.5)
        p.add_argument("--stratify-bins", type=int, default=1)
        _add_fit(p)
        p.add_argument("--tolerance", type=float, default=0.1,
                       help="relative tolerance for descriptive similarity")

    if p := add("analyze"):
        _add_points(p)
        _add_fit(p)
        p.add_argument("--domain", default="0:60")
        p.add_argument("--ages", type=lambda s: [float(v) for v in s.split(",")],
                       default=[30.0, 40.0],
                       help="comma-separated ages for percent-remaining")
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--band-out", type=Path, default=None,
                       help="write the prediction band CSV here")

    if p := add("plot"):
        _add_points(p)
        _add_fit(p, model_required=False)
        p.add_argument("--band", action="store_true")
        p.add_argument("--level", type=float, default=0.95)
        p.add_argument("--title", default="")
        p.add_argument("--out", type=Path, required=True)

    add("catalog")
    return parser


def _apply_config(parser: argparse.ArgumentParser, args: argparse.Namespace,
                  argv: Sequence[str]) -> argparse.Namespace:
    """Config file supplies defaults; explicit flags win. Each ``key = value``
    line is parsed as ``--key=value`` ahead of the explicit flags, so it gets
    the option's own type; a store_true option is set by 1, true or yes and
    left unset by 0, false or no. A key the subcommand has no option for, or
    any other value of a store_true key, is an error naming its line."""
    if not getattr(args, "config", None):
        return args
    from .dataset import _key_values
    flags = []
    lines = args.config.read_text(encoding="utf-8").splitlines()
    for lineno, key, value in _key_values(lines, "config", "key=value"):
        attr = key.replace("-", "_")
        if attr in ("subcommand", "func", "config") or not hasattr(args, attr):
            raise ValueError(f"config line {lineno}: unknown key {key!r} "
                             f"for {args.subcommand}")
        flag = "--" + attr.replace("_", "-")
        if not isinstance(getattr(args, attr), bool):
            flags.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes"):
            flags.append(flag)
        elif value.lower() not in ("0", "false", "no"):
            raise ValueError(f"config line {lineno}: {key} takes 1, true, yes, "
                             f"0, false or no, got {value!r}")
    at = argv.index(args.subcommand) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _bind_domain_values(sys.argv[1:] if argv is None else argv)
    # A subcommand named first gets a parser of it alone; anything else
    # (--help, --version, an unknown or missing name) gets every one.
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        args = _apply_config(parser, args, argv)
        args.digests = {}   # input path -> SHA-256 of the bytes read
        result = args.func(args)
        if result is None:   # plot writes only its SVG
            return 0
        payload = _report(args, result)
        if args.subcommand == "rank" and args.out:
            _write(args.out / "leaderboard.json", lambda fh: fh.write(payload))
        sys.stdout.write(payload)
        return 0
    except (ValueError, OSError, KeyError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
