import argparse
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET

from pathlib import Path

import numpy as np
import pytest

from curvemine import cli, dataset, plotting
from curvemine.analyze import IntervalBand, percent_remaining
from curvemine.cli import main
from curvemine.dataset import Dataset, ingest_csv, write_csv
from curvemine.fit import multi_start
from curvemine.models import get_model
from curvemine.plotting import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, \
    WIDTH, _nice_ticks, write_svg
from curvemine.synth import DEFAULT_Z_ONE_SIDED_95, SummaryRow, reconstruct_dataset
from curvemine.validate import holdout_validate, split

from conftest import make_dataset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_dataset_csv(path, d):
    with open(path, "w", encoding="utf-8") as fh:
        write_csv(d, fh)


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 60, 80)
    ys = np.clip(100 * np.exp(-((xs - 15) ** 2) / 50.0)
                 + rng.normal(0, 2, 80), 0, None)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, make_dataset(xs, ys))
    return path


@pytest.fixture
def summary_csv(tmp_path):
    path = tmp_path / "summary.csv"
    path.write_text(
        "x,n,mean,sd,upper_pl95,family\n"
        "25,10,5.0,1.0,,normal\n"
        "30,15,6.0,,9.0,lognormal\n", encoding="utf-8")
    return path


class TestIngestDescribe:
    def test_ingest_report(self, capsys, data_csv):
        code, out, _ = run(capsys, "ingest", "--data", str(data_csv))
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "ingest"
        assert report["result"]["n_points"] == 80
        assert report["version"]
        assert report["numpy"] == np.__version__
        assert str(data_csv) in report["inputs"]

    def test_ingest_writes_normalized_csv(self, capsys, tmp_path):
        src = tmp_path / "raw.csv"
        src.write_text("study_id,x,y,unit\nA,1,2000,mm3\n")
        units = tmp_path / "units.cfg"
        units.write_text("mm3 = ml,0.001\n")
        out_csv = tmp_path / "norm.csv"
        code, out, _ = run(capsys, "ingest", "--data", str(src),
                           "--units", str(units), "--out", str(out_csv))
        assert code == 0
        with open(out_csv) as fh:
            d = ingest_csv(fh)
        assert d.ys[0] == pytest.approx(2.0)
        assert d.units == ["ml"]

    def test_describe(self, capsys, data_csv):
        code, out, _ = run(capsys, "describe", "--data", str(data_csv),
                           "--axis", "x")
        assert code == 0
        stats = json.loads(out)["result"]["x"]
        assert stats["count"] == 80

    def test_describe_values_near_the_largest_float(self, tmp_path):
        # a fresh interpreter, as a user runs it: the mean overflows to inf
        # with numpy's RuntimeWarning, which the test suite makes an error
        data = tmp_path / "big.csv"
        data.write_text("study_id,x,y\ns,0.0,8.98846567431158e+307\n"
                        "s,1.0,8.98846567431158e+307\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "curvemine.cli", "describe", "--data", str(data)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        y = json.loads(proc.stdout)["result"]["y"]
        assert y["min"] == y["median"] == y["max"] == 8.98846567431158e+307

    @pytest.mark.parametrize("ys", [("1e160", "0"),
                                    ("8.98846567431158e+307",) * 2])
    def test_describe_moments_whose_sums_overflow_are_finite(self, tmp_path, ys):
        # a fresh interpreter, where numpy's overflow is a warning, and a
        # JSON parse that rejects the Infinity json.dumps would write
        data = tmp_path / "big.csv"
        data.write_text("study_id,x,y\n" + "".join(f"s,{i},{y}\n"
                                                    for i, y in enumerate(ys)))
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "curvemine.cli", "describe", "--data", str(data)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        y = json.loads(proc.stdout, parse_constant=reject)["result"]["y"]
        vals = [float(v) for v in ys]
        assert y["mean"] == pytest.approx(sum(v / 2 for v in vals), rel=1e-15)
        assert y["sd"] == pytest.approx(abs(vals[0] - vals[1]) / math.sqrt(2), rel=1e-15)

    def test_label_holding_cr_survives_ingest_out(self, capsys, tmp_path):
        d = make_dataset([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], study_id="a\rb",
                         unit="ng\r", assay="k\r\n1")
        src, out_csv = tmp_path / "cr.csv", tmp_path / "again.csv"
        write_dataset_csv(src, d)
        code, _, _ = run(capsys, "ingest", "--data", str(src), "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_bytes() == src.read_bytes()
        with open(out_csv, encoding="utf-8", newline="") as fh:
            again = ingest_csv(fh, label=d.label)
        assert (again.study_ids, again.units, again.assay_ids) == \
            (d.study_ids, d.units, d.assay_ids)
        assert again == d

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_crlf_file_describes_as_its_lf_twin(self, capsys, data_csv, tmp_path,
                                                axis):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(data_csv.read_bytes().replace(b"\n", b"\r\n"))
        results = []
        for path in (data_csv, crlf):
            code, out, _ = run(capsys, "describe", "--data", str(path), "--axis", axis)
            assert code == 0
            results.append(json.loads(out)["result"])
        assert results[0] == results[1]
        assert results[0][axis]["count"] == 80

    def test_chained_unit_table_exit_1(self, capsys, data_csv, tmp_path):
        units = tmp_path / "units.cfg"
        units.write_text(" = b,2\nb = c,3\n")
        code, out, err = run(capsys, "ingest", "--data", str(data_csv),
                             "--units", str(units))
        assert (code, out) == (1, "")
        assert err == ("error: unit alias '' maps to 'b', "
                       "which is itself an alias of 'c'\n")

    def test_data_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("study_id,x\nA,1\n")
        code, out, err = run(capsys, "describe", "--data", str(bad))
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_over_long_field_names_its_row(self, capsys, tmp_path, quote):
        long = tmp_path / "long.csv"
        long.write_text(f"study_id,x,y\nA,1,2\n{quote}{'B' * 200_000}{quote},3,4\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "describe", "--data", str(long))
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "error: row 3: field larger than field limit (131072)"]

    def test_unknown_subcommand_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestSynth:
    def test_replicate_counts(self, capsys, summary_csv, tmp_path):
        outdir = tmp_path / "out"
        code, out, _ = run(capsys, "synth", "--summary", str(summary_csv),
                           "--seed", "1", "--replicates", "3",
                           "--out-dir", str(outdir))
        assert code == 0
        report = json.loads(out)
        assert len(report["result"]["replicates"]) == 3
        for entry in report["result"]["replicates"]:
            assert entry["n_points"] == 25
            with open(entry["path"]) as fh:
                assert len(ingest_csv(fh)) == 25

    def test_determinism(self, capsys, summary_csv, tmp_path):
        blobs = []
        for run_dir in ("a", "b"):
            outdir = tmp_path / run_dir
            run(capsys, "synth", "--summary", str(summary_csv),
                "--seed", "9", "--out-dir", str(outdir))
            blobs.append((outdir / "replicate_000.csv").read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("flag, z", [([], DEFAULT_Z_ONE_SIDED_95),
                                         (["--z", "2.5"], 2.5)])
    def test_report_names_the_z_it_used(self, capsys, summary_csv, tmp_path,
                                        flag, z):
        code, out, _ = run(capsys, "synth", "--summary", str(summary_csv),
                           "--out-dir", str(tmp_path / "out"), *flag)
        assert code == 0
        assert json.loads(out)["result"]["z"] == z

    @pytest.mark.parametrize("flag", [["--units", "units.cfg"], ["--skip-bad-rows"]])
    def test_point_csv_flags_rejected(self, summary_csv, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--summary", str(summary_csv),
                  "--out-dir", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2

    def test_negative_draw_names_its_row(self, capsys, tmp_path):
        summary = tmp_path / "summary.csv"
        summary.write_text("x,n,mean,sd,upper_pl95,family\n"
                           "25,10,5.0,1.0,,normal\n30,40,1.0,5.0,,normal\n")
        code, _, err = run(capsys, "synth", "--summary", str(summary),
                           "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert "summary row 1 (x=30.0, family normal) drew -" in err

    def test_short_row_names_its_row(self, capsys, tmp_path):
        summary = tmp_path / "summary.csv"
        summary.write_text("x,n,mean,sd,upper_pl95,family\n"
                           "1,5,10,2,,normal\n2,5\n")
        code, out, err = run(capsys, "synth", "--summary", str(summary),
                             "--out-dir", str(tmp_path / "out"))
        assert (code, out) == (1, "")
        assert err.startswith("error: summary row 3: ")


class TestFitRank:
    def test_fit_matches_library(self, capsys, data_csv):
        code, out, _ = run(capsys, "fit", "--data", str(data_csv),
                           "--model", "gaussian_peak", "--seed", "3")
        assert code == 0
        got = json.loads(out)["result"]
        with open(data_csv) as fh:
            d = ingest_csv(fh)
        expected = multi_start(get_model("gaussian_peak"), d,
                               n_starts=5, seed=3)
        assert got["params"] == pytest.approx(list(expected.params))
        assert got["r2"] == pytest.approx(expected.r2)

    def test_rank_deterministic_bytes(self, capsys, data_csv, tmp_path):
        outputs = []
        for _ in range(2):
            code, out, _ = run(capsys, "rank", "--data", str(data_csv),
                               "--nonnegative", "--domain", "0:60",
                               "--seed", "7",
                               "--catalog-filter", "polynomial")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_rank_writes_leaderboard_files(self, capsys, data_csv, tmp_path):
        outdir = tmp_path / "rank"
        code, out, _ = run(capsys, "rank", "--data", str(data_csv),
                           "--domain", "0:60", "--seed", "7",
                           "--catalog-filter", "peaked",
                           "--out", str(outdir))
        assert code == 0
        assert (outdir / "leaderboard.json").read_text() == out
        text = (outdir / "leaderboard.txt").read_text()
        assert "gaussian_peak" in text

    def test_bad_filter(self, capsys, data_csv):
        code, _, err = run(capsys, "rank", "--data", str(data_csv),
                           "--catalog-filter", "nope_xyz")
        assert code == 1

    @pytest.mark.parametrize("command", [["rank"], ["fit", "--model", "poly1"]])
    def test_zero_starts_exit_1(self, capsys, data_csv, command):
        code, out, err = run(capsys, *command, "--data", str(data_csv),
                             "--starts", "0")
        assert (code, out, err) == (1, "", "error: n_starts must be >= 1\n")

    def test_catalog_export(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert json.loads(out)["numpy"] == np.__version__
        models = json.loads(out)["result"]["models"]
        assert len(models) >= 30
        assert {"name", "n_params", "family_class", "bounds"} <= set(models[0])
        assert {m["name"]: m["fitted_as"] for m in models if "fitted_as" in m} == {
            "tanh_sigmoid": "logistic_offset", "inverse_shift": "rational_lin_lin"}

    def test_twin_filtered_alone_reports_its_full_catalog_entry(self, capsys, data_csv):
        # inverse_shift is fitted as rational_lin_lin, which this filter drops
        def entry(*flags):
            code, out, _ = run(capsys, "rank", "--data", str(data_csv), "--seed", "7",
                               "--nonnegative", *flags)
            assert code == 0
            return {e["spec_name"]: e for e in json.loads(out)["result"]["entries"]}

        alone = entry("--catalog-filter", "inverse_shift")
        assert list(alone) == ["inverse_shift"]
        assert alone["inverse_shift"] == entry()["inverse_shift"]


class TestValidateCmd:
    def test_two_cohorts_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(5)

        def cohort(seed):
            r = np.random.default_rng(seed)
            xs = r.uniform(0, 60, 100)
            ys = np.clip(50 * np.exp(-((xs - 20) ** 2) / 100.0)
                         + r.normal(0, 2, 100), 0, None)
            return make_dataset(xs, ys)

        train, test = cohort(1), cohort(2)
        train_csv, test_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(train_csv, train)
        write_dataset_csv(test_csv, test)
        code, out, _ = run(capsys, "validate", "--train", str(train_csv),
                           "--test", str(test_csv),
                           "--model", "gaussian_peak", "--seed", "2")
        assert code == 0
        got = json.loads(out)["result"]["validation"]

        fitted = multi_start(get_model("gaussian_peak"), train,
                             n_starts=5, seed=2)
        expected = holdout_validate(get_model("gaussian_peak"),
                                    fitted.params, train, test)
        assert got["r2_train"] == pytest.approx(expected.r2_train)
        assert got["r2_test"] == pytest.approx(expected.r2_test)
        assert got["agreement"] == pytest.approx(expected.agreement)

    def test_single_dataset_split_mode(self, capsys, data_csv):
        code, out, _ = run(capsys, "validate", "--data", str(data_csv),
                           "--fraction", "0.5", "--model", "gaussian_peak",
                           "--seed", "4")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["validation"]["n_train"] == 40
        assert result["validation"]["n_test"] == 40

    def test_stratified_split_mode(self, capsys, data_csv):
        code, out, err = run(capsys, "validate", "--data", str(data_csv),
                             "--model", "gaussian_peak", "--stratify-bins", "4")
        assert code == 0, err
        got = json.loads(out)["result"]["validation"]
        train, test = split(ingest_csv(data_csv.read_text()), 0.5, seed=0,
                            stratify_bins=4)
        assert (got["n_train"], got["n_test"]) == (len(train), len(test))

    @pytest.mark.parametrize("given", [("train", "test", "data"), ("train", "data"),
                                       ("test", "data"), ("train",), ("test",), ()])
    def test_other_input_mixes_exit_1(self, capsys, data_csv, given):
        paths = [a for k in given for a in (f"--{k}", str(data_csv))]
        code, out, err = run(capsys, "validate", *paths, "--model", "poly1")
        assert (code, out) == (1, "")
        assert err == ("error: validate takes either --data alone "
                       "or both --train and --test\n")


class TestAnalyzeCmd:
    def test_report_fields(self, capsys, data_csv, tmp_path):
        band_csv = tmp_path / "band.csv"
        code, out, _ = run(capsys, "analyze", "--data", str(data_csv),
                           "--model", "gaussian_peak", "--domain", "0:60",
                           "--ages", "30,40", "--seed", "1",
                           "--band-out", str(band_csv))
        assert code == 0
        result = json.loads(out)["result"]
        assert "monthly_loss_peak" in result
        assert set(result["percent_remaining"]) == {"30.0", "40.0"}
        # relative to the model's peak over the domain, to the last bit
        params = result["fit"]["params"]
        for age in (30.0, 40.0):
            assert result["percent_remaining"][str(age)] == percent_remaining(
                get_model("gaussian_peak"), params, age, reference="peak",
                domain=(0.0, 60.0))
        assert band_csv.read_text().startswith("x,lower,fit,upper")


    def test_no_band_is_built_unless_asked_for(self, capsys, tmp_path):
        # two points leave a line no residual degrees of freedom: the
        # report needs no band, and only --band-out asks for one
        data = tmp_path / "two.csv"
        write_dataset_csv(data, make_dataset([1.0, 2.0], [3.0, 5.0]))
        analyze = ["analyze", "--data", str(data), "--model", "poly1"]
        code, out, err = run(capsys, *analyze)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["fit"]["params"] == pytest.approx([1.0, 2.0])
        assert "band_csv" not in result
        code, out, err = run(capsys, *analyze, "--band-out", str(tmp_path / "band.csv"))
        assert (code, out) == (1, "")
        assert err == "error: non-positive degrees of freedom\n"
        assert not (tmp_path / "band.csv").exists()

    def test_band_level_is_reported_only_with_the_band(self, capsys, data_csv, tmp_path):
        two = tmp_path / "two.csv"
        write_dataset_csv(two, make_dataset([1.0, 2.0], [3.0, 5.0]))
        code, out, err = run(capsys, "analyze", "--data", str(two), "--model", "poly1")
        assert code == 0, err
        assert "band_level" not in json.loads(out)["result"]
        code, out, err = run(capsys, "analyze", "--data", str(data_csv), "--model",
                             "poly1", "--level", "0.9", "--band-out",
                             str(tmp_path / "band.csv"))
        assert code == 0, err
        assert json.loads(out)["result"]["band_level"] == 0.9


COMMANDS = ("ingest", "describe", "synth", "fit", "rank", "validate", "analyze",
            "plot", "catalog")


class TestParser:
    """main builds only the subparser of the subcommand it runs; what it
    prints for help, for an unknown subcommand and for an unrecognized
    argument is what the parser of every subcommand prints."""

    @staticmethod
    def _exit(capsys, parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["bogus"], ["bogus", "--data", "x"],
                                      ["--data", "x"], *([cmd, "--help"] for cmd in COMMANDS)],
                             ids=" ".join)
    def test_same_text_as_the_full_parser(self, capsys, argv):
        full = self._exit(capsys, lambda: cli.build_parser().parse_args(argv))
        assert full[0] in (0, 2) and full[1] + full[2]
        assert self._exit(capsys, lambda: main(argv)) == full

    def test_help_lists_every_subcommand(self, capsys):
        _, out, _ = self._exit(capsys, lambda: main(["--help"]))
        assert out.split("{", 1)[1].split("}", 1)[0].split(",") == list(COMMANDS)

    def test_only_the_named_subcommand_gets_options(self):
        parser = cli.build_parser("rank")
        assert parser.parse_args(["rank", "--data", "d.csv"]).func is cli._cmd_rank
        with pytest.raises(SystemExit):
            parser.parse_args(["describe", "--data", "d.csv"])

    def test_only_the_named_subcommand_is_built(self, monkeypatch):
        built = []
        real = argparse._SubParsersAction.add_parser

        def recording(self, name, **kwargs):
            built.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", recording)
        for command in COMMANDS:
            cli.build_parser(command)
            assert built == [command]
            built.clear()
        for command in (None, "bogus", "--help"):
            cli.build_parser(command)
            assert built == list(COMMANDS)
            built.clear()

    USAGE = ("usage: curvemine [-h] [--version]\n"
             "                 {ingest,describe,synth,fit,rank,validate,analyze,plot,catalog}\n"
             "                 ...\n")

    @pytest.mark.skipif(sys.version_info[:2] not in ((3, 10), (3, 11)),
                        reason="argparse's wording of Python 3.10 and 3.11")
    @pytest.mark.parametrize("argv, want", [
        (["--help"], (0, USAGE + """
Aggregate mined datapoints, reconstruct microdata, and fit/rank/validate a
catalog of parametric models.

positional arguments:
  {ingest,describe,synth,fit,rank,validate,analyze,plot,catalog}
    ingest              read, normalize and summarize a point CSV
    describe            descriptive statistics of one axis
    synth               reconstruct microdata from summary rows
    fit                 fit one model family to a dataset
    rank                fit the whole catalog and rank by r^2
    validate            holdout-validate a model
    analyze             derived quantities of a fitted model
    plot                scatter + fitted curve + band as SVG
    catalog             export the model catalog as JSON

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", "")),
        (["bogus"], (2, "", USAGE + (
            "curvemine: error: argument subcommand: invalid choice: 'bogus' (choose from "
            "'ingest', 'describe', 'synth', 'fit', 'rank', 'validate', 'analyze', 'plot', "
            "'catalog')\n"))),
        ([], (2, "", USAGE + "curvemine: error: the following arguments are required: "
                             "subcommand\n")),
        (["rank", "--data", "d.csv", "--bogus"],
         (2, "", USAGE + "curvemine: error: unrecognized arguments: --bogus\n")),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else "")
    def test_texts(self, capsys, argv, want):
        """The texts of the parser of every subcommand, also where main
        builds one subcommand's: an unrecognized argument prints the usage."""
        assert self._exit(capsys, lambda: main(argv)) == want


class TestOutOfRangeFlags:
    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_validate_stratify_bins_below_one(self, capsys, data_csv, bins):
        code, out, err = run(capsys, "validate", "--data", str(data_csv),
                             "--model", "poly1", "--stratify-bins", bins)
        assert (code, out) == (1, "")
        assert err == f"error: stratify_bins must be >= 1, got {bins}\n"

    def test_rank_negative_max_sign_changes(self, capsys, data_csv):
        code, out, err = run(capsys, "rank", "--data", str(data_csv),
                             "--max-sign-changes", "-1")
        assert (code, out) == (1, "")
        assert err == "error: max_sign_changes_of_derivative must be >= 0, got -1\n"


class TestDomainArgument:
    def test_negative_domain_after_a_space(self, capsys, data_csv, tmp_path):
        common = ["--data", str(data_csv), "--seed", "2"]
        rank = ["rank", *common, "--catalog-filter", "peaked", "--nonnegative"]
        code, spaced, err = run(capsys, *rank, "--domain", "-1:55")
        assert code == 0, err
        code, joined, _ = run(capsys, *rank, "--domain=-1:55")
        assert spaced == joined
        analyze = ["analyze", *common, "--model", "gaussian_peak",
                   "--band-out", str(tmp_path / "band.csv")]
        code, spaced, err = run(capsys, *analyze, "--domain", "-1:55")
        assert code == 0, err
        code, joined, _ = run(capsys, *analyze, "--domain=-1:55")
        assert spaced == joined

    @pytest.mark.parametrize("command", [["rank"], ["analyze", "--model", "poly1"]])
    def test_malformed_domain_exits_before_reading(self, capsys, tmp_path,
                                                   command):
        code, out, err = run(capsys, *command, "--data",
                             str(tmp_path / "missing.csv"), "--domain", "5")
        assert (code, out) == (1, "")
        assert err == "error: --domain must be lo:hi, got '5'\n"

    @pytest.mark.parametrize("domain", ["0:inf", "nan:3", "5:1", "2:2"])
    @pytest.mark.parametrize("command", [["rank"], ["analyze", "--model", "poly1"]])
    def test_bounds_must_be_finite_and_increasing(self, capsys, tmp_path,
                                                  command, domain):
        code, out, err = run(capsys, *command, "--data",
                             str(tmp_path / "missing.csv"), "--domain", domain)
        assert (code, out) == (1, "")
        assert err == f"error: --domain needs finite lo < hi, got {domain!r}\n"


ENVELOPE_KEYS = {"command", "version", "numpy", "seed", "inputs", "result"}


class TestEnvelope:
    """Every report command writes one envelope that digests what it read."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Paths the CLI opens for reading while the test runs, itself or
        through the dataset layer, but for cache entries and the reader's
        own source, which feed only the cache key."""
        paths = set()

        def spy(path, mode="r", *args, **kwargs):
            if ("r" in mode and Path(path).parent.name != dataset.CACHE_DIR
                    and str(path) != dataset.__file__):
                paths.add(str(path))
            return open(path, mode, *args, **kwargs)

        for module in (cli, dataset):
            monkeypatch.setattr(module, "open", spy, raising=False)
        return paths

    @pytest.mark.parametrize("argv, read", [
        ("ingest --data {data} --units {units} --out {tmp}/n.csv", "data units"),
        ("describe --data {data}", "data"),
        ("synth --summary {summary} --out-dir {tmp}/reps", "summary"),
        ("fit --data {data} --units {units} --model poly1", "data units"),
        ("rank --data {data} --catalog-filter poly1 --out {tmp}/board", "data"),
        ("validate --data {data} --units {units} --model poly1", "data units"),
        ("validate --train {data} --test {test} --units {units} --model poly1",
         "data test units"),
        ("analyze --data {data} --model poly1 --band-out {tmp}/band.csv", "data"),
        ("catalog", ""),
    ])
    def test_same_keys_and_inputs_read(self, capsys, data_csv, summary_csv,
                                       tmp_path, opened, argv, read):
        test_csv = tmp_path / "test.csv"
        test_csv.write_text("".join(data_csv.read_text().splitlines(True)[:-1]))
        units = tmp_path / "units.cfg"
        units.write_text(" = count\n")
        paths = {"data": data_csv, "test": test_csv, "units": units,
                 "summary": summary_csv}
        code, out, err = run(capsys, *argv.format(tmp=tmp_path, **paths).split())
        assert code == 0, err
        report = json.loads(out)
        assert set(report) == ENVELOPE_KEYS
        assert report["command"] == argv.split()[0]
        want = {str(paths[k]): hashlib.sha256(paths[k].read_bytes()).hexdigest()
                for k in read.split()}
        assert report["inputs"] == want
        assert set(want) == opened

    def test_input_rewritten_by_the_command_reports_the_bytes_read(self, capsys,
                                                                   tmp_path):
        data = tmp_path / "a.csv"
        data.write_text("study_id,x,y\ns,1,2\ns,2,3.5\n")
        read = hashlib.sha256(data.read_bytes()).hexdigest()
        code, out, err = run(capsys, "ingest", "--data", str(data), "--out", str(data))
        assert code == 0, err
        assert hashlib.sha256(data.read_bytes()).hexdigest() != read  # rewritten
        assert json.loads(out)["inputs"] == {str(data): read}


@pytest.fixture
def parses(monkeypatch):
    """The number of ingest_csv calls (parses) while the test runs."""
    count = [0]
    real = dataset.ingest_csv

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset, "ingest_csv", counted)
    return count


def entry_of(path):
    return path.parent / "__curvemine_cache__" / f"{path.name}.cols"


def assert_same_rows(got, want):
    """got holds want's rows: x, y and weight bit for bit, and its labels."""
    for col in ("xs", "ys", "weights"):
        assert getattr(got, col).tobytes() == getattr(want, col).tobytes(), col
    for col in ("study_ids", "units", "assay_ids"):
        assert getattr(got, col) == getattr(want, col), col


def header_and_body(entry):
    """A cache entry's bytes split after its JSON header line."""
    head, body = entry.read_bytes().split(b"\n", 1)
    return head + b"\n", body


def written_copy(capsys, data_csv, copy):
    """``ingest --data data_csv --out copy``: a copy of the points whose
    cache entry its writer stored."""
    copy.parent.mkdir(exist_ok=True)
    code, _, err = run(capsys, "ingest", "--data", str(data_csv), "--out", str(copy))
    assert (code, err) == (0, "")
    assert entry_of(copy).is_file()
    return copy


class TestParseCache:
    """A point CSV that curvemine wrote is never parsed: a read of its bytes
    loads the columns from the entry its writer stored, and prints and
    writes the same bytes as a parse. A read stores nothing."""

    @pytest.mark.parametrize("argv", [
        "describe --data {data} --axis x",
        "fit --data {data} --model gaussian_peak --starts 2",
        "rank --data {data} --catalog-filter peak --starts 2",
        "validate --data {data} --model poly2 --stratify-bins 3 --seed 4",
        "validate --train {data} --test {data} --model poly1",
        "analyze --data {data} --model gaussian_peak --band-out {tmp}/band.csv",
        "plot --data {data} --model poly2 --band --out {tmp}/p.svg",
    ])
    def test_hit_prints_and_writes_the_bytes_of_a_miss(self, capsys, data_csv,
                                                       tmp_path, parses, argv):
        """On a hand-written CSV the command leaves its directory as it was;
        on an ``ingest --out`` copy it parses nothing, and prints and writes
        what it does once the copy's entry is deleted."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()

        def outputs(data):
            code, out, err = run(capsys, *argv.format(data=data, tmp=out_dir).split())
            assert (code, err) == (0, "")
            return out, {p.name: p.read_bytes() for p in out_dir.iterdir()}

        listing = sorted(tmp_path.iterdir())
        outputs(data_csv)
        assert sorted(tmp_path.iterdir()) == listing
        copy = written_copy(capsys, data_csv, tmp_path / "copy" / "data.csv")
        before = parses[0]
        hit = outputs(copy)
        assert parses[0] == before
        shutil.rmtree(entry_of(copy).parent)
        parsed = outputs(copy)
        assert parses[0] > before
        assert not entry_of(copy).parent.exists()
        assert hit == parsed
        assert hit[0] or hit[1]

    def test_one_byte_changed_at_the_same_size_and_mtime_is_a_miss(
            self, capsys, data_csv, tmp_path, parses):
        copy = written_copy(capsys, data_csv, tmp_path / "copy" / "data.csv")
        first = run(capsys, "describe", "--data", str(copy))[1]
        assert parses[0] == 1   # the ingest that wrote the copy
        stat = copy.stat()
        text = copy.read_bytes()
        at = text.index(b".", text.index(b"\n")) + 1   # a digit of the first row's x
        changed = text[:at] + (b"1" if text[at:at + 1] != b"1" else b"2") + text[at + 1:]
        copy.write_bytes(changed)
        os.utime(copy, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert copy.stat().st_mtime_ns == stat.st_mtime_ns
        assert copy.stat().st_size == stat.st_size
        second = run(capsys, "describe", "--data", str(copy), "--axis", "x")[1]
        assert parses[0] == 2
        assert json.loads(second)["inputs"] == {
            str(copy): hashlib.sha256(changed).hexdigest()}
        assert first != second

    @pytest.mark.parametrize("damage", [
        "reader digest", "truncated", "body byte flipped", "bytes appended",
        "header not JSON", "label changed in header", "code outside its table",
        "other byte order", "length neither 1 nor n"])
    def test_bad_entry_is_a_miss_that_rewrites_it(self, capsys, monkeypatch, data_csv,
                                                  tmp_path, parses, damage):
        """A damaged entry is a miss that the read leaves as it is; every
        read of it parses and prints what the hit did, until the writer,
        run again, rewrites it."""
        copy = written_copy(capsys, data_csv, tmp_path / "copy" / "data.csv")
        want = run(capsys, "describe", "--data", str(copy))[1]
        entry = entry_of(copy)
        good = entry.read_bytes()
        head, body = header_and_body(entry)
        key = json.loads(head)["key"]
        d = ingest_csv(copy.read_text(encoding="utf-8"))
        x, y, labels = d._x, d._y, [d._study, d._unit, d._assay]
        assert d.units == [""] * 80
        if damage == "reader digest":   # written by another version of the reader
            with monkeypatch.context() as mp:
                mp.setattr(dataset, "_reader_digest", lambda: "0" * 64)
                written_copy(capsys, data_csv, copy)
        elif damage == "truncated":
            entry.write_bytes(good[:len(good) // 2])
        elif damage == "body byte flipped":   # the third byte of x
            entry.write_bytes(head + body[:2] + bytes([body[2] ^ 1]) + body[3:])
        elif damage == "bytes appended":
            entry.write_bytes(good + b"\0" * 8)
        elif damage == "header not JSON":
            entry.write_bytes(b"{not json}\n" + body)
        elif damage == "label changed in header":   # still JSON, with the same key
            entry.write_bytes(head.replace(b'[["s"]', b'[["t"]') + body)
        else:   # written whole, with a valid CRC, by _store itself; the unit
            # codes, which describe does not read, would go unnoticed
            if damage == "code outside its table":
                labels[1] = dataset._Codes(np.ones_like(d._unit.codes), ("",))
            elif damage == "other byte order":
                x = x.astype(x.dtype.newbyteorder())
            else:   # two unit codes for 80 rows
                labels[1] = dataset._Codes(np.arange(2), ("", "other"))
            dataset._store(entry, key, x, y, d._weight, labels)
        damaged = entry.read_bytes()
        assert damaged != good
        before = parses[0]
        for i in (1, 2):
            assert run(capsys, "describe", "--data", str(copy))[1] == want
            assert parses[0] == before + i
            assert entry.read_bytes() == damaged
        written_copy(capsys, data_csv, copy)
        assert entry.read_bytes() == good
        assert run(capsys, "describe", "--data", str(copy))[1] == want
        assert parses[0] == before + 3   # the writer's own read of data_csv

    def test_entry_that_cannot_be_written_is_not_kept(self, capsys, monkeypatch,
                                                      data_csv, tmp_path, parses):
        """The disk fills after the header: the write raises OSError
        part-way. The writer prints and writes what it does when the entry
        is stored, and the next read of its CSV parses."""
        real_open, writes = open, []

        class Full(io.BufferedWriter):
            def write(self, data):
                writes[-1] += 1
                if writes[-1] > 1:
                    raise OSError("disk full")
                return super().write(data)

        def opened(file, mode="r", *args, **kwargs):
            if mode != "wb":
                return real_open(file, mode, *args, **kwargs)
            writes.append(0)
            return Full(io.FileIO(file, mode))

        copy = tmp_path / "copy" / "data.csv"
        copy.parent.mkdir()
        ingest = ["ingest", "--data", str(data_csv), "--out", str(copy)]
        with monkeypatch.context() as mp:
            mp.setattr(dataset, "open", opened, raising=False)
            outs = [(run(capsys, *ingest), copy.read_bytes()) for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0][0][0] == 0 and outs[0][0][2] == ""
        assert writes == [2, 2]   # the header, then the first column raises
        cache = entry_of(copy).parent
        assert not cache.exists() or list(cache.iterdir()) == []
        run(capsys, "describe", "--data", str(copy))
        assert parses[0] == 3
        assert (run(capsys, *ingest), copy.read_bytes()) == outs[0]
        assert entry_of(copy).is_file()

    def test_stale_entry_costs_its_header_only(self, monkeypatch, data_csv, tmp_path,
                                               parses):
        """A read whose entry holds another key, here of a CSV edited after
        its writer stored the entry, reads none of its columns."""
        path = tmp_path / "copy" / "data.csv"
        path.parent.mkdir()
        dataset.write_points(ingest_csv(data_csv.read_text(encoding="utf-8")), path)
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("s,1.0,2.0,,,1.0\n")
        real, reads = np.fromfile, []

        def counted(*args, **kwargs):
            reads.append(args[1:])
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "fromfile", counted)
        d = dataset.ingest_cached(path)[0]
        assert (parses[0], reads, len(d)) == (1, [], 81)
        dataset.write_points(d, path)
        assert dataset.ingest_cached(path)[0] == d
        assert parses[0] == 1 and len(reads) == 6

    @staticmethod
    def _replicate():
        """A synth replicate of 49,800 rows: one study, unit, assay and weight."""
        rows = [SummaryRow(x=float(x), n=415, mean=50.0 + x, sd=10.0, family="lognormal")
                for x in range(120)]
        return reconstruct_dataset(rows, seed=3)

    def test_hit_allocates_little_past_its_columns(self, monkeypatch, tmp_path):
        """Up to the Dataset build, a hit allocates at most 64 KiB past the
        columns it returns (48 bytes a row), and in all at most 24 bytes a
        row past them: the build's own arrays take ~17. A copy of the body
        (16 bytes a row here) breaks both."""
        d = self._replicate()
        path = tmp_path / "replicate_000.csv"
        dataset.write_points(d, path)
        with open(path, "rb") as fh:
            entry, key = dataset._entry(path, dataset._sha256(fh))
        real, at_build = dataset.Dataset._from_columns, []

        def build(*args):
            at_build.append(tracemalloc.get_traced_memory()[1])
            return real(*args)

        monkeypatch.setattr(dataset.Dataset, "_from_columns", build)
        tracemalloc.start()
        try:
            got = dataset._cached(entry, key, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d) == 49_800
        assert_same_rows(got, d)
        columns = len(d) * (3 * 8 + 3 * np.dtype(np.intp).itemsize)
        assert at_build[0] - columns < 64 << 10
        assert peak - columns < 24 * len(d)

    def test_store_copies_no_column(self, tmp_path):
        """A store writes each column from its own buffer: its traced peak
        stays under half a float column (4 bytes a row)."""
        d = self._replicate()
        entry = tmp_path / dataset.CACHE_DIR / "replicate_000.csv.cols"
        tracemalloc.start()
        try:
            dataset._store(entry, ["key"], d._x, d._y, d._weight,
                           [d._study, d._unit, d._assay])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_rows(dataset._cached(entry, ["key"], ""), d)
        assert peak < 4 * len(d)

    def test_strict_read_of_bad_rows_writes_nothing_and_fails_each_time(
            self, capsys, tmp_path, parses):
        """Neither read of a CSV with bad rows stores an entry. A writer's
        copy of its good rows has an entry, which the strict read of the
        bad file never takes."""
        bad = tmp_path / "bad.csv"
        bad.write_text("study_id,x,y\ns,1,2\ns,nope,3\ns,2,-1\ns,3,4\n")
        text = ("error: rejected rows:\n"
                "  row 3: could not convert string to float: 'nope'\n"
                "  row 4: value -1.0 must be finite and >= 0\n")
        strict = ["describe", "--data", str(bad)]
        assert run(capsys, *strict) == (1, "", text)
        assert run(capsys, *strict) == (1, "", text)
        code, out, _ = run(capsys, *strict, "--skip-bad-rows")
        assert code == 0 and json.loads(out)["result"]["y"]["count"] == 2
        assert not entry_of(bad).parent.exists()
        good = tmp_path / "good.csv"
        assert run(capsys, "ingest", "--data", str(bad), "--skip-bad-rows",
                   "--out", str(good))[0] == 0
        assert entry_of(good).is_file() and not entry_of(bad).exists()
        assert run(capsys, *strict) == (1, "", text)
        assert parses[0] == 5
        code, out, _ = run(capsys, "describe", "--data", str(good))
        assert code == 0 and json.loads(out)["result"]["y"]["count"] == 2
        assert parses[0] == 5


class TestWriteThrough:
    """synth and ingest --out, the only commands that store cache entries,
    store the entry of each point CSV they write, so that a chain of
    commands parses none of them."""

    CHAIN = ["synth --summary {summary} --replicates 2 --seed 3 --out-dir {dir}/reps",
             "ingest --data {dir}/reps/replicate_000.csv --units {units} --out {dir}/n.csv",
             "describe --data {dir}/n.csv",
             "validate --train {dir}/reps/replicate_000.csv "
             "--test {dir}/reps/replicate_001.csv --model poly1"]

    def _chain(self, capsys, workdir, summary, clear):
        """Each stdout of CHAIN run in workdir, its paths as <dir>, and every
        file it writes but the cache entries; with ``clear``, every cache
        directory is deleted before every command."""
        workdir.mkdir()
        units = workdir / "units.cfg"
        units.write_text("thousand = count,1000\n = count\n")
        outs = []
        for argv in self.CHAIN:
            if clear:
                for cache in list(workdir.rglob(dataset.CACHE_DIR)):
                    shutil.rmtree(cache)
            code, out, err = run(capsys, *argv.format(
                summary=summary, units=units, dir=workdir).split())
            assert (code, err) == (0, "")
            outs.append(out.replace(str(workdir), "<dir>"))
        files = {p.relative_to(workdir): p.read_bytes() for p in workdir.rglob("*")
                 if p.is_file() and dataset.CACHE_DIR not in p.parts}
        return outs, files

    def test_chain_parses_nothing_and_gives_the_bytes_of_parses(
            self, capsys, tmp_path, summary_csv, parses):
        cached = self._chain(capsys, tmp_path / "cached", summary_csv, clear=False)
        assert parses[0] == 0
        for path in ("reps/replicate_000.csv", "reps/replicate_001.csv", "n.csv"):
            assert entry_of(tmp_path / "cached" / path).is_file()
        parsed = self._chain(capsys, tmp_path / "parsed", summary_csv, clear=True)
        assert parses[0] == 4
        assert cached == parsed
        assert len(cached[1]) == 4   # units.cfg, two replicates, n.csv

    def test_skip_bad_rows_read_of_a_replicate_hits(self, capsys, tmp_path, summary_csv,
                                                    parses):
        """A file synth wrote has no bad rows, so its entry serves a
        ``--skip-bad-rows`` read too, which prints the bytes of a parse."""
        code, _, err = run(capsys, "synth", "--summary", str(summary_csv),
                           "--replicates", "1", "--seed", "3", "--out-dir", str(tmp_path / "reps"))
        assert (code, err) == (0, "")
        describe = ["describe", "--data", str(tmp_path / "reps" / "replicate_000.csv"),
                    "--skip-bad-rows"]
        hit = run(capsys, *describe)
        assert parses[0] == 0
        shutil.rmtree(tmp_path / "reps" / dataset.CACHE_DIR)
        assert run(capsys, *describe) == hit
        assert parses[0] == 1
        assert hit[0] == 0 and hit[1]

    def test_no_reader_digest_means_no_cache(self, capsys, monkeypatch, tmp_path,
                                             summary_csv, parses):
        """Where dataset.py's source cannot be read (say, under a zip import)
        there is no reader digest: synth and ingest --out store no entry,
        every read parses, and every stdout and file is that of a run with
        the cache on."""
        cached = self._chain(capsys, tmp_path / "cached", summary_csv, clear=False)
        assert parses[0] == 0
        monkeypatch.setattr(dataset, "_reader_digest", lambda: None)
        plain = self._chain(capsys, tmp_path / "plain", summary_csv, clear=False)
        assert parses[0] == 4   # ingest, describe and validate's two reads
        code, out, _ = run(capsys, "describe", "--data", str(tmp_path / "plain" / "n.csv"))
        assert parses[0] == 5   # describe again: parsed again
        assert (code, out.replace(str(tmp_path / "plain"), "<dir>")) == (0, plain[0][2])
        assert plain == cached
        assert not list((tmp_path / "plain").rglob(dataset.CACHE_DIR))

    @pytest.mark.parametrize("argv, cache", [
        ("synth --summary {summary} --replicates 2 --out-dir {dir}/reps", "reps"),
        ("ingest --data {data} --out {dir}/n.csv", "."),
    ])
    def test_cache_path_that_is_a_file(self, capsys, tmp_path, data_csv, summary_csv,
                                       argv, cache):
        """A plain file where the cache directory goes: the command writes
        its CSVs and prints what it prints where the cache is stored."""
        results = []
        for name, blocked in (("free", False), ("blocked", True)):
            workdir = tmp_path / name
            (workdir / cache).mkdir(parents=True, exist_ok=True)
            if blocked:
                (workdir / cache / dataset.CACHE_DIR).write_text("not a directory\n")
            code, out, err = run(capsys, *argv.format(
                summary=summary_csv, data=data_csv, dir=workdir).split())
            assert (code, err) == (0, "")
            results.append((out.replace(str(workdir), "<dir>"),
                            {p.relative_to(workdir): p.read_bytes()
                             for p in workdir.rglob("*.csv")}))
        assert results[0] == results[1]
        assert results[0][1]
        assert (tmp_path / "blocked" / cache / dataset.CACHE_DIR).read_text() == \
            "not a directory\n"


class TestPlot:
    def test_markup_in_labels_is_escaped(self, data_csv):
        d = ingest_csv(data_csv.read_text())
        svg = io.StringIO()
        write_svg(d, svg, title="A & B <test>", x_label="age <y>",
                  y_label='"count" & more')
        root = ET.fromstring(svg.getvalue())
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"A & B <test>", "age <y>", '"count" & more'} <= set(texts)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            write_svg(Dataset.from_points([], []), io.StringIO())

    def test_constant_spans_put_the_points_mid_plot(self):
        svg = io.StringIO()
        write_svg(make_dataset([5.0, 5.0], [2.0, 2.0]), svg)
        circles = list(ET.fromstring(svg.getvalue())
                       .iter("{http://www.w3.org/2000/svg}circle"))
        assert len(circles) == 2
        for c in circles:
            assert float(c.get("cx")) == pytest.approx(
                (MARGIN_L + WIDTH - MARGIN_R) / 2, abs=1e-3)
            assert float(c.get("cy")) == pytest.approx(
                (MARGIN_T + HEIGHT - MARGIN_B) / 2, abs=1e-3)

    @pytest.mark.parametrize("hi", [3.0, 2.0])
    def test_ticks_of_an_empty_span(self, hi):
        assert _nice_ticks(3.0, hi) == [3.0]

    def test_scatter_only_wellformed(self, capsys, data_csv, tmp_path):
        svg_path = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--data", str(data_csv),
                         "--out", str(svg_path))
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        assert root.tag.endswith("svg")

    def test_identical_bytes(self, capsys, data_csv, tmp_path):
        blobs = []
        for name in ("p1.svg", "p2.svg"):
            svg_path = tmp_path / name
            run(capsys, "plot", "--data", str(data_csv),
                "--model", "gaussian_peak", "--band", "--seed", "3",
                "--out", str(svg_path))
            blobs.append(svg_path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_element_counts_325_points(self, capsys, tmp_path):
        rows = [SummaryRow(x=float(a), n=65, mean=10.0, sd=1.0)
                for a in (10, 20, 30, 40, 50)]
        d = reconstruct_dataset(rows, seed=1)
        assert len(d) == 325
        data_csv = tmp_path / "d325.csv"
        write_dataset_csv(data_csv, d)
        svg_path = tmp_path / "p.svg"
        code, _, _ = run(capsys, "plot", "--data", str(data_csv),
                         "--model", "poly1", "--out", str(svg_path))
        assert code == 0
        root = ET.fromstring(svg_path.read_text())
        ns = "{http://www.w3.org/2000/svg}"
        circles = root.findall(f"{ns}circle")
        polylines = root.findall(f"{ns}polyline")
        assert len(circles) == 325
        assert len(polylines) == 1

    @pytest.mark.parametrize("studies", [["s"], ["s", "t"]])
    def test_markers_match_the_per_row_template(self, studies):
        """Each marker is the per-row _CIRCLE template of its row, whether
        the fill is one colour (one study) or varies."""
        rng = np.random.default_rng(len(studies))
        n = 4096 + 300
        d = Dataset.from_points(rng.integers(0, 60, n) + 0.5, rng.uniform(0, 100, n),
                                study=[studies[i] for i in rng.integers(0, len(studies), n)])
        svg = io.StringIO()
        write_svg(d, svg)
        got = [line + "\n" for line in svg.getvalue().split("\n")
               if line.startswith("<circle")]
        # the reference: one row at a time, in Python floats
        x_lo, x_hi = plotting._range([d.xs], 0.03)
        y_lo, y_hi = plotting._range([d.ys], 0.05)
        plot_w, plot_h = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
        colour = {sid: plotting.PALETTE[i] for i, sid in enumerate(studies)}
        want = [plotting._CIRCLE % ("%.3f" % (MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w),
                                    MARGIN_T + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h,
                                    colour[sid])
                for x, y, sid in zip(d.xs.tolist(), d.ys.tolist(), d.study_ids)]
        assert got == want

    def test_markers_are_written_in_parts(self):
        """write_svg never holds the document: its peak is under a quarter of it."""
        rng = np.random.default_rng(5)
        n = 50_000
        d = Dataset.from_points(rng.integers(0, 60, n) + 0.5, rng.uniform(0, 100, n),
                                study=[f"s{i}" for i in rng.integers(0, 8, n)])

        class Length:
            chars = 0

            def write(self, text):
                self.chars += len(text)

        sink = Length()
        tracemalloc.start()
        try:
            write_svg(d, sink, title="memory")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars > 4_000_000
        assert peak < sink.chars / 4


class TestOutputFiles:
    """A file is written whole or not at all: a writer that fails midway
    leaves neither a partial file nor a temp file behind."""

    def test_write_replaces_only_on_success(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n")

        def broken(fh):
            fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._write(path, broken)
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.csv"]
        cli._write(path, lambda fh: fh.write("new\n"))
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("argv, target", [
        ("ingest --data {data} --out {out}/n.csv", "write_csv"),
        ("synth --summary {summary} --replicates 2 --out-dir {out}", "write_csv"),
        ("plot --data {data} --out {out}/p.svg", "write_svg"),
        ("analyze --data {data} --model poly1 --band-out {out}/band.csv", "to_csv"),
    ])
    def test_failing_writer_leaves_no_file(self, capsys, monkeypatch, data_csv,
                                           summary_csv, tmp_path, argv, target):
        def broken(*args, **kwargs):
            if len(args) > 1:   # a writer: write part of the file first
                args[1].write("partial")
            raise ValueError("writer failed midway")

        if target == "to_csv":
            monkeypatch.setattr(IntervalBand, "to_csv", broken)
        else:   # a handler looks its writer up in the defining module
            module = plotting if target == "write_svg" else dataset
            monkeypatch.setattr(module, target, broken)
        out = tmp_path / "out"
        out.mkdir()
        code, stdout, err = run(capsys, *argv.format(
            data=data_csv, summary=summary_csv, out=out).split())
        assert (code, stdout, err) == (1, "", "error: writer failed midway\n")
        assert list(out.iterdir()) == []


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, data_csv,
                                                tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = x\nseed = 42\n")
        code, out, _ = run(capsys, "describe", "--data", str(data_csv),
                           "--config", str(cfg))
        assert code == 0
        assert "x" in json.loads(out)["result"]
        # explicit flag beats the config value
        code, out, _ = run(capsys, "describe", "--data", str(data_csv),
                           "--config", str(cfg), "--axis", "y")
        assert "y" in json.loads(out)["result"]

    def test_config_int_option_with_none_default(self, capsys, data_csv,
                                                 tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_sign_changes = 0\ncatalog_filter = gaussian\n")
        code, out, err = run(capsys, "rank", "--data", str(data_csv),
                             "--config", str(cfg))
        assert code == 0, err
        reasons = {e["spec_name"]: e["reason"]
                   for e in json.loads(out)["result"]["entries"]}
        assert reasons["gaussian_peak"] == "derivative changes sign 1 times"

    def test_config_path_option_with_none_default(self, capsys, data_csv,
                                                  tmp_path):
        cfg = tmp_path / "run.cfg"
        board = tmp_path / "board"
        cfg.write_text(f"out = {board}\ncatalog_filter = poly1\n")
        code, out, err = run(capsys, "rank", "--data", str(data_csv),
                             "--config", str(cfg))
        assert code == 0, err
        assert (board / "leaderboard.json").read_text() == out

    def test_config_list_option(self, capsys, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ages = 20,35\n")
        code, out, err = run(capsys, "analyze", "--data", str(data_csv),
                             "--model", "gaussian_peak", "--config", str(cfg))
        assert code == 0, err
        assert set(json.loads(out)["result"]["percent_remaining"]) \
            == {"20.0", "35.0"}

    def test_unknown_key_names_key_and_line(self, capsys, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# describe defaults\naxiss = x\nsed = 4\n")
        code, out, err = run(capsys, "describe", "--data", str(data_csv),
                             "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == "error: config line 2: unknown key 'axiss' for describe\n"

    @pytest.mark.parametrize("value", ["ture", "2", ""])
    def test_unreadable_boolean_names_its_line(self, capsys, data_csv, tmp_path,
                                               value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"catalog_filter = poly1\nnonnegative = {value}\n")
        code, out, err = run(capsys, "rank", "--data", str(data_csv),
                             "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == (f"error: config line 2: nonnegative takes 1, true, yes, "
                       f"0, false or no, got {value!r}\n")

    def test_boolean_spellings(self, capsys, data_csv, tmp_path):
        reports = {}
        for value in ("1", "True", "yes", "0", "false", "NO"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"catalog_filter = poly1\nnonnegative = {value}\n")
            code, out, err = run(capsys, "rank", "--data", str(data_csv),
                                 "--config", str(cfg))
            assert code == 0, err
            reports[value] = json.loads(out)["result"]
        on, off = (run(capsys, "rank", "--data", str(data_csv),
                       "--catalog-filter", "poly1", *flag)[1]
                   for flag in (["--nonnegative"], []))
        assert on != off
        for value, result in reports.items():
            want = on if value.lower() in ("1", "true", "yes") else off
            assert result == json.loads(want)["result"], value

    def test_line_without_equals_names_its_line(self, capsys, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# defaults\naxis x\n")
        code, _, err = run(capsys, "describe", "--data", str(data_csv),
                           "--config", str(cfg))
        assert code == 1
        assert err == "error: config line 2: expected key=value\n"

    @pytest.mark.parametrize("key", ["units", "subcommand", "func", "config"])
    def test_key_without_an_option_is_unknown(self, capsys, summary_csv,
                                              tmp_path, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = x\n")
        code, _, err = run(capsys, "synth", "--summary", str(summary_csv),
                           "--out-dir", str(tmp_path / "reps"), "--config", str(cfg))
        assert code == 1
        assert err == f"error: config line 1: unknown key {key!r} for synth\n"

    def test_config_is_read_as_utf8_in_any_locale(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("title = Gewicht Ø\n", encoding="utf-8")
        svg_path = tmp_path / "p.svg"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "LC_ALL": "C", "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "curvemine.cli", "plot",
             "--data", str(data_csv), "--out", str(svg_path), "--config", str(cfg)],
            env=env, capture_output=True, encoding="utf-8")
        assert proc.returncode == 0, proc.stderr
        root = ET.fromstring(svg_path.read_bytes())
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "Gewicht Ø" in texts


class TestImportFootprint:
    """A command imports only the package modules it runs, in a fresh
    interpreter; ``statistics`` (with ``decimal`` and ``fractions``) comes in
    only with ``analyze``."""

    LOADED = ("print(*sorted(m for m in sys.modules if m.split('.')[0] in "
              "('curvemine', 'statistics')), file=sys.stderr)")

    @pytest.mark.parametrize("code, loaded", [
        ("import curvemine", "curvemine"),
        ("from curvemine import cli; assert cli.main(['catalog']) == 0",
         "curvemine curvemine.cli curvemine.models"),
        ("from curvemine import cli; "
         "assert cli.main(['rank', '--data', sys.argv[1], '--starts', '1']) == 0",
         "curvemine curvemine.cli curvemine.dataset curvemine.fit curvemine.models"),
    ], ids=["import", "catalog", "rank"])
    def test_modules_loaded(self, data_csv, code, loaded):
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; {code}; {self.LOADED}",
             str(data_csv)],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == loaded.split()
