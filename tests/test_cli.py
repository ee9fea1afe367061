import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

from pathlib import Path

import numpy as np
import pytest

from curvemine import cli
from curvemine.analyze import percent_remaining
from curvemine.cli import main
from curvemine.dataset import ingest_csv, write_csv
from curvemine.fit import multi_start
from curvemine.models import get_model
from curvemine.plotting import render_svg
from curvemine.synth import SummaryRow, reconstruct_dataset
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

    def test_catalog_export(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        assert json.loads(out)["numpy"] == np.__version__
        models = json.loads(out)["result"]["models"]
        assert len(models) >= 30
        assert {"name", "n_params", "family_class", "bounds"} <= set(models[0])


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


ENVELOPE_KEYS = {"command", "version", "numpy", "seed", "inputs", "result"}


class TestEnvelope:
    """Every report command writes one envelope that digests what it read."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """Paths the CLI opens for reading while the test runs."""
        paths = set()

        def spy(path, mode="r", *args, **kwargs):
            if "r" in mode:
                paths.add(str(path))
            return open(path, mode, *args, **kwargs)

        monkeypatch.setattr(cli, "open", spy, raising=False)
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


class TestPlot:
    def test_markup_in_labels_is_escaped(self, data_csv):
        d = ingest_csv(data_csv.read_text())
        svg = render_svg(d, title="A & B <test>", x_label="age <y>",
                         y_label='"count" & more')
        root = ET.fromstring(svg)
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert {"A & B <test>", "age <y>", '"count" & more'} <= set(texts)

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
