import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvemine.dataset import (
    DataPoint,
    Dataset,
    IngestError,
    StudyMeta,
    UnknownUnitError,
    UnitTable,
    describe,
    ingest_csv,
    merge,
    normalize_units,
    read_unit_table,
    split_by_assay,
    write_csv,
)

from conftest import make_dataset


CSV_BAKER = """study_id,x,y
A,-0.6,100
A,7.0,250
A,-0.2,150
"""


class TestIngest:
    def test_three_rows_synthesizes_study_meta(self):
        d = ingest_csv(CSV_BAKER)
        assert len(d) == 3
        meta = d.study("A")
        assert meta.min_age == -0.6
        assert meta.max_age == 7.0
        assert meta.median_age == -0.2
        assert meta.n_observations == 3

    def test_singleton_zero(self):
        d = ingest_csv("study_id,x,y\nA,0,0\n")
        meta = d.study("A")
        assert meta.min_age == meta.max_age == meta.median_age == 0.0

    def test_row_order_preserved(self):
        d = ingest_csv(CSV_BAKER)
        assert [p.x for p in d.points] == [-0.6, 7.0, -0.2]

    def test_500_rows_against_sort_oracle(self):
        rng = np.random.default_rng(0)
        rows = ["study_id,x,y"]
        per_study = {}
        for i in range(500):
            sid = f"s{i % 7}"
            x = float(np.round(rng.uniform(-1.0, 60.0), 6))
            rows.append(f"{sid},{x},{rng.uniform(0, 10):.6f}")
            per_study.setdefault(sid, []).append(x)
        d = ingest_csv("\n".join(rows) + "\n")
        for sid, ages in per_study.items():
            ages = sorted(ages)
            n = len(ages)
            med = ages[n // 2] if n % 2 else 0.5 * (ages[n // 2 - 1] + ages[n // 2])
            meta = d.study(sid)
            assert meta.min_age == ages[0]
            assert meta.max_age == ages[-1]
            assert meta.median_age == pytest.approx(med)

    def test_missing_column(self):
        with pytest.raises(IngestError, match="missing required column"):
            ingest_csv("study_id,x\nA,1\n")

    def test_bad_rows_abort_with_row_numbers(self):
        csv_text = "study_id,x,y\nA,1,5\nA,nope,5\nA,2,-3\n"
        with pytest.raises(IngestError) as exc:
            ingest_csv(csv_text)
        assert "row 3" in str(exc.value)
        assert "row 4" in str(exc.value)

    def test_skip_bad_rows_opt_in(self):
        csv_text = "study_id,x,y\nA,1,5\nA,nope,5\nA,2,3\n"
        d = ingest_csv(csv_text, skip_bad_rows=True)
        assert len(d) == 2

    def test_age_floor(self):
        with pytest.raises(IngestError):
            ingest_csv("study_id,x,y\nA,-2.0,5\n")

    def test_empty_file(self):
        with pytest.raises(IngestError):
            ingest_csv("")
        with pytest.raises(IngestError):
            ingest_csv("study_id,x,y\n")

    def test_schema_mapping(self):
        d = ingest_csv("ref,age,count\nA,5,10\n",
                       schema={"study_id": "ref", "x": "age", "y": "count"})
        assert d.points[0].x == 5.0

    def test_round_trip_fixed_point(self):
        csv_text = ("study_id,x,y,unit,assay_id,weight\n"
                    "A,-0.6,100.5,ng/ml,k1,1.0\nB,7.0,3.25,,,2.5\n")
        d1 = ingest_csv(csv_text)
        buf = io.StringIO()
        write_csv(d1, buf)
        d2 = ingest_csv(buf.getvalue())
        assert d1.points == d2.points
        buf2 = io.StringIO()
        write_csv(d2, buf2)
        assert buf.getvalue() == buf2.getvalue()


class TestUnits:
    def test_synonym_label(self):
        t = UnitTable({"ng/ml": ("µg/l", 1.0)})
        d = make_dataset([1.0], [3.5], unit="ng/ml")
        out = normalize_units(d, t)
        assert out.points[0].unit == "µg/l"
        assert out.points[0].y == 3.5

    def test_already_canonical_identity(self):
        t = UnitTable({"µg/l": ("µg/l", 1.0)})
        d = make_dataset([1.0, 2.0], [3.5, 4.5], unit="µg/l")
        assert normalize_units(d, t) == d

    def test_factor_arithmetic(self):
        t = UnitTable({"mm3": ("ml", 0.001)})
        d = make_dataset([1.0], [2000.0], unit="mm3")
        assert normalize_units(d, t).points[0].y == pytest.approx(2.0)

    def test_unknown_unit_names_label(self):
        t = UnitTable({})
        d = make_dataset([1.0], [1.0], unit="cubits")
        with pytest.raises(UnknownUnitError, match="cubits"):
            normalize_units(d, t)

    def test_ages_untouched(self):
        t = UnitTable({"mm3": ("ml", 0.001)})
        d = make_dataset([1.0, 5.0, 9.0], [10.0, 20.0, 30.0], unit="mm3")
        assert describe(normalize_units(d, t), axis="x") == describe(d, axis="x")

    def test_config_file_parse(self):
        t = read_unit_table("# units\nng/ml = µg/l,1.0\nmm3 = ml,0.001\nMIS = AMH\n")
        assert t.resolve("ng/ml") == ("µg/l", 1.0)
        assert t.resolve("mm3") == ("ml", 0.001)
        assert t.resolve("MIS") == ("AMH", 1.0)
        # canonical labels resolve to themselves
        assert t.resolve("ml") == ("ml", 1.0)

    def test_bad_factor(self):
        with pytest.raises(ValueError):
            UnitTable({"a": ("b", -1.0)})


class TestMerge:
    def test_identity_element(self):
        d = make_dataset([1.0, 2.0], [3.0, 4.0])
        empty = Dataset(points=(), studies=(), label="")
        assert merge([d, empty]).points == d.points

    def test_table_counts_sum_to_325(self):
        counts = [11, 11, 15, 19, 122, 86, 52, 9]
        parts = [
            make_dataset(np.linspace(0, 50, c), np.ones(c), study_id=f"s{i}")
            for i, c in enumerate(counts)
        ]
        assert len(merge(parts)) == 325

    def test_partition_recombine_oracle(self):
        rng = np.random.default_rng(3)
        d = make_dataset(rng.uniform(0, 50, 200), rng.uniform(0, 9, 200))
        labels = rng.integers(0, 3, 200)
        parts = []
        for g in range(3):
            pts = tuple(p for p, l in zip(d.points, labels) if l == g)
            parts.append(Dataset(points=pts, studies=d.studies))
        back = merge(parts)
        for axis in ("x", "y"):
            assert describe(back, axis) == describe(d, axis)

    def test_conflicting_metadata(self):
        a = Dataset(points=(), studies=(StudyMeta("s", year=1999),))
        b = Dataset(points=(), studies=(StudyMeta("s", year=2000),))
        with pytest.raises(ValueError, match="conflicting"):
            merge([a, b])

    @given(st.permutations(range(4)))
    @settings(max_examples=20, deadline=None)
    def test_merge_order_invariance(self, order):
        rng = np.random.default_rng(11)
        parts = [
            make_dataset(rng.uniform(0, 9, 5), rng.uniform(0, 9, 5),
                         study_id=f"s{i}")
            for i in range(4)
        ]
        base = describe(merge(parts), "y")
        assert describe(merge([parts[i] for i in order]), "y") == base


class TestDescribe:
    def test_overall_row_ages(self):
        d = make_dataset([-0.6, 32.0, 51.0], [1.0, 2.0, 3.0])
        desc = describe(d, axis="x")
        assert desc.min == -0.6
        assert desc.max == 51.0
        assert desc.median == 32.0

    def test_singleton(self):
        d = make_dataset([5.0], [7.0])
        desc = describe(d, axis="y")
        assert desc.min == desc.max == desc.median == desc.mean == 7.0
        assert desc.sd == 0.0

    def test_even_count_median_is_midpoint_mean(self):
        d = make_dataset([0, 1, 2, 3], [1.0, 2.0, 10.0, 20.0])
        assert describe(d, axis="y").median == pytest.approx(6.0)

    def test_streaming_oracle(self):
        rng = np.random.default_rng(5)
        ys = rng.uniform(0, 100, 1000)
        d = make_dataset(np.arange(1000.0), ys)
        desc = describe(d, axis="y")
        # independent second pass
        n = len(ys)
        mean = sum(ys) / n
        var = sum((v - mean) ** 2 for v in ys) / (n - 1)
        assert desc.mean == pytest.approx(mean, rel=1e-12)
        assert desc.sd == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            describe(Dataset(points=(), studies=()), "y")


class TestSplitByAssay:
    def test_basic_partition(self):
        pts = [
            DataPoint(x=1, y=1, study_id="s", assay_id="A"),
            DataPoint(x=2, y=2, study_id="s", assay_id="A"),
            DataPoint(x=3, y=3, study_id="s", assay_id="B"),
        ]
        d = Dataset.from_points(pts)
        out = split_by_assay(d)
        assert {k: len(v) for k, v in out.items()} == {"A": 2, "B": 1}

    def test_single_assay_identity(self):
        d = make_dataset([1, 2, 3], [1, 2, 3], assay="A")
        out = split_by_assay(d)
        assert list(out) == ["A"]
        assert out["A"].points == d.points

    def test_missing_assay_lists_studies(self):
        pts = [
            DataPoint(x=1, y=1, study_id="good", assay_id="A"),
            DataPoint(x=2, y=2, study_id="bad", assay_id=None),
        ]
        d = Dataset.from_points(pts)
        with pytest.raises(ValueError, match="bad"):
            split_by_assay(d)

    def test_merge_back_oracle(self):
        rng = np.random.default_rng(9)
        pts = [
            DataPoint(x=float(x), y=float(y), study_id="s",
                      assay_id=rng.choice(["A", "B", "C"]))
            for x, y in zip(rng.uniform(0, 9, 100), rng.uniform(0, 9, 100))
        ]
        d = Dataset.from_points(pts)
        parts = split_by_assay(d)
        assert sum(len(v) for v in parts.values()) == len(d)
        back = merge(list(parts.values()))
        assert sorted(back.points, key=lambda p: (p.x, p.y)) == \
            sorted(d.points, key=lambda p: (p.x, p.y))


class TestInvariants:
    def test_point_validation(self):
        with pytest.raises(ValueError):
            DataPoint(x=-1.5, y=1.0, study_id="s")
        with pytest.raises(ValueError):
            DataPoint(x=1.0, y=-0.1, study_id="s")
        with pytest.raises(ValueError):
            DataPoint(x=1.0, y=float("nan"), study_id="s")
        with pytest.raises(ValueError):
            DataPoint(x=1.0, y=1.0, study_id="s", weight=0.0)

    def test_point_study_must_be_known(self):
        with pytest.raises(ValueError):
            Dataset(points=(DataPoint(x=1, y=1, study_id="ghost"),), studies=())

    def test_columns_built_once_and_read_only(self):
        d = Dataset.from_points([
            DataPoint(x=float(i), y=2.0 * i, study_id="s", weight=1.0 + i)
            for i in range(5)])
        for name, want in (("xs", [0, 1, 2, 3, 4]), ("ys", [0, 2, 4, 6, 8]),
                           ("weights", [1, 2, 3, 4, 5])):
            col = getattr(d, name)
            assert getattr(d, name) is col
            with pytest.raises(ValueError):
                col[0] = 99.0
            with pytest.raises(ValueError):
                col += 1.0
            assert getattr(d, name).tolist() == want
        assert d == Dataset.from_points(d.points)
