import dataclasses
import json
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcoupon import fileio
from seqcoupon.decision import (
    PlanTable,
    PolicyConstraint,
    allocate_batch,
    materialize_plans,
)
from seqcoupon.domain import CouponConfig, OutcomeLog
from seqcoupon.errors import InputError, ManifestMismatchError
from seqcoupon.evaluation import (
    BucketRow,
    ComparisonReport,
    DelayTables,
    StrategyMetrics,
    UpliftCurve,
)
from seqcoupon.fileio import (
    BUCKET_HEADER,
    CATALOG_HEADER,
    CURVE_HEADER,
    GRID_HEADER,
    MANIFEST_NAME,
    OUTCOME_HEADER,
    PLAN_HEADER,
    build_manifest,
    ensure_manifest,
    fmt,
    load_model,
    load_pair,
    read_catalog,
    read_outcomes,
    render_comparison_report,
    save_model,
    save_pair,
    sha256_of_file,
    write_catalog,
    write_curve,
    write_delay_tables,
    write_grid_table,
    write_outcomes,
    write_plans,
)
from seqcoupon.learner import GridResult, LearnerConfig, train
from seqcoupon.simulator import CatalogArrays
from seqcoupon.uplift import predict_batch

import oracles
from test_decision import plans_of
from test_learner import synthetic_dataset


def assert_records_close(left, right, float_fields, exact_fields):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        for f in exact_fields:
            assert getattr(a, f) == getattr(b, f), f
        for f in float_fields:
            va, vb = getattr(a, f), getattr(b, f)
            if va is None or vb is None:
                assert va == vb, f
            else:
                assert va == pytest.approx(vb, rel=1e-11, abs=1e-11), f


class TestHeadersFrozen:
    def test_literal_headers(self):
        assert CATALOG_HEADER == (
            "item_id,seller_id,price_yen,condition,age_days,likes,"
            "demand_index,season_phase,seller_ltv_yen,key_action_ts"
        )
        assert OUTCOME_HEADER == (
            "item_id,round,discount_pct,validity_hours,cap_yen,attach_delay_h,"
            "sold,purchase_delay_h,sale_price_yen,coupon_cost_yen"
        )
        assert PLAN_HEADER == (
            "item_id,j_discount_pct,j_validity_h,j_cap,k_discount_pct,k_validity_h,"
            "k_cap,attach_delay_h,p_round1,p_round2,p_combined,p_baseline,lift,"
            "expected_cost,roi,feasible"
        )
        assert CURVE_HEADER == "fraction,uplift,lo,hi"
        assert BUCKET_HEADER == "bucket_start_h,metric,value,n"


class TestFmt:
    def test_cells(self):
        assert fmt(None) == ""
        assert fmt(math.inf) == "inf"
        assert fmt(2.0) == "2"
        assert fmt(0.1) == "0.1"
        assert fmt(1 / 3) == "0.333333333333"
        assert fmt(1e-30) == "1e-30"


class TestCatalogRoundTrip:
    def test_round_trip(self, tmp_path, small_world):
        items = small_world["items"][:100]
        path = str(tmp_path / "catalog.csv")
        write_catalog(items, path)
        with open(path) as fh:
            assert fh.readline().rstrip("\n") == CATALOG_HEADER
        back = read_catalog(path).to_items()
        assert_records_close(
            items,
            back,
            float_fields=("age_days", "demand_index", "season_phase", "key_action_ts"),
            exact_fields=(
                "item_id", "seller_id", "price_yen", "condition", "likes", "seller_ltv_yen",
            ),
        )

    def test_rerun_byte_identical(self, tmp_path, small_world):
        items = small_world["items"][:50]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_catalog(items, a)
        write_catalog(items, b)
        assert sha256_of_file(a) == sha256_of_file(b)

    def test_empty_catalog_writes_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_catalog([], path)
        with open(path) as fh:
            assert fh.read() == CATALOG_HEADER + "\n"
        assert len(read_catalog(path)) == 0

    def test_wrong_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("item_id,price_yen\nx,100\n")
        with pytest.raises(InputError):
            read_catalog(path)

    def test_empty_file_rejected(self, tmp_path):
        path = str(tmp_path / "nothing.csv")
        open(path, "w").close()
        with pytest.raises(InputError):
            read_catalog(path)

    def test_bad_cell_reported_with_location(self, tmp_path, small_world):
        path = str(tmp_path / "corrupt.csv")
        write_catalog(small_world["items"][:2], path)
        text = open(path).read().splitlines()
        parts = text[2].split(",")
        parts[2] = "not-a-price"
        text[2] = ",".join(parts)
        with open(path, "w") as fh:
            fh.write("\n".join(text) + "\n")
        with pytest.raises(InputError, match=r":3: .*price_yen"):
            read_catalog(path)


class TestOutcomeRoundTrip:
    def test_round_trip(self, tmp_path, small_world):
        for name in ("log1", "log2"):
            records = list(small_world[name])[:200]
            path = str(tmp_path / f"{name}.csv")
            write_outcomes(OutcomeLog.from_records(records), path)
            back = list(read_outcomes(path))
            assert_records_close(
                records,
                back,
                float_fields=("attach_delay_h", "purchase_delay_h"),
                exact_fields=(
                    "item_id", "round", "coupon", "sold", "sale_price_yen", "coupon_cost_yen",
                ),
            )

    def test_sold_flag_is_binary(self, tmp_path):
        path = str(tmp_path / "log.csv")
        with open(path, "w") as fh:
            fh.write(OUTCOME_HEADER + "\n")
            fh.write("it-1,1,0,0,0,2,yes,,,\n")
        with pytest.raises(InputError, match="sold"):
            read_outcomes(path)

    def test_zero_discount_reads_as_no_coupon(self, tmp_path):
        path = str(tmp_path / "log.csv")
        with open(path, "w") as fh:
            fh.write(OUTCOME_HEADER + "\n")
            fh.write("it-1,1,0,0,0,2,0,,,\n")
        (record,) = read_outcomes(path)
        assert record.coupon == CouponConfig.none()
        assert record.purchase_delay_h is None


def column_bytes(table) -> dict:
    """Every column of a ``CatalogArrays`` or ``OutcomeLog`` as comparable bytes."""
    out = {}
    for f in dataclasses.fields(table):
        value = getattr(table, f.name)
        out[f.name] = value if isinstance(value, tuple) else (value.dtype, value.tobytes())
    return out


class TestColumnParse:
    """The column-wise parse against the row parser it falls back to."""

    @pytest.fixture
    def files(self, tmp_path, small_world):
        paths = {name: str(tmp_path / f"{name}.csv") for name in ("catalog", "log1", "log2")}
        write_catalog(small_world["items"], paths["catalog"])
        write_outcomes(small_world["log1"], paths["log1"])
        write_outcomes(small_world["log2"], paths["log2"])
        return paths

    @pytest.mark.parametrize("name", ["catalog", "log1", "log2"])
    def test_fallback_gives_the_same_bits(self, files, monkeypatch, name):
        read = read_catalog if name == "catalog" else read_outcomes
        fast = read(files[name])
        monkeypatch.setattr(fileio, "_parse_columns", lambda path, header, dtype: None)
        rows = read(files[name])
        assert len(fast) > 1000
        assert column_bytes(fast) == column_bytes(rows)

    @pytest.mark.parametrize("name", ["log1", "log2"])
    def test_outcome_writer_matches_the_per_record_writer(self, tmp_path, small_world, name):
        log = small_world[name]
        columnar, per_record = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_outcomes(log, columnar)
        oracles.write_outcomes_per_record(list(log), per_record)
        assert open(columnar, "rb").read() == open(per_record, "rb").read()

    def test_catalog_writer_matches_the_per_record_writer(self, tmp_path, small_world):
        columnar, per_record = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_catalog(CatalogArrays.from_items(small_world["items"]), columnar)
        oracles.write_catalog_per_record(small_world["items"], per_record)
        assert open(columnar, "rb").read() == open(per_record, "rb").read()

    @pytest.mark.parametrize(
        "name,column,cell,message",
        [
            ("catalog", 2, "12.5", "column 'price_yen' is not an integer: '12.5'"),
            ("catalog", 9, "soon", "column 'key_action_ts' is not a number: 'soon'"),
            ("log1", 5, "", "column 'attach_delay_h' is not a number: ''"),
            ("log1", 6, "yes", "column 'sold' must be 0 or 1, got 'yes'"),
            ("log2", 1, "2.0", "column 'round' is not an integer: '2.0'"),
        ],
    )
    def test_bad_cell_names_its_line(self, files, name, column, cell, message):
        path = files[name]
        lines = open(path).read().splitlines()
        # A blank line still counts: the bad row sits on line 7 of the file.
        lines.insert(3, "")
        parts = lines[6].split(",")
        parts[column] = cell
        lines[6] = ",".join(parts)
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        read = read_catalog if name == "catalog" else read_outcomes
        with pytest.raises(InputError, match=re.escape(f"{path}:7: {message}")):
            read(path)

    def test_row_width_is_checked(self, files):
        path = files["log1"]
        with open(path, "a") as fh:
            fh.write("it9999999,1,0,0,0,2,0,,\n")
        n = len(open(path).read().splitlines())
        with pytest.raises(InputError, match=re.escape(f"{path}:{n}: expected 10 cells, got 9")):
            read_outcomes(path)

    def test_quoted_cells_parse_as_the_csv_module_reads_them(self, tmp_path):
        path = str(tmp_path / "log.csv")
        with open(path, "w") as fh:
            fh.write(OUTCOME_HEADER + '\n"it-1",1,0,0,0,"2.5",0,,,\n')
        (record,) = read_outcomes(path)
        assert record.item_id == "it-1" and record.attach_delay_h == 2.5

    def test_no_coupon_row_ignores_validity_and_cap_cells(self, tmp_path):
        path = str(tmp_path / "log.csv")
        with open(path, "w") as fh:
            fh.write(OUTCOME_HEADER + "\nit-1,1,0,n/a,-7,2,0,,,\n")
        (record,) = read_outcomes(path)
        assert record.coupon == CouponConfig.none()

    @pytest.mark.parametrize("header,read", [(CATALOG_HEADER, read_catalog),
                                             (OUTCOME_HEADER, read_outcomes)])
    def test_header_only_file_is_empty(self, tmp_path, header, read):
        path = str(tmp_path / "empty.csv")
        with open(path, "w") as fh:
            fh.write(header + "\n")
        table = read(path)
        assert len(table) == 0
        assert all(len(getattr(table, f.name)) == 0 for f in dataclasses.fields(table))


# Rows that parse cleanly: no-coupon and coupon rows, sold and unsold.
PARSE_CATALOG = [
    "it-1,s-1,1200,3,10.5,4,0.8,0.25,50000,1.5",
    "it-2,s-2,4800,5,0,0,1.25,0.75,9000,20",
    "it-3,s-1,300,1,2.75,12,0.5,0,120000,0.125",
]
PARSE_LOG = [
    "it-1,1,0,0,0,2,0,,,",
    "it-2,1,0,0,0,1.5,1,3.25,5000,0",
    "it-3,1,10,72,1000,2,0,,,",
    "it-4,1,10,72,1000,0.5,1,12,3000,300",
]
# Cells that int()/float() and np.loadtxt may read differently, plus garbage.
PARSE_CELLS = (
    " 5 ", "\t7 ", "+5", "-0", "05", "1_0", "\u0661\u0662", "9223372036854775808", "1e400",
    "nan", "inf", "0x10", "5.", "", "n/a",
)
CATALOG_NUMERIC = range(2, 10)
LOG_NUMERIC = (1, 2, 3, 4, 5, 7, 8, 9)


def read_or_error(read, path):
    """What ``read`` makes of a file: its columns as bytes, or its exception."""
    try:
        return column_bytes(read(path))
    except Exception as exc:
        return type(exc), str(exc)


class TestParseEquivalence:
    """The one-call parse returns the row parser's columns or raises its error."""

    @staticmethod
    def substituted(rows, substitutions):
        cells = [row.split(",") for row in rows]
        for row, column, cell in substitutions:
            cells[row % len(cells)][column] = cell
        return [",".join(row) for row in cells]

    @given(
        catalog=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(CATALOG_NUMERIC),
                                   st.sampled_from(PARSE_CELLS)), max_size=3),
        log=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(LOG_NUMERIC),
                               st.sampled_from(PARSE_CELLS)), max_size=3),
        no_coupon_cells=st.tuples(st.sampled_from(PARSE_CELLS), st.sampled_from(PARSE_CELLS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_the_row_parser(self, catalog, log, no_coupon_cells):
        log_rows = self.substituted(PARSE_LOG, log)
        # Validity and cap of the first, no-coupon row are never read.
        first = log_rows[0].split(",")
        first[3:5] = no_coupon_cells
        log_rows[0] = ",".join(first)
        with tempfile.TemporaryDirectory() as root:
            for name, header, rows, read in (
                ("catalog", CATALOG_HEADER, self.substituted(PARSE_CATALOG, catalog),
                 read_catalog),
                ("log", OUTCOME_HEADER, log_rows, read_outcomes),
            ):
                path = os.path.join(root, f"{name}.csv")
                with open(path, "w", newline="\n") as fh:
                    fh.write("\n".join([header, *rows]) + "\n")
                fast = read_or_error(read, path)
                with mock.patch.object(fileio, "_parse_columns", return_value=None):
                    assert fast == read_or_error(read, path)

    # (table, row, column, header name): every yen cell the readers parse.
    YEN_CELLS = [
        ("catalog", 1, 2, "price_yen"), ("catalog", 1, 8, "seller_ltv_yen"),
        ("log", 3, 4, "cap_yen"), ("log", 3, 8, "sale_price_yen"),
        ("log", 3, 9, "coupon_cost_yen"),
    ]

    @pytest.mark.parametrize("cell", [str(2**53), str(2**63), str(-2**53), str(-2**63 - 1)])
    @pytest.mark.parametrize("name,row,column,header", YEN_CELLS)
    def test_yen_past_2_53_names_its_line(self, tmp_path, name, row, column, header, cell):
        path = str(tmp_path / f"{name}.csv")
        rows, table_header, read = (
            (PARSE_CATALOG, CATALOG_HEADER, read_catalog) if name == "catalog"
            else (PARSE_LOG, OUTCOME_HEADER, read_outcomes)
        )
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join([table_header, *self.substituted(rows, [(row, column, cell)])]))
        message = (f"{path}:{row + 2}: column {header!r} is out of range, "
                   f"|yen| must be below 2**53: {cell!r}")
        with pytest.raises(InputError, match=re.escape(message)):
            read(path)
        with mock.patch.object(fileio, "_parse_columns", return_value=None):
            with pytest.raises(InputError, match=re.escape(message)):
                read(path)

    def test_yen_just_below_2_53_is_read(self, tmp_path):
        path = str(tmp_path / "catalog.csv")
        rows = self.substituted(PARSE_CATALOG, [(0, 2, str(2**53 - 1)), (2, 8, str(2**53 - 1))])
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join([CATALOG_HEADER, *rows]) + "\n")
        cat = read_catalog(path)
        assert cat.price[0] == 2**53 - 1 and cat.ltv[2] == 2**53 - 1

    def test_canonical_files_parse_in_one_call(self, tmp_path, monkeypatch, small_world):
        paths = (str(tmp_path / "catalog.csv"), str(tmp_path / "log.csv"))
        write_catalog(small_world["items"][:300], paths[0])
        write_outcomes(small_world["log1"], paths[1])
        monkeypatch.setattr(fileio, "_read_rows", None)  # the row parser is never reached
        assert len(read_catalog(paths[0])) == 300
        assert len(read_outcomes(paths[1])) == len(small_world["log1"])


class TestPlanWriter:
    def test_rows_and_inf_sentinel(self, tmp_path, round1_menu, round2_menu):
        # No round-1 coupon and no round-2 sale: lift at no expected cost.
        table = materialize_plans(
            ["it-free"], np.array([0]), np.array([1]), np.array([True]), np.full((1, 4), 0.5),
            np.zeros((1, 4)), np.array([0.4]), np.array([3000]), np.array([20000]),
            round1_menu, round2_menu, PolicyConstraint(),
        )
        path = str(tmp_path / "plans.csv")
        write_plans(table, path)
        lines = open(path).read().splitlines()
        assert lines[0] == PLAN_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "it-free"
        assert cells[1] == "0" and cells[4] == "5"
        assert cells[14] == "inf"
        assert cells[15] == "1"

    def test_table_writer_matches_the_per_plan_writer(self, tmp_path, round1_menu, round2_menu):
        # More rows than one write block, with free (ROI +inf) and infeasible plans.
        gen = np.random.default_rng(6)
        n = fileio.WRITE_BLOCK_ROWS + 300
        p1, p2 = gen.uniform(0.0, 0.9, (n, 4)), gen.uniform(0.0, 0.9, (n, 4))
        p_baseline = gen.uniform(0.05, 0.9, n)
        prices, ltvs = gen.integers(300, 60000, n), gen.integers(1000, 300000, n)
        constraint = PolicyConstraint(lift_threshold=0.2)
        j, k, feasible = allocate_batch(
            p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
        )
        j[:10], k[:10] = 0, 0  # the free (none, none) cell
        table = materialize_plans(
            [f"it{i:07d}" for i in range(n)], j, k, feasible, p1, p2, p_baseline, prices, ltvs,
            round1_menu, round2_menu, constraint,
        )
        assert not table.feasible.all() and np.isinf(table.roi).any()
        paths = [str(tmp_path / f"{name}.csv") for name in ("table", "per_plan")]
        write_plans(table, paths[0])
        oracles.write_plans_per_plan(plans_of(table, round1_menu, round2_menu), paths[1])
        texts = [open(path, "rb").read() for path in paths]
        assert texts[0] == texts[1]
        assert texts[0].count(b"\n") == n + 1

    def test_empty_plan_list(self, tmp_path):
        path = str(tmp_path / "plans.csv")
        empty = {f.name: np.empty(0) for f in dataclasses.fields(PlanTable)[1:]}
        write_plans(PlanTable(item_ids=(), **empty), path)
        assert open(path).read() == PLAN_HEADER + "\n"


class TestCurveAndBuckets:
    def test_curve_without_bands(self, tmp_path):
        curve = UpliftCurve(points=((0.5, 0.12), (1.0, None)), random_reference=0.1)
        path = str(tmp_path / "curve.csv")
        write_curve(curve, path)
        lines = open(path).read().splitlines()
        assert lines == [CURVE_HEADER, "0.5,0.12,,", "1,,,"]

    def test_curve_with_bands(self, tmp_path):
        curve = UpliftCurve(
            points=((0.5, 0.12), (1.0, 0.1)),
            random_reference=0.1,
            bands=((0.05, 0.2), None),
        )
        path = str(tmp_path / "curve.csv")
        write_curve(curve, path)
        lines = open(path).read().splitlines()
        assert lines[1] == "0.5,0.12,0.05,0.2"
        assert lines[2] == "1,0.1,,"

    def test_delay_tables_layout(self, tmp_path):
        tables = DelayTables(
            bucket_h=2.0,
            lift_by_attach_delay=(BucketRow(0.0, 0.25, 40), BucketRow(2.0, None, 0)),
            str_by_purchase_delay=(BucketRow(0.0, 0.5, 20),),
            aov_by_purchase_delay=(BucketRow(0.0, 3200.0, 20),),
        )
        path = str(tmp_path / "buckets.csv")
        write_delay_tables(tables, path)
        lines = open(path).read().splitlines()
        assert lines == [
            BUCKET_HEADER,
            "0,lift_str,0.25,40",
            "2,lift_str,,0",
            "0,str,0.5,20",
            "0,aov,3200,20",
        ]


class TestModelArtifacts:
    def test_model_round_trip_is_exact(self, tmp_path):
        data, probe = synthetic_dataset(n=250)
        gen = np.random.default_rng(3)
        eval_matrix = gen.normal(size=(40, 3))
        for config in (
            LearnerConfig(kind="logistic", learning_rate=1.0, epochs=200),
            LearnerConfig(kind="boosted_stumps", learning_rate=0.3, max_stumps=12),
        ):
            model = train(data, config)
            path = str(tmp_path / f"{config.kind}.json")
            save_model(model, path)
            back = load_model(path)
            assert back.kind == model.kind
            assert back.schema_id == model.schema_id
            assert back.config == model.config
            assert back.stumps == model.stumps
            from seqcoupon.learner import predict_matrix

            assert np.array_equal(
                predict_matrix(back, eval_matrix), predict_matrix(model, eval_matrix)
            )

    def test_pair_round_trip_is_exact(self, tmp_path, trained_pair, small_world):
        out = str(tmp_path / "model")
        os.makedirs(out)
        save_pair(trained_pair, out)
        back = load_pair(out)
        assert back.round1_set == trained_pair.round1_set
        assert back.round2_set == trained_pair.round2_set
        assert back.ipw_epsilon == trained_pair.ipw_epsilon
        items = small_world["items"][:30]
        for got, want in zip(
            predict_batch(back, items, 2.0), predict_batch(trained_pair, items, 2.0)
        ):
            assert np.array_equal(got, want)

    def test_unsupported_format_version(self, tmp_path):
        data, _ = synthetic_dataset(n=60)
        model = train(data, LearnerConfig(epochs=5))
        path = str(tmp_path / "m.json")
        save_model(model, path)
        payload = json.load(open(path))
        payload["format_version"] = 99
        json.dump(payload, open(path, "w"))
        with pytest.raises(InputError, match="format_version"):
            load_model(path)

    def test_malformed_artifacts(self, tmp_path):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as fh:
            fh.write("{not json")
        with pytest.raises(InputError):
            load_model(bad)
        with open(bad, "w") as fh:
            fh.write("[1, 2]")
        with pytest.raises(InputError):
            load_model(bad)
        with open(bad, "w") as fh:
            json.dump({"format_version": 1, "kind": "logistic"}, fh)
        with pytest.raises(InputError, match="malformed"):
            load_model(bad)


class TestGridTable:
    def test_layout(self, tmp_path):
        results = [
            GridResult(
                config=LearnerConfig(kind="logistic", learning_rate=0.5, epochs=100),
                mean_loss=0.5,
                fold_losses=(0.4, 0.6),
                prior_folds=(),
            ),
            GridResult(
                config=LearnerConfig(kind="boosted_stumps", max_stumps=7),
                mean_loss=0.25,
                fold_losses=(0.2, 0.3),
                prior_folds=(1,),
            ),
        ]
        path = str(tmp_path / "grid.csv")
        write_grid_table(results, path)
        lines = open(path).read().splitlines()
        assert lines[0] == GRID_HEADER
        assert lines[1] == "logistic,0.5,0,100,400,0,0.5,0.4;0.6,"
        assert lines[2] == "boosted_stumps,0.5,0,300,7,0,0.25,0.2;0.3,1"


class TestComparisonReportRendering:
    def make_report(self):
        metric = StrategyMetrics(
            sales_rate=0.5, lift_str=0.1, total_coupon_cost=1000, gmv=50000,
            roi_realized=12.5,
        )
        return ComparisonReport(
            strategies={"random": metric, "independent": metric, "sequential": metric},
            per_seed={
                "random": (metric,), "independent": (metric,), "sequential": (metric,),
            },
            holdout_sales_rate=0.4,
            seeds=(7,),
            lift_threshold=0.01,
            n_items_per_seed=100,
        )

    def test_stable_block_order(self):
        text = render_comparison_report(self.make_report())
        lines = text.splitlines()
        assert lines[0] == "strategy comparison"
        assert lines[1] == "seeds: 7"
        order = [ln for ln in lines if ln.startswith("[")]
        assert order == [
            "[random]", "[independent]", "[sequential]",
            "[per_seed roi_realized]", "[per_seed lift_str]",
        ]
        assert text == render_comparison_report(self.make_report())


class TestManifest:
    def test_fresh_write_then_match(self, tmp_path):
        out = str(tmp_path)
        manifest = build_manifest("simulate", "abc123", 42)
        ensure_manifest(out, manifest)
        assert os.path.exists(os.path.join(out, MANIFEST_NAME))
        ensure_manifest(out, manifest)  # identical rerun passes

    def test_mismatch_refused(self, tmp_path):
        out = str(tmp_path)
        ensure_manifest(out, build_manifest("simulate", "abc123", 42))
        with pytest.raises(ManifestMismatchError):
            ensure_manifest(out, build_manifest("simulate", "abc123", 43))
        with pytest.raises(ManifestMismatchError):
            ensure_manifest(out, build_manifest("train", "abc123", 42))

    def test_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        path = str(tmp_path / "blob.bin")
        payload = b"deterministic bytes\n" * 100
        with open(path, "wb") as fh:
            fh.write(payload)
        assert sha256_of_file(path) == hashlib.sha256(payload).hexdigest()
