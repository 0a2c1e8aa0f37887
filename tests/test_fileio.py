import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcoupon import fileio, rng
from seqcoupon.decision import (
    PlanTable,
    PolicyConstraint,
    allocate_batch,
    materialize_plans,
)
from seqcoupon.domain import BLOCK_ROWS, CouponConfig, OutcomeLog
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
from seqcoupon.simulator import CatalogArrays, GroundTruth, SimConfig, generate_catalog, run_rct
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
        back = list(read_catalog(path))
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
        write_catalog(CatalogArrays.from_items([]), path)
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


def non_ascii_catalog(config: SimConfig) -> CatalogArrays:
    """A drawn catalog with ids in several scripts, out of id order."""
    heads = ("é", "日本-", "it", "ø", "Zz", "商品")
    return CatalogArrays.from_items([
        dataclasses.replace(it, item_id=f"{heads[i % 6]}{i}", seller_id=f"売り手{i % 7}")
        for i, it in enumerate(generate_catalog(config))])


class TestNonAsciiIds:
    """Ids are UTF-8 bytes in memory and text in files, whatever their script."""

    @pytest.fixture
    def world(self, round1_menu, round2_menu):
        config = SimConfig(n_items=60, rng_seed=3)
        # Built out of id order, so the catalog has to sort its rows.
        items = non_ascii_catalog(config)
        log1, survivors, log2 = run_rct(GroundTruth(config), items, round1_menu, round2_menu,
                                        [0.25] * 4, [0.25] * 4, seed=3)
        return SimpleNamespace(items=items, log1=log1, survivors=survivors, log2=log2)

    def test_catalog_round_trips_with_the_keys_of_its_str_ids(self, tmp_path, world):
        path, per_record = str(tmp_path / "catalog.csv"), str(tmp_path / "per_record.csv")
        write_catalog(world.items, path)
        oracles.write_catalog_per_record(world.items, per_record)
        assert open(path, "rb").read() == open(per_record, "rb").read()
        cat, again = read_catalog(path), str(tmp_path / "again.csv")
        assert [(it.item_id, it.seller_id) for it in cat] == [
            (it.item_id, it.seller_id) for it in world.items]
        write_catalog(cat, again)
        assert open(again, "rb").read() == open(path, "rb").read()
        assert cat.keys.tolist() == [rng.item_key(it.item_id) for it in world.items]
        with mock.patch.object(fileio, "_parse_columns", return_value=None):
            assert column_bytes(read_catalog(path)) == column_bytes(cat)

    def test_logs_sort_as_str_sorts_and_round_trip(self, tmp_path, world):
        ids = [it.item_id for it in world.items]
        assert [r.item_id for r in world.log1] == sorted(ids)
        survivors = oracles.id_strs(world.survivors)
        assert world.survivors.dtype.kind == "S"
        assert survivors == [r.item_id for r in world.log2] == sorted(survivors)
        for log in (world.log1, world.log2):
            path, per_record = str(tmp_path / "log.csv"), str(tmp_path / "per_record.csv")
            write_outcomes(log, path)
            oracles.write_outcomes_per_record(list(log), per_record)
            assert open(path, "rb").read() == open(per_record, "rb").read()
            back = read_outcomes(path)
            assert [r.item_id for r in back] == [r.item_id for r in log]
            write_outcomes(back, per_record)
            assert open(path, "rb").read() == open(per_record, "rb").read()


    ASCII_LOCALE = {"LC_ALL": "POSIX", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}

    @staticmethod
    def write_run_config(path, catalog):
        path.write_text(f"[simulator]\nn_items = 30\n\n[io]\ncatalog = {catalog}\n"
                        "round1_log = r1.csv\nround2_log = r2.csv\nmodel_dir = model\n",
                        encoding="utf-8")

    def test_files_are_utf8_in_an_ascii_locale(self, tmp_path):
        # The writer and both readers use UTF-8 whatever the locale's encoding, and
        # so do the config reader and the JSON writer and reader.
        config = tmp_path / "run.cfg"
        self.write_run_config(config, "目録/catalog.csv")
        script = f"""
import locale
from unittest import mock
from seqcoupon import fileio
from seqcoupon.cli import main
from test_fileio import non_ascii_catalog, SimConfig
assert locale.getpreferredencoding(False) != "UTF-8"
items, path = non_ascii_catalog(SimConfig(n_items=30, rng_seed=3)), {str(tmp_path / "c.csv")!r}
fileio.write_catalog(items, path)
fast = fileio.read_catalog(path)
with mock.patch.object(fileio, "_parse_columns", return_value=None):
    rows = fileio.read_catalog(path)
assert fast.ids.tobytes() == rows.ids.tobytes() == items.ids.tobytes()
for _ in range(2):  # the rerun reads back the manifest the first run wrote
    assert main(["simulate", "--config", {str(config)!r}, "--out", {str(tmp_path / "sim")!r},
                 "--quiet"]) == 0
"""
        tests = os.path.dirname(os.path.abspath(__file__))
        env = {**os.environ, **self.ASCII_LOCALE,
               "PYTHONPATH": os.pathsep.join([*sys.path, tests])}
        subprocess.run([sys.executable, "-c", script], env=env, check=True, cwd=tests)

    def test_an_input_path_the_locale_cannot_encode_exits_2_naming_it(self, tmp_path):
        """The path is refused as input, not left to a traceback from ``open``."""
        config = tmp_path / "run.cfg"
        self.write_run_config(config, "目/c.csv")
        env = {**os.environ, **self.ASCII_LOCALE, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run(
            [sys.executable, "-m", "seqcoupon.cli", "train", "--config", str(config),
             "--out", str(tmp_path / "model"), "--quiet"],
            env=env, cwd=tmp_path, capture_output=True, text=True, encoding="ascii",
            errors="backslashreplace")
        assert proc.returncode == 2, proc.stderr
        # The ASCII stderr escapes the path's non-ASCII characters.
        assert proc.stderr == ("error: \\u76ee/c.csv: the file system encoding ascii "
                               "cannot encode this path\n")


class TestAtomicWrites:
    """An artifact appears whole or not at all, and no temporary file stays."""

    @pytest.mark.parametrize("earlier", [None, b"earlier bytes\n"])
    def test_a_writer_that_fails_midway_leaves_the_target_as_it_was(
            self, tmp_path, monkeypatch, earlier):
        items = generate_catalog(SimConfig(n_items=BLOCK_ROWS + 904, rng_seed=1))
        path = tmp_path / "catalog.csv"
        if earlier is not None:
            path.write_bytes(earlier)
        cells, blocks = fileio._cells, []

        def cells_failing_in_the_second_block(values, column, sold):
            if column.header == "item_id":  # the first column of each block
                blocks.append(len(values))
            if len(blocks) == 2:
                raise OSError("disk full")
            return cells(values, column, sold)

        monkeypatch.setattr(fileio, "_cells", cells_failing_in_the_second_block)
        with pytest.raises(OSError, match="disk full"):
            write_catalog(items, str(path))
        assert blocks == [BLOCK_ROWS, 904]
        assert (path.read_bytes() if path.exists() else None) == earlier
        assert os.listdir(tmp_path) == ([] if earlier is None else [path.name])
        monkeypatch.undo()
        write_catalog(items, str(path))
        assert len(read_catalog(str(path))) == len(items)
        assert os.listdir(tmp_path) == [path.name]


class TestQuotedIds:
    """An id holding a comma, quote, CR or LF is written quoted, as ``csv`` writes it,
    so the reader that unquotes it reads it back."""

    IDS = ('it,"x"', 'q"', "a\nb", "c\rd", "plain", "e,")

    @pytest.fixture
    def world(self, round1_menu, round2_menu):
        config = SimConfig(n_items=30, rng_seed=5)
        items = CatalogArrays.from_items([
            dataclasses.replace(it, item_id=f"{self.IDS[i % 6]}{i}", seller_id=f"s,{i % 4}")
            for i, it in enumerate(generate_catalog(config))])
        log1, _, log2 = run_rct(GroundTruth(config), items, round1_menu, round2_menu,
                                [0.25] * 4, [0.25] * 4, seed=5)
        return SimpleNamespace(items=items, log1=log1, log2=log2)

    @staticmethod
    def csv_cells(path):
        with open(path, newline="") as fh:
            return list(csv.reader(fh))[1:]

    def test_catalog_round_trips(self, tmp_path, world):
        path, again = str(tmp_path / "catalog.csv"), str(tmp_path / "again.csv")
        write_catalog(world.items, path)
        assert [row[:2] for row in self.csv_cells(path)] == [
            [it.item_id, it.seller_id] for it in world.items]
        cat = read_catalog(path)
        assert [(it.item_id, it.seller_id) for it in cat] == [
            (it.item_id, it.seller_id) for it in world.items]
        write_catalog(cat, again)
        assert open(again, "rb").read() == open(path, "rb").read()

    def test_logs_round_trip(self, tmp_path, world):
        for log in (world.log1, world.log2):
            path, again = str(tmp_path / "log.csv"), str(tmp_path / "again.csv")
            write_outcomes(log, path)
            back = read_outcomes(path)
            assert back.item_ids.tolist() == log.item_ids.tolist()
            write_outcomes(back, again)
            assert open(again, "rb").read() == open(path, "rb").read()

    def test_plan_ids_read_back(self, tmp_path, world, round1_menu, round2_menu):
        ids = [it.item_id for it in world.items]
        n = len(ids)
        table = materialize_plans(
            ids, np.zeros(n, dtype=int), np.ones(n, dtype=int), np.ones(n, dtype=bool),
            np.full((n, 4), 0.5), np.full((n, 4), 0.25), np.full(n, 0.4), np.full(n, 3000),
            np.full(n, 20000), round1_menu, round2_menu, PolicyConstraint(),
        )
        path = str(tmp_path / "plans.csv")
        write_plans(table, path)
        rows = self.csv_cells(path)
        assert [row[0] for row in rows] == ids and {len(row) for row in rows} == {16}

    def test_only_cells_that_need_it_are_quoted(self, tmp_path, world):
        path = str(tmp_path / "catalog.csv")
        first_six = np.array([f"{self.IDS[i]}{i}".encode() for i in range(6)])
        write_catalog(world.items[world.items.rows_of(first_six)], path)
        text = open(path, newline="").read()
        assert text.split("\n", 1)[1].startswith('"a\nb2","s,2",')
        assert '\n"it,""x""0","s,0",' in text
        assert "\nplain4,s,0" not in text and '\nplain4,"s,0",' in text

    def test_a_bad_cell_after_a_multi_line_id_names_its_file_line(self, tmp_path, world):
        path = str(tmp_path / "catalog.csv")
        ids = ("a\nb", "p1", "p2")
        write_catalog(CatalogArrays.from_items(
            [dataclasses.replace(it, item_id=i) for it, i in zip(world.items, ids)]), path)
        lines = open(path, newline="").read().split("\n")
        parts = lines[4].split(",")
        parts[-1] = "soon"
        lines[4] = ",".join(parts)
        with open(path, "w", newline="") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(InputError, match=re.escape(
                f"{path}:5: column 'key_action_ts' is not a number: 'soon'")):
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
        write_catalog(small_world["items"], columnar)
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
# Id cells: non-ASCII, past 64 bytes, with inner blanks, and empty. Text decoded
# as UTF-8 would hold é as its latin-1 byte, and a 64-byte field cuts the long ones.
PARSE_IDS = ("é1", "売り手3", "x" * 65, "é" * 40, "a b", "a\tb", "")
CATALOG_TEXT = (0, 1)
PARSE_FLAGS = ("00", " 1", "1.0", "2", "", "0", "1")


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
        catalog=st.lists(st.one_of(
            st.tuples(st.integers(0, 2), st.sampled_from(CATALOG_NUMERIC),
                      st.sampled_from(PARSE_CELLS)),
            st.tuples(st.integers(0, 2), st.sampled_from(CATALOG_TEXT),
                      st.sampled_from(PARSE_IDS)),
        ), max_size=3),
        log=st.lists(st.one_of(
            st.tuples(st.integers(0, 3), st.sampled_from(LOG_NUMERIC),
                      st.sampled_from(PARSE_CELLS)),
            st.tuples(st.integers(0, 3), st.just(0), st.sampled_from(PARSE_IDS)),
            st.tuples(st.integers(0, 3), st.just(6), st.sampled_from(PARSE_FLAGS)),
        ), max_size=3),
        no_coupon_cells=st.tuples(st.sampled_from(PARSE_CELLS), st.sampled_from(PARSE_CELLS)),
    )
    @settings(max_examples=500, deadline=None)
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

    @staticmethod
    def edge_file(path, case):
        """A file the measured-width parse must read as the row parser does: ids and
        sale cells far wider than the first row's, two-byte flags, rows of the wrong
        width that balance out, a blank line before a wide id, or no final newline."""
        header, rows = ((CATALOG_HEADER, PARSE_CATALOG) if case == "wide_later_id"
                        else (OUTCOME_HEADER, PARSE_LOG))
        substitutions = {
            "wide_later_id": [(0, 0, "a"), (2, 0, "x" * 200)],
            "long_sale_cells": [(3, 7, "1." + "0" * 27 + "1"), (3, 8, "0" * 26 + "3000")],
            "two_byte_flags": [(1, 6, "00"), (3, 6, "10")],
            "blank_line": [(2, 0, "y" * 200)],
        }
        rows = TestParseEquivalence.substituted(rows, substitutions.get(case, []))
        end = "\n"
        if case == "balanced_widths":
            rows[1], rows[2] = rows[1] + ",", rows[2][:rows[2].rindex(",")]
        elif case == "blank_line":
            rows.insert(2, "")
        elif case == "no_final_newline":
            end = ""
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join([header, *rows]) + end)
        return read_catalog if case == "wide_later_id" else read_outcomes

    EDGE_CASES = ("wide_later_id", "long_sale_cells", "two_byte_flags", "balanced_widths",
                  "blank_line", "no_final_newline")

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_edge_files_match_the_row_parser(self, tmp_path, case):
        path = str(tmp_path / "table.csv")
        read = self.edge_file(path, case)
        fast = read_or_error(read, path)
        with mock.patch.object(fileio, "_parse_columns", return_value=None):
            assert fast == read_or_error(read, path)
        errors = {
            "two_byte_flags": f"{path}:3: column 'sold' must be 0 or 1, got '00'",
            "balanced_widths": f"{path}:3: expected 10 cells, got 11",
        }
        if case in errors:
            assert fast == (InputError, errors[case])
        else:
            assert isinstance(fast, dict)

    def test_a_file_that_grows_after_the_scan_goes_to_the_row_parser(self, tmp_path,
                                                                    monkeypatch):
        path, scan = str(tmp_path / "log.csv"), fileio._scan_cells
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join([OUTCOME_HEADER, *PARSE_LOG]) + "\n")

        def scan_then_grow(*args):
            with open(path, "a", newline="\n") as fh:
                fh.write(PARSE_LOG[0].replace("it-1", "it-9") + "\n")
            return scan(*args)

        monkeypatch.setattr(fileio, "_scan_cells", scan_then_grow)
        with mock.patch.object(fileio, "_read_rows", wraps=fileio._read_rows) as rows:
            assert len(read_outcomes(path)) == len(PARSE_LOG) + 1
        assert rows.called

    def test_the_scan_holds_a_few_blocks_not_the_file(self, monkeypatch):
        row = PARSE_LOG[3].encode() + b"\n"
        head = OUTCOME_HEADER.encode() + b"\n"
        data = head + row * (32 * fileio.SCAN_BLOCK_BYTES // len(row))
        dtype = np.dtype([(c.name, "S" if c.kind in ("text", "flag") or c.rule == "sale"
                           else float) for c in fileio.OUTCOME_COLUMNS])
        widths = {"item_ids": 4, "sold": 1, "purchase_delay_h": 2, "sale_price_yen": 4,
                  "coupon_cost_yen": 3}

        def peak_of_scan():
            tracemalloc.start()
            try:
                rows, sized = fileio._scan_cells(data, len(head) - 1, dtype)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rows == (len(data) - len(head)) // len(row)
            assert {name: sized[name].itemsize for name in widths} == widths
            return peak

        bound = 8 * fileio.SCAN_BLOCK_BYTES
        assert peak_of_scan() < bound
        monkeypatch.setattr(fileio, "SCAN_BLOCK_BYTES", 2 * len(data))  # one whole-file block
        assert peak_of_scan() > bound

    def test_canonical_files_parse_in_one_call(self, tmp_path, monkeypatch, small_world):
        catalog, log = (write_catalog, read_catalog, ("ids", "seller_ids")), (
            write_outcomes, read_outcomes, ("item_ids",))
        cases = [
            ("drawn", small_world["items"][:300], *catalog),
            ("non_ascii", non_ascii_catalog(SimConfig(n_items=60, rng_seed=3)), *catalog),
            ("log1", small_world["log1"], *log),
            ("log2", small_world["log2"], *log),
            ("empty", OutcomeLog.from_records([]), *log),
        ]
        for name, table, write, _, _ in cases:
            write(table, str(tmp_path / f"{name}.csv"))
        # Ids and sale cells wider than the first row's, read by the row parser first.
        edge = {case: str(tmp_path / f"{case}.csv") for case in ("wide_later_id",
                                                                 "long_sale_cells")}
        with mock.patch.object(fileio, "_parse_columns", return_value=None):
            rows = {case: column_bytes(self.edge_file(path, case)(path))
                    for case, path in edge.items()}
        monkeypatch.setattr(fileio, "_read_rows", None)  # the row parser is never reached
        for name, table, _, read, ids in cases:
            back, want = column_bytes(read(str(tmp_path / f"{name}.csv"))), column_bytes(table)
            assert [back[c] for c in ids] == [want[c] for c in ids], name
        for case, path in edge.items():
            read = read_catalog if case == "wide_later_id" else read_outcomes
            assert column_bytes(read(path)) == rows[case], case


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
        n = BLOCK_ROWS + 300
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

    def test_a_model_written_with_the_old_rng_seed_key_loads(self, tmp_path):
        # Artifacts written before the unread [learner] rng_seed knob was
        # removed carry it in their config; it is ignored on load.
        data, probe = synthetic_dataset(n=60)
        model = train(data, LearnerConfig(epochs=5))
        path = str(tmp_path / "m.json")
        save_model(model, path)
        payload = json.load(open(path))
        assert "rng_seed" not in payload["config"]
        payload["config"]["rng_seed"] = 7
        json.dump(payload, open(path, "w"))
        back = load_model(path)
        assert back.config == model.config
        from seqcoupon.learner import predict_matrix

        assert np.array_equal(predict_matrix(back, probe), predict_matrix(model, probe))

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
        assert lines[1] == "logistic,0.5,0,100,400,0.5,0.4;0.6,"
        assert lines[2] == "boosted_stumps,1,0,300,7,0.25,0.2;0.3,1"


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
