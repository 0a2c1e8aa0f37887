"""File formats: CSV tables, JSON model artifacts, and run manifests.

Every writer is deterministic — fixed headers, floats at 12 significant
digits, JSON with sorted keys and no timestamps — so re-running a command
reproduces files byte for byte. Model artifacts serialize parameters with
full repr precision and therefore round-trip predictions exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import warnings
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .decision import PlanTable
from .domain import YEN_BOUND, CatalogArrays, CouponConfig, CouponSet, ItemRecord, OutcomeLog
from .domain import _as_catalog
from .errors import InputError, ManifestMismatchError
from .evaluation import BucketRow, ComparisonReport, DelayTables, StrategyMetrics, UpliftCurve
from .learner import GridResult, LearnerConfig, Model, Stump
from .uplift import PredictorPair, check_ipw_epsilon

FORMAT_VERSION = 1

CATALOG_HEADER = (
    "item_id,seller_id,price_yen,condition,age_days,likes,"
    "demand_index,season_phase,seller_ltv_yen,key_action_ts"
)
OUTCOME_HEADER = (
    "item_id,round,discount_pct,validity_hours,cap_yen,attach_delay_h,"
    "sold,purchase_delay_h,sale_price_yen,coupon_cost_yen"
)
PLAN_HEADER = (
    "item_id,j_discount_pct,j_validity_h,j_cap,k_discount_pct,k_validity_h,k_cap,"
    "attach_delay_h,p_round1,p_round2,p_combined,p_baseline,lift,expected_cost,"
    "roi,feasible"
)
CURVE_HEADER = "fraction,uplift,lo,hi"
BUCKET_HEADER = "bucket_start_h,metric,value,n"
GRID_HEADER = "kind,learning_rate,l2,epochs,max_stumps,mean_loss,fold_losses,prior_folds"
MANIFEST_NAME = "manifest.json"
FLOAT_CELL = "%.12g"


def fmt(value: Optional[float]) -> str:
    """Canonical float cell: 12 significant digits, `inf` literal, empty for null."""
    if value is None:
        return ""
    return FLOAT_CELL % value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _parse_float(cell: str, path: str, line: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise InputError(f"{path}:{line}: column {column!r} is not a number: {cell!r}") from None


def _parse_int(cell: str, path: str, line: int, column: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise InputError(f"{path}:{line}: column {column!r} is not an integer: {cell!r}") from None


def _parse_yen(cell: str, path: str, line: int, column: str) -> int:
    value = _parse_int(cell, path, line, column)
    if not -YEN_BOUND < value < YEN_BOUND:
        raise InputError(
            f"{path}:{line}: column {column!r} is out of range, |yen| must be below 2**53: "
            f"{cell!r}"
        )
    return value


def _check_yen(*columns: np.ndarray) -> None:
    """Leave the table to the row parser where a yen amount reaches 2**53 either way."""
    if any(((c >= YEN_BOUND) | (c <= -YEN_BOUND)).any() for c in columns):
        raise ValueError("a yen amount is out of range")


def _read_rows(path: str, expected_header: str) -> list[tuple[int, list[str]]]:
    """The row parser: every non-blank row after the header, with its line number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}:1: missing header row") from None
        if header != expected_header.split(","):
            raise InputError(
                f"{path}:1: unexpected header {','.join(header)!r}; "
                f"expected {expected_header!r}"
            )
        rows = []
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{line}: expected {len(header)} cells, got {len(row)}")
            rows.append((line, row))
    return rows


def _parse_columns(path: str, header: str, dtype: np.dtype) -> Optional[np.ndarray]:
    """The table as one structured array, or None where only the row parser can tell.

    Splitting the text on newlines and commas gives ``csv.reader``'s cells
    when it holds no quote, carriage return or NUL, the header matches and
    every non-blank row has the header's width. ``np.loadtxt`` then parses
    every row in one call. It refuses some cells that ``int``/``float``
    accept (``1_0``, non-ASCII digits, integers past int64) but accepts none
    that they refuse, so any error or warning leaves the file to the row
    parser, which accepts those cells and names the line of a bad one.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    width = header.count(",") + 1
    body = list(filter(None, lines[1:]))
    if lines[0] != header or not set(map(str.count, body, repeat(","))) <= {width - 1}:
        return None
    if not body:
        return np.empty(0, dtype)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(body, dtype=dtype, delimiter=",", comments=None,
                              quotechar=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None


def _read_table(path: str, header: str, dtype: np.dtype, columns_of, parse_row) -> dict:
    """A table's typed columns, keyed by the ``from_columns`` argument names.

    ``dtype`` names the fields after those arguments; ``columns_of`` turns
    the parsed structured array into the columns and raises ValueError (or
    OverflowError) where a cell needs the row parser. The row parser then
    re-reads the file, and ``parse_row`` names the first bad cell's line.
    """
    table = _parse_columns(path, header, dtype)
    if table is not None:
        try:
            return columns_of(table)
        except (ValueError, OverflowError):
            pass
    rows = [parse_row(row, path, line) for line, row in _read_rows(path, header)]
    if not rows:
        return columns_of(np.empty(0, dtype))
    return {name: [row[name] for row in rows] for name in rows[0]}


def _field(table: np.ndarray, name: str):
    """One field of a structured array: a list of cells for text, else a contiguous copy."""
    column = table[name]
    return column.tolist() if column.dtype == object else np.ascontiguousarray(column)


WRITE_BLOCK_ROWS = 8192
TEXT_CELL, INT_CELL = "%s", "%d"


def _write_table(path: str, header: str, cell_formats: Sequence[str], n_rows: int,
                 columns) -> None:
    """Write the header and ``n_rows`` rows; ``columns(block)`` gives every
    column's values for a slice of rows, as iterables of Python values.

    Each row is formatted by one ``%`` of the joined ``cell_formats`` on its
    values. Rows are formatted one block at a time, so that only one block's
    cells are alive at once rather than every cell of the table; an id
    column is decoded as a ``map``, so only its row's id is alive.
    """
    row_format = ",".join(cell_formats)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            rows = map(row_format.__mod__, zip(*columns(slice(lo, lo + WRITE_BLOCK_ROWS))))
            fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# catalog


def write_catalog(items: Sequence[ItemRecord] | CatalogArrays, path: str) -> None:
    cat = _as_catalog(items)
    numeric = (cat.price, cat.condition, cat.age_days, cat.likes, cat.demand, cat.season,
               cat.ltv, cat.key_ts)
    _write_table(
        path, CATALOG_HEADER,
        (TEXT_CELL, TEXT_CELL, INT_CELL, INT_CELL, FLOAT_CELL, INT_CELL, FLOAT_CELL,
         FLOAT_CELL, INT_CELL, FLOAT_CELL),
        len(cat),
        lambda rows: [map(bytes.decode, cat.ids[rows]), map(bytes.decode, cat.seller_ids[rows]),
                      *(column[rows].tolist() for column in numeric)],
    )


CATALOG_DTYPE = np.dtype([
    ("ids", object), ("seller_ids", object), ("price", np.int64), ("condition", np.int64),
    ("age_days", float), ("likes", np.int64), ("demand", float), ("season", float),
    ("ltv", np.int64), ("key_ts", float),
])


def _catalog_columns(table: np.ndarray) -> dict:
    _check_yen(table["price"], table["ltv"])
    return {name: _field(table, name) for name in CATALOG_DTYPE.names}


def _catalog_row(row: list[str], path: str, line: int) -> dict:
    return dict(
        ids=row[0],
        seller_ids=row[1],
        price=_parse_yen(row[2], path, line, "price_yen"),
        condition=_parse_int(row[3], path, line, "condition"),
        age_days=_parse_float(row[4], path, line, "age_days"),
        likes=_parse_int(row[5], path, line, "likes"),
        demand=_parse_float(row[6], path, line, "demand_index"),
        season=_parse_float(row[7], path, line, "season_phase"),
        ltv=_parse_yen(row[8], path, line, "seller_ltv_yen"),
        key_ts=_parse_float(row[9], path, line, "key_action_ts"),
    )


def read_catalog(path: str) -> CatalogArrays:
    """The catalog CSV as columns."""
    columns = _read_table(path, CATALOG_HEADER, CATALOG_DTYPE, _catalog_columns, _catalog_row)
    return CatalogArrays.from_columns(**columns)


# ---------------------------------------------------------------------------
# outcome logs


def write_outcomes(records: OutcomeLog, path: str) -> None:
    def columns(rows):
        sold = records.sold[rows]
        flags = sold.tolist()

        def sale_cells(column, cell_format):
            """The sold rows' values as text; unsold rows' cells stay empty."""
            sold_cells = map(cell_format.__mod__, column[rows][sold].tolist())
            return [next(sold_cells) if s else "" for s in flags]

        return [
            map(bytes.decode, records.item_ids[rows]),
            *(column[rows].tolist() for column in (
                records.round, records.discount_pct, records.validity_hours, records.cap_yen,
                records.attach_delay_h,
            )),
            flags,
            sale_cells(records.purchase_delay_h, FLOAT_CELL),
            sale_cells(records.sale_price_yen, INT_CELL),
            sale_cells(records.coupon_cost_yen, INT_CELL),
        ]

    _write_table(
        path, OUTCOME_HEADER,
        (TEXT_CELL, INT_CELL, INT_CELL, FLOAT_CELL, INT_CELL, FLOAT_CELL, INT_CELL,
         TEXT_CELL, TEXT_CELL, TEXT_CELL),
        len(records), columns,
    )


# The sold flag and the sale cells, empty on unsold rows, stay text until checked.
OUTCOME_DTYPE = np.dtype([
    ("item_ids", object), ("round", np.int64), ("discount_pct", np.int64),
    ("validity_hours", float), ("cap_yen", np.int64), ("attach_delay_h", float),
    ("sold", object), ("purchase_delay_h", object), ("sale_price_yen", object),
    ("coupon_cost_yen", object),
])


def _sale_values(cells: np.ndarray, parse) -> np.ndarray:
    """NaN where a cell is empty, else ``parse`` of the cell, as floats."""
    out = np.full(len(cells), np.nan)
    filled = cells != ""
    out[filled] = np.array(list(map(parse, cells[filled])), dtype=float)
    return out


def _outcome_columns(table: np.ndarray) -> dict:
    sold = table["sold"]
    if not set(sold.tolist()) <= {"0", "1"}:
        raise ValueError("column 'sold' must be 0 or 1")
    none = table["discount_pct"] == 0
    # A no-coupon row's cap cell is not read; ``_check_coupons`` zeroes its validity.
    cap = np.where(none, 0, table["cap_yen"])
    price = _sale_values(table["sale_price_yen"], int)
    cost = _sale_values(table["coupon_cost_yen"], int)
    _check_yen(cap, price, cost)
    return dict(
        item_ids=_field(table, "item_ids"),
        round=_field(table, "round"),
        discount_pct=_field(table, "discount_pct"),
        validity_hours=_field(table, "validity_hours"),
        cap_yen=cap,
        attach_delay_h=_field(table, "attach_delay_h"),
        sold=sold == "1",
        purchase_delay_h=_sale_values(table["purchase_delay_h"], float),
        sale_price_yen=price,
        coupon_cost_yen=cost,
    )


def _outcome_row(row: list[str], path: str, line: int) -> dict:
    nan = float("nan")
    disc = _parse_int(row[2], path, line, "discount_pct")
    out = dict(
        item_ids=row[0],
        discount_pct=disc,
        validity_hours=_parse_float(row[3], path, line, "validity_hours") if disc else 0.0,
        cap_yen=_parse_yen(row[4], path, line, "cap_yen") if disc else 0,
    )
    if row[6] not in ("0", "1"):
        raise InputError(f"{path}:{line}: column 'sold' must be 0 or 1, got {row[6]!r}")
    out.update(
        round=_parse_int(row[1], path, line, "round"),
        attach_delay_h=_parse_float(row[5], path, line, "attach_delay_h"),
        sold=row[6] == "1",
        purchase_delay_h=(
            nan if row[7] == "" else _parse_float(row[7], path, line, "purchase_delay_h")
        ),
        sale_price_yen=nan if row[8] == "" else _parse_yen(row[8], path, line, "sale_price_yen"),
        coupon_cost_yen=(
            nan if row[9] == "" else _parse_yen(row[9], path, line, "coupon_cost_yen")
        ),
    )
    return out


def read_outcomes(path: str) -> OutcomeLog:
    return OutcomeLog.from_columns(
        **_read_table(path, OUTCOME_HEADER, OUTCOME_DTYPE, _outcome_columns, _outcome_row)
    )


# ---------------------------------------------------------------------------
# allocation plans


def write_plans(plans: PlanTable, path: str) -> None:
    numeric = (
        plans.j_discount_pct, plans.j_validity_h, plans.j_cap, plans.k_discount_pct,
        plans.k_validity_h, plans.k_cap, plans.attach_delay_h, plans.p_round1, plans.p_round2,
        plans.p_combined, plans.p_baseline, plans.lift, plans.expected_cost, plans.roi,
        plans.feasible,
    )
    _write_table(
        path, PLAN_HEADER,
        (TEXT_CELL, *(INT_CELL, FLOAT_CELL, INT_CELL) * 2, *(FLOAT_CELL,) * 8, INT_CELL),
        len(plans),
        lambda rows: [map(bytes.decode, plans.item_ids[rows]),
                      *(column[rows].tolist() for column in numeric)],
    )


# ---------------------------------------------------------------------------
# curves and delay tables


def write_curve(curve: UpliftCurve, path: str) -> None:
    lines = [CURVE_HEADER]
    bands = curve.bands if curve.bands is not None else [None] * len(curve.points)
    for (frac, value), band in zip(curve.points, bands):
        lo, hi = band if band is not None else (None, None)
        lines.append(",".join([fmt(frac), fmt(value), fmt(lo), fmt(hi)]))
    _write_text(path, "\n".join(lines) + "\n")


def write_delay_tables(tables: DelayTables, path: str) -> None:
    lines = [BUCKET_HEADER]
    named: Sequence[tuple[str, Sequence[BucketRow]]] = (
        ("lift_str", tables.lift_by_attach_delay),
        ("str", tables.str_by_purchase_delay),
        ("aov", tables.aov_by_purchase_delay),
    )
    for metric, rows in named:
        for r in rows:
            lines.append(",".join([fmt(r.bucket_start_h), metric, fmt(r.value), str(r.n)]))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# model artifacts


def _coupon_set_payload(cs: CouponSet) -> list[list[float]]:
    return [[c.discount_pct, c.validity_hours, c.cap_yen] for c in cs]


def _coupon_set_from(payload, purpose: str) -> CouponSet:
    return CouponSet(arms=tuple(CouponConfig(*arm) for arm in payload), purpose=purpose)


def _dump_json(payload: dict, path: str) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not a text file: {exc}") from None
    if not isinstance(payload, dict):
        raise InputError(f"{path}: expected a JSON object")
    return payload


def _require_version(payload: dict, path: str) -> None:
    if payload.get("format_version") != FORMAT_VERSION:
        raise InputError(
            f"{path}: format_version {payload.get('format_version')!r} "
            f"not supported (expected {FORMAT_VERSION})"
        )


def save_model(model: Model, path: str) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "schema_id": model.schema_id,
        "feature_mean": [float(v) for v in model.feature_mean],
        "feature_scale": [float(v) for v in model.feature_scale],
        "intercept": float(model.intercept),
        "coef": None if model.coef is None else [float(v) for v in model.coef],
        "stumps": [
            [s.feature, float(s.threshold), float(s.left_value), float(s.right_value)]
            for s in model.stumps
        ],
        "config": {
            "kind": model.config.kind,
            "learning_rate": model.config.learning_rate,
            "l2": model.config.l2,
            "epochs": model.config.epochs,
            "max_stumps": model.config.max_stumps,
        },
    }
    _dump_json(payload, path)


def load_model(path: str) -> Model:
    payload = _load_json(path)
    _require_version(payload, path)
    try:
        cfg = payload["config"]
        model = Model(
            kind=payload["kind"],
            schema_id=payload["schema_id"],
            feature_mean=np.array(payload["feature_mean"], dtype=float),
            feature_scale=np.array(payload["feature_scale"], dtype=float),
            intercept=float(payload["intercept"]),
            coef=None if payload["coef"] is None else np.array(payload["coef"], dtype=float),
            stumps=tuple(
                Stump(int(f), float(t), float(lv), float(rv))
                for f, t, lv, rv in payload["stumps"]
            ),
            config=LearnerConfig(
                kind=cfg["kind"],
                learning_rate=cfg["learning_rate"],
                l2=cfg["l2"],
                epochs=cfg["epochs"],
                max_stumps=cfg["max_stumps"],
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model artifact: {exc}") from None
    return model


FIRST_MODEL_FILE = "first_round_model.json"
SECOND_MODEL_FILE = "second_round_model.json"
PAIR_FILE = "pair.json"


def save_pair(pair: PredictorPair, out_dir: str) -> None:
    save_model(pair.first, os.path.join(out_dir, FIRST_MODEL_FILE))
    save_model(pair.second, os.path.join(out_dir, SECOND_MODEL_FILE))
    _dump_json(
        {
            "format_version": FORMAT_VERSION,
            "first_model": FIRST_MODEL_FILE,
            "second_model": SECOND_MODEL_FILE,
            "ipw_epsilon": pair.ipw_epsilon,
            "round1_set": _coupon_set_payload(pair.round1_set),
            "round2_set": _coupon_set_payload(pair.round2_set),
        },
        os.path.join(out_dir, PAIR_FILE),
    )


def load_pair(in_dir: str) -> PredictorPair:
    path = os.path.join(in_dir, PAIR_FILE)
    payload = _load_json(path)
    _require_version(payload, path)
    # pair.json is read whole before the model files, whose refusals name them.
    try:
        model_paths = [os.path.join(in_dir, payload[name])
                       for name in ("first_model", "second_model")]
        round1_set = _coupon_set_from(payload["round1_set"], "round1")
        round2_set = _coupon_set_from(payload["round2_set"], "round2")
        epsilon = float(payload["ipw_epsilon"])
        check_ipw_epsilon(epsilon)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed pair artifact: {exc}") from None
    first, second = map(load_model, model_paths)
    return PredictorPair(first=first, second=second, round1_set=round1_set,
                         round2_set=round2_set, ipw_epsilon=epsilon)


# ---------------------------------------------------------------------------
# grid-search table


def write_grid_table(results: Sequence[GridResult], path: str) -> None:
    lines = [GRID_HEADER]
    for r in results:
        c = r.config
        lines.append(
            ",".join(
                [
                    c.kind,
                    fmt(c.learning_rate),
                    fmt(c.l2),
                    str(c.epochs),
                    str(c.max_stumps),
                    fmt(r.mean_loss),
                    ";".join(fmt(v) for v in r.fold_losses),
                    ";".join(str(int(v)) for v in r.prior_folds),
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# comparison report


def _metrics_lines(name: str, m: StrategyMetrics) -> list[str]:
    return [
        f"[{name}]",
        f"sales_rate: {fmt(m.sales_rate)}",
        f"lift_str: {fmt(m.lift_str)}",
        f"total_coupon_cost: {m.total_coupon_cost}",
        f"gmv: {m.gmv}",
        f"roi_realized: {fmt(m.roi_realized)}",
    ]


def render_comparison_report(report: ComparisonReport) -> str:
    lines = [
        "strategy comparison",
        f"seeds: {','.join(str(s) for s in report.seeds)}",
        f"items_per_seed: {report.n_items_per_seed}",
        f"lift_threshold: {fmt(report.lift_threshold)}",
        f"holdout_sales_rate: {fmt(report.holdout_sales_rate)}",
    ]
    for name in ("random", "independent", "sequential"):
        lines.extend(_metrics_lines(name, report.strategies[name]))
    lines.append("[per_seed roi_realized]")
    for name in ("random", "independent", "sequential"):
        row = ",".join(fmt(m.roi_realized) for m in report.per_seed[name])
        lines.append(f"{name}: {row}")
    lines.append("[per_seed lift_str]")
    for name in ("random", "independent", "sequential"):
        row = ",".join(fmt(m.lift_str) for m in report.per_seed[name])
        lines.append(f"{name}: {row}")
    return "\n".join(lines) + "\n"


def write_comparison_report(report: ComparisonReport, path: str) -> None:
    _write_text(path, render_comparison_report(report))


# ---------------------------------------------------------------------------
# run manifests


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(command: str, config_sha256: str, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": command,
        "config_sha256": config_sha256,
        "seed": seed,
    }


def ensure_manifest(out_dir: str, manifest: dict) -> None:
    """Write the manifest, or verify it matches component-for-component.

    A mismatch means the directory holds results from a different run;
    refusing protects those files from a silent mixed-config overwrite.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    if os.path.exists(path):
        existing = _load_json(path)
        if existing != manifest:
            raise ManifestMismatchError(
                f"{path} was written by a different run "
                f"(existing {existing}, current {manifest}); "
                "use a fresh output directory"
            )
        return
    _dump_json(manifest, path)
