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
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .decision import AllocationPlan
from .domain import CouponConfig, CouponSet, ItemRecord, OutcomeLog, OutcomeRecord, _as_log
from .errors import InputError, ManifestMismatchError
from .evaluation import BucketRow, ComparisonReport, DelayTables, StrategyMetrics, UpliftCurve
from .learner import GridResult, LearnerConfig, Model, Stump
from .simulator import CatalogArrays, _as_catalog
from .uplift import PredictorPair

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
GRID_HEADER = "kind,learning_rate,l2,epochs,max_stumps,rng_seed,mean_loss,fold_losses,prior_folds"
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


def _split_columns(path: str, header: str) -> Optional[list[list[str]]]:
    """The cells of each column, or None where only the row parser can tell.

    Splitting the text on newlines and commas gives ``csv.reader``'s cells
    when it holds no quote, carriage return or NUL, the header matches and
    every non-blank row has the header's width.
    """
    with open(path, newline="") as fh:
        text = fh.read()
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    width = header.count(",") + 1
    body = [line for line in lines[1:] if line]
    if lines[0] != header or any(line.count(",") != width - 1 for line in body):
        return None
    cells = ",".join(body).split(",") if body else []
    return [cells[c::width] for c in range(width)]


def _read_table(path: str, header: str, from_cells, parse_row) -> dict:
    """A table's typed columns, keyed by the ``from_columns`` argument names.

    ``from_cells`` converts whole columns of cells with ``int``/``float`` and
    raises ValueError (or OverflowError) on any bad cell; the row parser then
    re-reads the file, and ``parse_row`` names the first bad cell's line.
    """
    columns = _split_columns(path, header)
    if columns is not None:
        try:
            return from_cells(columns)
        except (ValueError, OverflowError):
            pass
    rows = [parse_row(row, path, line) for line, row in _read_rows(path, header)]
    if not rows:
        return from_cells([[]] * (header.count(",") + 1))
    return {name: [row[name] for row in rows] for name in rows[0]}


def _ints(cells: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(int, cells), np.int64, len(cells))


def _floats(cells: Sequence[str]) -> np.ndarray:
    return np.fromiter(map(float, cells), float, len(cells))


def _int_text(column: np.ndarray) -> list[str]:
    return list(map(str, column.tolist()))


def _float_text(column: np.ndarray) -> list[str]:
    """``fmt`` of every value of a column that holds no null."""
    return list(map(FLOAT_CELL.__mod__, column.tolist()))


WRITE_BLOCK_ROWS = 8192


def _write_table(path: str, header: str, n_rows: int, cells) -> None:
    """Write the header and ``n_rows`` rows; ``cells(block)`` gives every
    column's cells for a slice of rows.

    Rows are formatted one block at a time, so that only one block's cells
    are alive at once rather than every cell of the table.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, WRITE_BLOCK_ROWS):
            rows = map(",".join, zip(*cells(slice(lo, lo + WRITE_BLOCK_ROWS))))
            fh.write("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# catalog


def write_catalog(items: Sequence[ItemRecord] | CatalogArrays, path: str) -> None:
    cat = _as_catalog(items)
    _write_table(path, CATALOG_HEADER, len(cat), lambda rows: [
        cat.ids[rows],
        cat.seller_ids[rows],
        _int_text(cat.price[rows]),
        _int_text(cat.condition[rows]),
        _float_text(cat.age_days[rows]),
        _int_text(cat.likes[rows]),
        _float_text(cat.demand[rows]),
        _float_text(cat.season[rows]),
        _int_text(cat.ltv[rows]),
        _float_text(cat.key_ts[rows]),
    ])


def _catalog_cells(columns: list[list[str]]) -> dict:
    ids, seller_ids, price, condition, age_days, likes, demand, season, ltv, key_ts = columns
    return dict(
        ids=ids, seller_ids=seller_ids, price=_ints(price), condition=_ints(condition),
        age_days=_floats(age_days), likes=_ints(likes), demand=_floats(demand),
        season=_floats(season), ltv=_ints(ltv), key_ts=_floats(key_ts),
    )


def _catalog_row(row: list[str], path: str, line: int) -> dict:
    return dict(
        ids=row[0],
        seller_ids=row[1],
        price=_parse_int(row[2], path, line, "price_yen"),
        condition=_parse_int(row[3], path, line, "condition"),
        age_days=_parse_float(row[4], path, line, "age_days"),
        likes=_parse_int(row[5], path, line, "likes"),
        demand=_parse_float(row[6], path, line, "demand_index"),
        season=_parse_float(row[7], path, line, "season_phase"),
        ltv=_parse_int(row[8], path, line, "seller_ltv_yen"),
        key_ts=_parse_float(row[9], path, line, "key_action_ts"),
    )


def read_catalog(path: str) -> CatalogArrays:
    """The catalog CSV as columns; every item is unsold."""
    columns = _read_table(path, CATALOG_HEADER, _catalog_cells, _catalog_row)
    return CatalogArrays.from_columns(**columns, status=("unsold",) * len(columns["ids"]))


# ---------------------------------------------------------------------------
# outcome logs


def write_outcomes(records: Sequence[OutcomeRecord] | OutcomeLog, path: str) -> None:
    log = _as_log(records)

    def cells(rows):
        sold = log.sold[rows]
        flags = sold.tolist()

        def sale_cells(column, text):
            """``text`` of the sold rows' values; unsold rows' cells stay empty."""
            sold_cells = iter(text(column[rows][sold]))
            return [next(sold_cells) if s else "" for s in flags]

        return [
            log.item_ids[rows],
            _int_text(log.round[rows]),
            _int_text(log.discount_pct[rows]),
            _float_text(log.validity_hours[rows]),
            _int_text(log.cap_yen[rows]),
            _float_text(log.attach_delay_h[rows]),
            ["1" if s else "0" for s in flags],
            sale_cells(log.purchase_delay_h, _float_text),
            sale_cells(log.sale_price_yen, _int_text),
            sale_cells(log.coupon_cost_yen, _int_text),
        ]

    _write_table(path, OUTCOME_HEADER, len(log), cells)


def _outcome_cells(columns: list[list[str]]) -> dict:
    ids, round_, disc, validity, cap, attach, sold, purchase, price, cost = columns
    disc = _ints(disc)
    coupon = disc.tolist()
    if not set(sold) <= {"0", "1"}:
        raise ValueError("column 'sold' must be 0 or 1")
    nan = float("nan")
    return dict(
        item_ids=ids,
        round=_ints(round_),
        discount_pct=disc,
        # A no-coupon row's validity and cap cells are not read.
        validity_hours=[float(v) if d else 0.0 for d, v in zip(coupon, validity)],
        cap_yen=[int(c) if d else 0 for d, c in zip(coupon, cap)],
        attach_delay_h=_floats(attach),
        sold=[s == "1" for s in sold],
        purchase_delay_h=[float(c) if c else nan for c in purchase],
        sale_price_yen=[int(c) if c else nan for c in price],
        coupon_cost_yen=[int(c) if c else nan for c in cost],
    )


def _outcome_row(row: list[str], path: str, line: int) -> dict:
    nan = float("nan")
    disc = _parse_int(row[2], path, line, "discount_pct")
    out = dict(
        item_ids=row[0],
        discount_pct=disc,
        validity_hours=_parse_float(row[3], path, line, "validity_hours") if disc else 0.0,
        cap_yen=_parse_int(row[4], path, line, "cap_yen") if disc else 0,
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
        sale_price_yen=nan if row[8] == "" else _parse_int(row[8], path, line, "sale_price_yen"),
        coupon_cost_yen=(
            nan if row[9] == "" else _parse_int(row[9], path, line, "coupon_cost_yen")
        ),
    )
    return out


def read_outcomes(path: str) -> OutcomeLog:
    return OutcomeLog.from_columns(
        **_read_table(path, OUTCOME_HEADER, _outcome_cells, _outcome_row)
    )


# ---------------------------------------------------------------------------
# allocation plans


def write_plans(plans: Sequence[AllocationPlan], path: str) -> None:
    lines = [PLAN_HEADER]
    for p in plans:
        j, k = p.round1_coupon, p.round2_coupon
        lines.append(
            ",".join(
                [
                    p.item_id,
                    str(j.discount_pct),
                    fmt(j.validity_hours),
                    str(j.cap_yen),
                    str(k.discount_pct),
                    fmt(k.validity_hours),
                    str(k.cap_yen),
                    fmt(p.attach_delay_h),
                    fmt(p.p_round1),
                    fmt(p.p_round2),
                    fmt(p.p_combined),
                    fmt(p.p_baseline),
                    fmt(p.lift),
                    fmt(p.expected_cost),
                    fmt(p.roi),
                    "1" if p.feasible else "0",
                ]
            )
        )
    _write_text(path, "\n".join(lines) + "\n")


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
    arms = []
    for disc, validity, cap in payload:
        if disc == 0:
            arms.append(CouponConfig.none())
        else:
            arms.append(
                CouponConfig(discount_pct=int(disc), validity_hours=float(validity), cap_yen=int(cap))
            )
    return CouponSet(arms=tuple(arms), purpose=purpose)


def _dump_json(payload: dict, path: str) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON: {exc}") from None
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
            "rng_seed": model.config.rng_seed,
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
                rng_seed=cfg["rng_seed"],
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
    try:
        first = load_model(os.path.join(in_dir, payload["first_model"]))
        second = load_model(os.path.join(in_dir, payload["second_model"]))
        return PredictorPair(
            first=first,
            second=second,
            round1_set=_coupon_set_from(payload["round1_set"], "round1"),
            round2_set=_coupon_set_from(payload["round2_set"], "round2"),
            ipw_epsilon=float(payload["ipw_epsilon"]),
        )
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed pair artifact: {exc}") from None


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
                    str(c.rng_seed),
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
