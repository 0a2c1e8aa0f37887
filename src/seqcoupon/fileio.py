"""File formats: CSV tables, JSON model artifacts, and run manifests.

Every writer is deterministic — fixed headers, floats at 12 significant
digits, JSON with sorted keys and no timestamps — so re-running a command
reproduces files byte for byte. Model artifacts serialize parameters with
full repr precision and therefore round-trip predictions exactly.

The catalog, outcome-log and plan tables are each stated once, as a column
spec (``CATALOG_COLUMNS``, ``OUTCOME_COLUMNS``, ``PLAN_COLUMNS``). A column
has a header name, a cell kind and the ``from_columns`` argument (or table
attribute) it holds. The kinds are ``text`` (quoted where ``csv`` would quote
it), ``int``, ``yen`` (an integer below 2**53 in magnitude), ``float``
(written at 12 significant digits) and ``flag`` (0 or 1). Two outcome-log
rules ride along: a ``sale`` cell is empty on an unsold row and reads as
NaN, and a ``coupon`` cell is not read on a discount-0 row. The header, the
``np.loadtxt`` fields of the one-call parse (bytes for text, flag and sale
cells, each as wide as its column's widest cell as one scan of the file
measures it, then typed by whole-column checks and casts, so no cell passes
through Python on its own), the row parser it falls back to and the writer's
cell formats all follow from the spec, so one ``_read_table`` and one
``_table_chunks`` serve every table. One reader, ``read_utf8``, opens every
input and one writer, ``_write_text``, every artifact.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
import warnings
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .decision import PlanTable
from .domain import (BLOCK_ROWS, YEN_BOUND, CatalogArrays, CouponConfig, CouponSet,
                     OutcomeLog, check_catalog)
from .errors import InputError, ManifestMismatchError
from .evaluation import ComparisonReport, DelayTables, StrategyMetrics, UpliftCurve
from .learner import GridResult, LearnerConfig, Model, Stump
from .uplift import PredictorPair, check_ipw_epsilon

FORMAT_VERSION = 1


class Column(NamedTuple):
    """One CSV column; ``arg`` names what it holds where the header name does not."""

    header: str
    kind: str
    rule: str = ""
    arg: str = ""

    @property
    def name(self) -> str:
        return self.arg or self.header


CATALOG_COLUMNS = (
    Column("item_id", "text", arg="ids"), Column("seller_id", "text", arg="seller_ids"),
    Column("price_yen", "yen", arg="price"), Column("condition", "int"),
    Column("age_days", "float"), Column("likes", "int"),
    Column("demand_index", "float", arg="demand"),
    Column("season_phase", "float", arg="season"), Column("seller_ltv_yen", "yen", arg="ltv"),
    Column("key_action_ts", "float", arg="key_ts"),
)
OUTCOME_COLUMNS = (
    Column("item_id", "text", arg="item_ids"), Column("round", "int"),
    Column("discount_pct", "int"), Column("validity_hours", "float", "coupon"),
    Column("cap_yen", "yen", "coupon"), Column("attach_delay_h", "float"),
    Column("sold", "flag"), Column("purchase_delay_h", "float", "sale"),
    Column("sale_price_yen", "yen", "sale"), Column("coupon_cost_yen", "yen", "sale"),
)
PLAN_COLUMNS = (
    Column("item_id", "text", arg="item_ids"), Column("j_discount_pct", "int"),
    Column("j_validity_h", "float"), Column("j_cap", "yen"), Column("k_discount_pct", "int"),
    Column("k_validity_h", "float"), Column("k_cap", "yen"), Column("attach_delay_h", "float"),
    Column("p_round1", "float"), Column("p_round2", "float"), Column("p_combined", "float"),
    Column("p_baseline", "float"), Column("lift", "float"), Column("expected_cost", "float"),
    Column("roi", "float"), Column("feasible", "flag"),
)


def _header(columns: Sequence[Column]) -> str:
    return ",".join(c.header for c in columns)


CATALOG_HEADER, OUTCOME_HEADER, PLAN_HEADER = map(
    _header, (CATALOG_COLUMNS, OUTCOME_COLUMNS, PLAN_COLUMNS))
CURVE_HEADER = "fraction,uplift,lo,hi"
BUCKET_HEADER = "bucket_start_h,metric,value,n"
_GRID_FIELDS = tuple(f.name for f in dataclasses.fields(LearnerConfig))
GRID_HEADER = ",".join((*_GRID_FIELDS, "mean_loss", "fold_losses", "prior_folds"))
MANIFEST_NAME = "manifest.json"
FLOAT_CELL = "%.12g"
CELL_FORMATS = {"text": "%s", "int": "%d", "yen": "%d", "float": FLOAT_CELL, "flag": "%d"}


def fmt(value: Optional[float]) -> str:
    """Canonical float cell: 12 significant digits, `inf` literal, empty for null."""
    return "" if value is None else FLOAT_CELL % value


def _write_text(path: str, chunks: Iterable[str]) -> None:
    """The one writer: ``chunks`` as UTF-8 with LF newlines into ``<path>.tmp``,
    renamed over ``path`` after the last, so an artifact appears whole or not at all."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="\n", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _parse_cell(cell: str, column: Column, path: str, line: int):
    """One cell as the row parser reads it; a bad cell raises InputError naming its line."""
    where, kind = f"{path}:{line}: column {column.header!r}", column.kind
    if kind == "text":
        return cell
    if column.rule == "sale" and cell == "":
        return np.nan
    if kind == "flag":
        if cell not in ("0", "1"):
            raise InputError(f"{where} must be 0 or 1, got {cell!r}")
        return cell == "1"
    try:
        value = float(cell) if kind == "float" else int(cell)
    except ValueError:
        raise InputError(
            f"{where} is not {'a number' if kind == 'float' else 'an integer'}: {cell!r}"
        ) from None
    if kind == "yen" and not -YEN_BOUND < value < YEN_BOUND:
        raise InputError(f"{where} is out of range, |yen| must be below 2**53: {cell!r}")
    return value


def _parse_row(row: list[str], columns: Sequence[Column], path: str, line: int) -> dict:
    values = {}
    for cell, column in zip(row, columns):
        unread = column.rule == "coupon" and values["discount_pct"] == 0
        values[column.name] = 0 if unread else _parse_cell(cell, column, path, line)
    return values


def read_utf8(path: str) -> bytes:
    """The one reader: the file's bytes. Bytes that are not UTF-8 raise
    InputError naming their line, and a path the file system encoding cannot
    hold raises InputError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except UnicodeEncodeError:
        raise InputError(f"{path}: the file system encoding "
                         f"{sys.getfilesystemencoding()} cannot encode this path") from None
    if not data.isascii():
        try:
            data.decode()
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise InputError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
    return data


def _read_rows(path: str, expected_header: str) -> list[tuple[int, list[str]]]:
    """The row parser: every non-blank row after the header, with its line number.
    A cell past ``csv``'s field size limit raises InputError naming its line."""
    reader = csv.reader(io.StringIO(read_utf8(path).decode(), newline=""))
    rows, end = [], 0
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}:1: missing header row")
        if header != expected_header.split(","):
            raise InputError(
                f"{path}:1: unexpected header {','.join(header)!r}; "
                f"expected {expected_header!r}"
            )
        # A record's line is the file line it starts on; a quoted cell may span lines.
        end = 1
        for row in reader:
            line, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}:{line}: expected {len(header)} cells, got {len(row)}")
            rows.append((line, row))
    except csv.Error as exc:
        raise InputError(f"{path}:{end + 1}: {exc}") from None
    return rows


SCAN_BLOCK_BYTES = 1 << 15


def _scan_cells(data: bytes, start: int, dtype: np.dtype):
    """(rows, ``dtype`` with each unsized ``S`` field as wide as its column's widest
    cell) of the lines after the newline ``data[start]``, or None unless each ends
    in a newline and holds a cell per field. Lines are scanned about
    ``SCAN_BLOCK_BYTES`` at a time, so the scan holds a few blocks, not the file."""
    names, raw, rows = dtype.names, np.frombuffer(data, np.uint8), 0
    n_cells = len(names)
    widths = {j: 1 for j, name in enumerate(names) if dtype[name] == np.dtype("S")}
    while start < len(data) - 1:
        # The last newline within a block, or the first past a line longer than one.
        end = max(data.rfind(b"\n", start + 1, start + SCAN_BLOCK_BYTES),
                  data.find(b"\n", start + 1))
        if end < 0:
            return None
        block, start = raw[start:end + 1], end
        newlines = block == 10
        cuts = np.flatnonzero(newlines | (block == 44))
        # Both ends are newlines, so every line holds n_cells cells exactly when
        # every n_cells-th cut, and only it, is a newline.
        line_ends = cuts[::n_cells]
        if np.count_nonzero(newlines) != len(line_ends) or not newlines[line_ends].all():
            return None
        rows += (len(cuts) - 1) // n_cells
        for j, widest in widths.items():
            widths[j] = max(widest, int((cuts[j + 1::n_cells] - cuts[j:-1:n_cells]).max()) - 1)
    return rows, np.dtype([(name, f"S{widths[j]}" if j in widths else dtype[name])
                           for j, name in enumerate(names)])


def _parse_columns(path: str, header: str, dtype: np.dtype) -> Optional[np.ndarray]:
    """The table as one structured array, or None where only the row parser can tell.

    Split on newlines and commas, the file's bytes give ``csv.reader``'s cells
    when they hold no quote, CR or NUL and the header matches. ``_scan_cells``
    checks that every line holds the header's number of cells (a blank line or
    a last line without a newline, which no writer makes, fails) and sizes each
    ``S`` field to its column's widest cell, so ``np.loadtxt`` cuts no cell as
    it parses every row in one call. It refuses some numbers that ``int`` and
    ``float`` accept (``1_0``, non-ASCII digits, integers past int64) but none
    that they refuse, so an error, a warning or a row count other than the
    scan's (the file changed between the reads) leaves the file to the row
    parser, which names the line of a bad cell. Read as latin-1, an ``S`` cell
    holds the file's UTF-8 bytes.
    """
    data, head = read_utf8(path), header.encode() + b"\n"
    if not data.startswith(head) or any(map(data.__contains__, (b'"', b"\r", b"\0"))):
        return None
    scan = _scan_cells(data, len(head) - 1, dtype)
    del data  # ``np.loadtxt`` reads the file again, a block at a time
    if scan is None:
        return None
    rows, sized = scan
    if not rows:
        return np.empty(0, sized)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(path, dtype=sized, delimiter=",", comments=None,
                               skiprows=1, quotechar=None, ndmin=1, encoding="latin-1")
    except (ValueError, OverflowError, Warning):
        return None
    return table if len(table) == rows else None


def _columns_of(table: np.ndarray, columns: Sequence[Column]) -> dict:
    """The one-call parse as typed columns; ValueError (or OverflowError) where a
    cell needs the row parser, which reads it or names its line."""
    out = {}
    for c in columns:
        cells = table[c.name]
        if c.kind == "flag":
            value = cells == b"1"
            if not (value | (cells == b"0")).all():
                raise ValueError(f"column {c.header!r} must be 0 or 1")
        elif c.rule == "sale":
            value, filled = np.full(len(cells), np.nan), cells != b""
            value[filled] = cells[filled].astype(float if c.kind == "float" else np.int64)
        elif c.rule == "coupon":
            value = np.where(out["discount_pct"] == 0, 0, cells)
        else:
            value = np.ascontiguousarray(cells)
        if c.kind == "yen" and ((value >= YEN_BOUND) | (value <= -YEN_BOUND)).any():
            raise ValueError(f"column {c.header!r} is out of range")
        out[c.name] = value
    return out


def _read_table(path: str, columns: Sequence[Column]) -> dict:
    """A table's typed columns, keyed by the ``from_columns`` argument names.

    ``np.loadtxt`` parses the file in one call, holding ids, flags and sale
    cells (empty where unsold) as bytes until whole-column checks and casts
    type them. Where it or ``_columns_of`` cannot take a cell, the row parser
    re-reads the file and names the line of the first bad cell.
    """
    header = _header(columns)
    fields = {"text": "S", "flag": "S", "float": float}
    dtype = np.dtype([(c.name, "S" if c.rule == "sale" else fields.get(c.kind, np.int64))
                      for c in columns])
    table = _parse_columns(path, header, dtype)
    if table is not None:
        try:
            return _columns_of(table, columns)
        except (ValueError, OverflowError):
            pass
    rows = [_parse_row(row, columns, path, line) for line, row in _read_rows(path, header)]
    return {c.name: [row[c.name] for row in rows] for c in columns}


def _quote(cell: str) -> str:
    """``cell`` as ``csv.QUOTE_MINIMAL`` writes it: quoted where it holds a comma,
    quote, CR or LF, with its quotes doubled."""
    if any(map(cell.__contains__, ',"\r\n')):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(values: np.ndarray, column: Column, sold: Optional[np.ndarray]):
    """One block of one column as the values its cell format takes."""
    if column.kind == "text":
        cells = map(bytes.decode, values)
        # One scan of the block's bytes spares canonical ids a per-row check.
        block = values.tobytes()
        return map(_quote, cells) if any(map(block.__contains__, b',"\r\n')) else cells
    if column.rule == "sale":
        cell = CELL_FORMATS[column.kind]
        return [cell % v if s else "" for v, s in zip(values.tolist(), sold.tolist())]
    return values.tolist()


def _table_chunks(columns: Sequence[Column], table, sold=None) -> Iterator[str]:
    """The header and every row of ``table``, taking each column from the
    attribute it names; ``sold`` marks the rows whose sale cells are filled.

    Each row is formatted by one ``%`` of the joined cell formats on its
    values. Rows are formatted one block at a time, so that only one block's
    cells are alive at once rather than every cell of the table; an id
    column is decoded as a ``map``, so only its row's id is alive.
    """
    row_format = ",".join("%s" if c.rule == "sale" else CELL_FORMATS[c.kind] for c in columns)
    yield _header(columns) + "\n"
    for lo in range(0, len(table), BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        block = [_cells(getattr(table, c.name)[rows], c, None if sold is None else sold[rows])
                 for c in columns]
        yield "\n".join(map(row_format.__mod__, zip(*block))) + "\n"


def write_catalog(items: CatalogArrays, path: str) -> None:
    check_catalog(items)
    _write_text(path, _table_chunks(CATALOG_COLUMNS, items))


def read_catalog(path: str) -> CatalogArrays:
    """The catalog CSV as columns."""
    return CatalogArrays.from_columns(**_read_table(path, CATALOG_COLUMNS))


def write_outcomes(records: OutcomeLog, path: str) -> None:
    _write_text(path, _table_chunks(OUTCOME_COLUMNS, records, sold=records.sold))


def read_outcomes(path: str) -> OutcomeLog:
    return OutcomeLog.from_columns(**_read_table(path, OUTCOME_COLUMNS))


def write_plans(plans: PlanTable, path: str) -> None:
    _write_text(path, _table_chunks(PLAN_COLUMNS, plans))


# ---------------------------------------------------------------------------
# curves and delay tables


def write_curve(curve: UpliftCurve, path: str) -> None:
    lines = [CURVE_HEADER]
    bands = curve.bands if curve.bands is not None else [None] * len(curve.points)
    for (frac, value), band in zip(curve.points, bands):
        lo, hi = band if band is not None else (None, None)
        lines.append(",".join([fmt(frac), fmt(value), fmt(lo), fmt(hi)]))
    _write_text(path, ["\n".join(lines) + "\n"])


def write_delay_tables(tables: DelayTables, path: str) -> None:
    lines = [BUCKET_HEADER]
    named = (("lift_str", tables.lift_by_attach_delay), ("str", tables.str_by_purchase_delay),
             ("aov", tables.aov_by_purchase_delay))
    for metric, rows in named:
        for r in rows:
            lines.append(",".join([fmt(r.bucket_start_h), metric, fmt(r.value), str(r.n)]))
    _write_text(path, ["\n".join(lines) + "\n"])


# ---------------------------------------------------------------------------
# model artifacts


def _coupon_set_payload(cs: CouponSet) -> list[list[float]]:
    return [[c.discount_pct, c.validity_hours, c.cap_yen] for c in cs]


def _coupon_set_from(payload, purpose: str) -> CouponSet:
    return CouponSet(arms=tuple(CouponConfig(*arm) for arm in payload), purpose=purpose)


def _dump_json(payload: dict, path: str) -> None:
    _write_text(path, [json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"])


def _load_json(path: str) -> dict:
    try:
        payload = json.loads(read_utf8(path).decode())
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
        "config": dataclasses.asdict(model.config),
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
                Stump(f, float(t), float(lv), float(rv))
                for f, t, lv, rv in payload["stumps"]
            ),
            # Keys of no ``LearnerConfig`` field (an old ``rng_seed``) are ignored.
            config=LearnerConfig(**{f.name: cfg[f.name]
                                    for f in dataclasses.fields(LearnerConfig)}),
        )
        mean, scale = model.feature_mean, model.feature_scale
        if mean.ndim != 1 or scale.shape != mean.shape:
            raise ValueError("feature_mean and feature_scale must be lists of equal length")
        if not (np.isfinite(mean).all() and np.isfinite(scale).all() and (scale > 0).all()):
            raise ValueError("feature_mean must be finite and feature_scale finite and > 0")
        if not np.isfinite([model.intercept, *([] if model.coef is None else model.coef)]).all():
            raise ValueError("the intercept and coefficients must be finite")
        # ``type`` and not ``isinstance``: a bool is an int too.
        if not all(type(s.feature) is int and 0 <= s.feature < len(mean) for s in model.stumps):
            raise ValueError(f"stump features must be integers in [0, {len(mean)})")
        leaves = [(s.threshold, s.left_value, s.right_value) for s in model.stumps]
        if not np.isfinite(leaves).all():
            raise ValueError("stump thresholds and leaf values must be finite")
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
    """One row per grid point: its ``LearnerConfig`` fields, then the losses."""
    lines = [GRID_HEADER]
    for r in results:
        config = (getattr(r.config, name) for name in _GRID_FIELDS)
        lines.append(",".join([
            *(fmt(v) if isinstance(v, float) else str(v) for v in config),
            fmt(r.mean_loss),
            ";".join(fmt(v) for v in r.fold_losses),
            ";".join(str(int(v)) for v in r.prior_folds),
        ]))
    _write_text(path, ["\n".join(lines) + "\n"])


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
    for name, metrics in report.strategies.items():
        lines.extend(_metrics_lines(name, metrics))
    for field in ("roi_realized", "lift_str"):
        lines.append(f"[per_seed {field}]")
        for name, per_seed in report.per_seed.items():
            lines.append(f"{name}: {','.join(fmt(getattr(m, field)) for m in per_seed)}")
    return "\n".join(lines) + "\n"


def write_comparison_report(report: ComparisonReport, path: str) -> None:
    _write_text(path, [render_comparison_report(report)])


# ---------------------------------------------------------------------------
# run manifests


def build_manifest(command: str, config_sha256: str, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "command": command,
        "config_sha256": config_sha256,
        "seed": seed,
    }


def check_manifest(out_dir: str, manifest: dict) -> bool:
    """Whether ``out_dir`` holds ``manifest``; a different one raises.

    A mismatch means the directory holds results from a different run;
    refusing protects those files from a silent mixed-config overwrite.
    """
    path = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return False
    existing = _load_json(path)
    if existing != manifest:
        raise ManifestMismatchError(
            f"{path} was written by a different run "
            f"(existing {existing}, current {manifest}); "
            "use a fresh output directory"
        )
    return True


def ensure_manifest(out_dir: str, manifest: dict) -> None:
    """Write the manifest, or verify it matches component-for-component."""
    if not check_manifest(out_dir, manifest):
        _dump_json(manifest, os.path.join(out_dir, MANIFEST_NAME))
