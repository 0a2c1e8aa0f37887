"""Run configuration: a flat sectioned key=value file parsed into dataclasses.

Grammar (INI as understood by :mod:`configparser`, ``#``/``;`` comments):

    [simulator]      — any SimConfig field; omitted keys keep their defaults.
                       ``feature_weights``, ``ltv_lognormal_params`` and
                       ``price_lognormal_params`` are comma-separated numbers.
    [coupons.round1] — ``arms = disc:validity_h:cap_yen, ...`` listing the real
    [coupons.round2]   coupon arms. The no-coupon control arm is always present
                       as arm 0 and must not be listed (a 0% arm is an error).
    [learner]        — first-round learner: kind, learning_rate, l2, epochs,
                       max_stumps, k_folds; optional ``grid_<key>``
                       comma lists expand to a cartesian candidate grid.
                       For logistic fits ``epochs`` caps the Newton steps
                       (a fit stops earlier once converged) and
                       ``learning_rate`` scales each step (1.0 = full step).
    [learner.second] — optional overrides for the second-round learner
                       (no grid); defaults to the [learner] point values.
    [policy]         — lift_threshold, attach_delay_h, ipw_epsilon,
                       ipw_variant, optional ltv_override.
    [evaluation]     — deciles, bootstrap_b, bucket_h, seeds (comma list),
                       train_seed, train_n_items.
    [io]             — catalog, round1_log, round2_log, model_dir: the paths
                       commands read their inputs from (relative paths resolve
                       against the process working directory). All must be
                       distinct.

Any unknown section or key is an error, reported with the file name and the
offending section/key so typos fail loudly instead of silently reverting to a
default.
"""

from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .decision import DEFAULT_ATTACH_DELAY_H, PolicyConstraint
from .domain import CouponConfig, CouponSet
from .errors import InputError
from .learner import LearnerConfig
from .simulator import SimConfig
from .uplift import IPW_EPSILON_DEFAULT, check_ipw_epsilon


@dataclass(frozen=True)
class LearnerSection:
    """First-round learner point config plus its optional search grid."""

    base: LearnerConfig
    grid: tuple[LearnerConfig, ...]
    k_folds: int = 5


@dataclass(frozen=True)
class EvaluationSection:
    deciles: int = 10
    bootstrap_b: int = 200
    bucket_h: float = 2.0
    seeds: tuple[int, ...] = (7,)
    train_seed: int = 1000
    train_n_items: int = 50_000

    def __post_init__(self):
        if not self.seeds:
            raise InputError("seeds must be non-empty")
        if self.train_n_items <= 0:
            raise InputError("train_n_items must be > 0")


@dataclass(frozen=True)
class IoSection:
    catalog: str = "catalog.csv"
    round1_log: str = "round1_log.csv"
    round2_log: str = "round2_log.csv"
    model_dir: str = "model"

    def __post_init__(self):
        paths = [self.catalog, self.round1_log, self.round2_log, self.model_dir]
        if len(set(paths)) != len(paths):
            raise InputError("paths must be distinct")


@dataclass(frozen=True)
class RunConfig:
    simulator: SimConfig = field(default_factory=SimConfig)
    round1_set: CouponSet = field(
        default_factory=lambda: _default_set(
            ((5, 72.0, 1000), (10, 72.0, 2000), (15, 72.0, 3000)), "round1"
        )
    )
    round2_set: CouponSet = field(
        default_factory=lambda: _default_set(
            ((5, 48.0, 1000), (10, 48.0, 2000), (15, 48.0, 3000)), "round2"
        )
    )
    learner: LearnerSection = field(
        default_factory=lambda: LearnerSection(
            base=_DEFAULT_LEARNER, grid=(_DEFAULT_LEARNER,)
        )
    )
    learner_second: Optional[LearnerConfig] = None
    lift_threshold: float = 0.01
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H
    ipw_epsilon: float = IPW_EPSILON_DEFAULT
    ipw_variant: str = "mean"
    ltv_override: Optional[float] = None
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    io: IoSection = field(default_factory=IoSection)

    def __post_init__(self):
        self.constraint()  # refuses a bad lift_threshold or ltv_override
        if not self.attach_delay_h >= 0:
            raise InputError(f"attach_delay_h must be >= 0, got {self.attach_delay_h!r}")
        check_ipw_epsilon(self.ipw_epsilon)
        if self.ipw_variant not in ("mean", "applied"):
            raise InputError(
                f"ipw_variant must be 'mean' or 'applied', got {self.ipw_variant!r}"
            )

    def constraint(self) -> PolicyConstraint:
        return PolicyConstraint(
            lift_threshold=self.lift_threshold, ltv_override=self.ltv_override
        )

    def second_learner(self) -> LearnerConfig:
        return self.learner_second if self.learner_second is not None else self.learner.base


_DEFAULT_LEARNER = LearnerConfig(kind="logistic", learning_rate=1.0, epochs=1500)


def _default_set(arms, purpose: str) -> CouponSet:
    real = tuple(
        CouponConfig(discount_pct=d, validity_hours=v, cap_yen=c) for d, v, c in arms
    )
    return CouponSet(arms=(CouponConfig.none(),) + real, purpose=purpose)


def _parse_scalar(raw: str, target_type, where: str):
    raw = raw.strip()
    try:
        value = target_type(raw)
    except ValueError:
        raise InputError(f"{where}: expected {target_type.__name__}, got {raw!r}") from None
    if target_type is float and not math.isfinite(value):
        raise InputError(f"{where}: expected a finite number, got {raw!r}")
    return value


def _parse_tuple(raw: str, target_type, where: str) -> tuple:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    return tuple(_parse_scalar(p, target_type, where) for p in parts)


def _parse_keys(raw: dict[str, str], section: str, path: str, types: dict) -> dict:
    """The cells of one section, each parsed by its entry in ``types``.

    A ``(type, n)`` entry is a comma list of ``n`` values, or of any number
    when ``n`` is None. A key missing from ``types`` is an error.
    """
    unknown = sorted(set(raw) - set(types))
    if unknown:
        raise InputError(f"{path}: [{section}] unknown key {unknown[0]!r}")
    out = {}
    for name, cell in raw.items():
        where = f"{path}: [{section}] {name}"
        if isinstance(types[name], tuple):
            target_type, n = types[name]
            out[name] = _parse_tuple(cell, target_type, where)
            if n is not None and len(out[name]) != n:
                raise InputError(f"{where}: expected {n} numbers, got {cell!r}")
        else:
            out[name] = _parse_scalar(cell, types[name], where)
    return out


def _build(cls, kwargs: dict, section: str, path: str):
    """``cls(**kwargs)``, naming the file and section in a refusal."""
    try:
        return cls(**kwargs)
    except InputError as exc:
        raise InputError(f"{path}: [{section}] {exc}") from None


_SIM_TYPES = {
    "n_items": int,
    "rng_seed": int,
    "base_logit_r1": float,
    "base_logit_r2": float,
    "feature_weights": (float, None),
    "effect_scale": float,
    "delay_knee_h": float,
    "delay_floor": float,
    "purchase_time_rate": float,
    "ltv_lognormal_params": (float, 2),
    "price_lognormal_params": (float, 2),
    "likes_rate": float,
    "max_age_days": int,
    "rct_max_delay_h": float,
}


def _parse_coupon_set(raw: dict[str, str], section: str, purpose: str, path: str) -> CouponSet:
    cell = _parse_keys(raw, section, path, {"arms": str}).get("arms")
    if cell is None:
        raise InputError(f"{path}: [{section}] missing required key 'arms'")
    arms = [CouponConfig.none()]
    for part in (s.strip() for s in cell.split(",")):
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) != 3:
            raise InputError(
                f"{path}: [{section}] arm {part!r} must be disc:validity_h:cap_yen"
            )
        where = f"{path}: [{section}] arm {part!r}"
        disc = _parse_scalar(pieces[0], int, where)
        if disc == 0:
            raise InputError(
                f"{where}: the no-coupon control arm is implicit; do not list a 0% arm"
            )
        arms.append(
            CouponConfig(
                discount_pct=disc,
                validity_hours=_parse_scalar(pieces[1], float, where),
                cap_yen=_parse_scalar(pieces[2], int, where),
            )
        )
    if len(arms) < 2:
        raise InputError(f"{path}: [{section}] needs at least one real coupon arm")
    return _build(CouponSet, dict(arms=tuple(arms), purpose=purpose), section, path)


_LEARNER_TYPES = {
    "kind": str,
    "learning_rate": float,
    "l2": float,
    "epochs": int,
    "max_stumps": int,
}
# [learner] also takes k_folds and a grid_<key> comma list for each numeric key.
_LEARNER_SECTION_TYPES = {
    **_LEARNER_TYPES,
    "k_folds": int,
    **{f"grid_{key}": (typ, None) for key, typ in _LEARNER_TYPES.items() if key != "kind"},
}


def _parse_learner(raw: dict[str, str], path: str) -> LearnerSection:
    cells = _parse_keys(raw, "learner", path, _LEARNER_SECTION_TYPES)
    k_folds = cells.pop("k_folds", 5)
    grid_cells = {
        name[len("grid_") :]: cells.pop(name) for name in list(cells) if name.startswith("grid_")
    }
    base = _build(LearnerConfig, cells, "learner", path)
    if not grid_cells:
        return LearnerSection(base=base, grid=(base,), k_folds=k_folds)
    for key, values in grid_cells.items():
        if not values:
            raise InputError(f"{path}: [learner] grid_{key} must list at least one value")
    keys = sorted(grid_cells)
    grid = []
    for combo in itertools.product(*(grid_cells[k] for k in keys)):
        try:
            grid.append(replace(base, **dict(zip(keys, combo))))
        except InputError as exc:
            raise InputError(f"{path}: [learner] grid point {combo!r}: {exc}") from None
    return LearnerSection(base=base, grid=tuple(grid), k_folds=k_folds)


_POLICY_TYPES = {
    "lift_threshold": float,
    "attach_delay_h": float,
    "ipw_epsilon": float,
    "ipw_variant": str,
    "ltv_override": float,
}
_EVALUATION_TYPES = {
    "deciles": int,
    "bootstrap_b": int,
    "bucket_h": float,
    "seeds": (int, None),
    "train_seed": int,
    "train_n_items": int,
}
_IO_TYPES = dict.fromkeys(("catalog", "round1_log", "round2_log", "model_dir"), str)
# Each RunConfig field built from one section: (section, class, key types).
_DATACLASS_SECTIONS = {
    "simulator": ("simulator", SimConfig, _SIM_TYPES),
    "learner_second": ("learner.second", LearnerConfig, _LEARNER_TYPES),
    "evaluation": ("evaluation", EvaluationSection, _EVALUATION_TYPES),
    "io": ("io", IoSection, _IO_TYPES),
}


_KNOWN_SECTIONS = (
    "simulator",
    "coupons.round1",
    "coupons.round2",
    "learner",
    "learner.second",
    "policy",
    "evaluation",
    "io",
)


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; raises InputError with diagnostics."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None
    for section in parser.sections():
        if section not in _KNOWN_SECTIONS:
            raise InputError(f"{path}: unknown section [{section}]")

    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    kwargs: dict = {}
    for field_name, (section, cls, types) in _DATACLASS_SECTIONS.items():
        if section in sections:
            cells = _parse_keys(sections[section], section, path, types)
            kwargs[field_name] = _build(cls, cells, section, path)
    for section, purpose in (("coupons.round1", "round1"), ("coupons.round2", "round2")):
        if section in sections:
            kwargs[f"{purpose}_set"] = _parse_coupon_set(
                sections[section], section, purpose, path
            )
    if "learner" in sections:
        kwargs["learner"] = _parse_learner(sections["learner"], path)
    kwargs.update(_parse_keys(sections.get("policy", {}), "policy", path, _POLICY_TYPES))
    # The other sections are built by now: RunConfig refuses only a [policy] value.
    return _build(RunConfig, kwargs, "policy", path)
