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
    [learner.second] — optional second-round learner (no grid); without it
                       the second round uses the [learner] point values.
                       A key omitted from either learner section takes
                       ``LearnerConfig``'s default, not the other's value.
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
import typing
from dataclasses import dataclass, field, replace
from typing import Optional

from .decision import DEFAULT_ATTACH_DELAY_H, PolicyConstraint
from .domain import CouponConfig, CouponSet
from .errors import InputError
from .evaluation import DEFAULT_BUCKET_H, DEFAULT_DECILES
from .learner import LearnerConfig
from .simulator import SimConfig
from .uplift import IPW_EPSILON_DEFAULT, IPW_VARIANT_APPLIED, IPW_VARIANT_MEAN, check_ipw_epsilon


@dataclass(frozen=True)
class LearnerSection:
    """First-round learner point config plus its optional search grid."""

    base: LearnerConfig
    grid: tuple[LearnerConfig, ...]
    k_folds: int = 5

    def __post_init__(self):
        if self.k_folds < 2:
            raise InputError("k_folds must be >= 2")


@dataclass(frozen=True)
class EvaluationSection:
    deciles: int = DEFAULT_DECILES
    bootstrap_b: int = 200
    bucket_h: float = DEFAULT_BUCKET_H
    seeds: tuple[int, ...] = (7,)
    train_seed: int = 1000
    train_n_items: int = 50_000

    def __post_init__(self):
        if not self.seeds:
            raise InputError("seeds must be non-empty")
        if min(self.seeds) < 0:
            raise InputError("seeds must be >= 0")
        if self.train_seed < 0:
            raise InputError("train_seed must be >= 0")
        if self.deciles < 1:
            raise InputError("deciles must be >= 1")
        if self.bootstrap_b < 2:
            raise InputError("bootstrap_b must be >= 2")
        if not self.bucket_h > 0:
            raise InputError("bucket_h must be > 0")
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
        default_factory=lambda: LearnerSection(base=LearnerConfig(), grid=(LearnerConfig(),))
    )
    learner_second: Optional[LearnerConfig] = None
    lift_threshold: float = PolicyConstraint.lift_threshold
    attach_delay_h: float = DEFAULT_ATTACH_DELAY_H
    ipw_epsilon: float = IPW_EPSILON_DEFAULT
    ipw_variant: str = IPW_VARIANT_MEAN
    ltv_override: Optional[float] = None
    evaluation: EvaluationSection = field(default_factory=EvaluationSection)
    io: IoSection = field(default_factory=IoSection)

    def __post_init__(self):
        self.constraint()  # refuses a bad lift_threshold or ltv_override
        if not self.attach_delay_h >= 0:
            raise InputError(f"attach_delay_h must be >= 0, got {self.attach_delay_h!r}")
        check_ipw_epsilon(self.ipw_epsilon)
        if self.ipw_variant not in (IPW_VARIANT_MEAN, IPW_VARIANT_APPLIED):
            raise InputError(f"ipw_variant must be {IPW_VARIANT_MEAN!r} or "
                             f"{IPW_VARIANT_APPLIED!r}, got {self.ipw_variant!r}")

    def constraint(self) -> PolicyConstraint:
        return PolicyConstraint(
            lift_threshold=self.lift_threshold, ltv_override=self.ltv_override
        )

    def second_learner(self) -> LearnerConfig:
        return self.learner_second if self.learner_second is not None else self.learner.base


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


def _key_types(cls) -> dict:
    """The ``_parse_keys`` types of the fields of ``cls`` that a config key sets.

    A field typed ``int``, ``float`` or ``str`` (or ``Optional`` of one) reads
    as that type; ``tuple[T, ...]`` of numbers reads as ``(T, None)`` and a
    tuple of n numbers as ``(T, n)``. Fields of any other type are left out.
    """
    types = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        if typing.get_origin(hint) is typing.Union:  # Optional[T]
            hint = args[0]
        elif typing.get_origin(hint) is tuple and args[0] in (int, float):
            hint = (args[0], None if args[-1] is Ellipsis else len(args))
        if hint in (int, float, str) or isinstance(hint, tuple):
            types[name] = hint
    return types


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


_LEARNER_TYPES = _key_types(LearnerConfig)
# [learner] also takes k_folds and a grid_<key> comma list for each numeric key.
_LEARNER_SECTION_TYPES = {
    **_LEARNER_TYPES,
    **_key_types(LearnerSection),
    **{f"grid_{key}": (typ, None) for key, typ in _LEARNER_TYPES.items() if key != "kind"},
}


def _parse_learner(raw: dict[str, str], path: str) -> LearnerSection:
    cells = _parse_keys(raw, "learner", path, _LEARNER_SECTION_TYPES)
    k_folds = {"k_folds": cells.pop("k_folds")} if "k_folds" in cells else {}
    grid_cells = {
        name[len("grid_") :]: cells.pop(name) for name in list(cells) if name.startswith("grid_")
    }
    base = _build(LearnerConfig, cells, "learner", path)
    # LearnerConfig checks each field alone, so a grid whose every value passes
    # on its own is valid at every point.
    for key, values in grid_cells.items():
        if not values:
            raise InputError(f"{path}: [learner] grid_{key} must list at least one value")
        for value in values:
            try:
                replace(base, **{key: value})
            except InputError as exc:
                raise InputError(
                    f"{path}: [learner] grid_{key}: grid point value {value!r}: {exc}"
                ) from None
    keys = sorted(grid_cells)
    grid = [replace(base, **dict(zip(keys, combo)))
            for combo in itertools.product(*(grid_cells[k] for k in keys))]
    return _build(LearnerSection, dict(base=base, grid=tuple(grid), **k_folds), "learner", path)


_SIM_TYPES = _key_types(SimConfig)
_POLICY_TYPES = _key_types(RunConfig)  # its scalar fields
_EVALUATION_TYPES = _key_types(EvaluationSection)
_IO_TYPES = _key_types(IoSection)
# Each RunConfig field built from one section: (section, class, key types).
_DATACLASS_SECTIONS = {
    "simulator": ("simulator", SimConfig, _SIM_TYPES),
    "learner_second": ("learner.second", LearnerConfig, _LEARNER_TYPES),
    "evaluation": ("evaluation", EvaluationSection, _EVALUATION_TYPES),
    "io": ("io", IoSection, _IO_TYPES),
}
_KNOWN_SECTIONS = {
    "coupons.round1", "coupons.round2", "learner", "policy",
    *(section for section, _, _ in _DATACLASS_SECTIONS.values()),
}


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; raises InputError with diagnostics."""
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    try:
        with open(path, encoding="utf-8") as fh:
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
