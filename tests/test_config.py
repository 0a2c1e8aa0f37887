import re
import textwrap

import pytest

from seqcoupon import cli
from seqcoupon.config import (
    _DATACLASS_SECTIONS,
    _LEARNER_SECTION_TYPES,
    _POLICY_TYPES,
    EvaluationSection,
    IoSection,
    LearnerSection,
    RunConfig,
    load_config,
)
from seqcoupon.domain import CouponConfig
from seqcoupon.errors import InputError
from seqcoupon.learner import LearnerConfig
from seqcoupon.uplift import check_ipw_epsilon


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(textwrap.dedent(text))
    return str(path)


FULL_CONFIG = """
    [simulator]
    n_items = 1234
    rng_seed = 9
    feature_weights = -0.1, 0.2, 0.0, 0.1, 0.3, 0.1, 0.05
    price_lognormal_params = 8.0, 0.7

    [coupons.round1]
    arms = 5:72:1000, 10:72:2000

    [coupons.round2]
    arms = 7:48:1500

    [learner]
    kind = logistic
    learning_rate = 0.5
    epochs = 100
    k_folds = 3
    grid_learning_rate = 0.25, 0.5
    grid_l2 = 0, 0.1

    [learner.second]
    kind = boosted_stumps
    max_stumps = 50

    [policy]
    lift_threshold = 0.02
    attach_delay_h = 4  # inline comment
    ipw_epsilon = 0.01
    ipw_variant = applied
    ltv_override = 30000

    [evaluation]
    deciles = 5
    bootstrap_b = 50
    bucket_h = 1.5
    seeds = 1, 2, 3
    train_seed = 77
    train_n_items = 5000

    [io]
    catalog = data/catalog.csv
    round1_log = data/r1.csv
    round2_log = data/r2.csv
    model_dir = data/model
"""


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, ""))
        assert config == RunConfig()
        assert config.simulator.n_items == 50_000
        assert [c.discount_pct for c in config.round1_set] == [0, 5, 10, 15]
        assert config.learner.grid == (config.learner.base,)
        assert config.second_learner() == config.learner.base
        assert config.constraint().lift_threshold == 0.01

    def test_default_sections_are_valid(self):
        assert EvaluationSection().seeds == (7,)
        assert IoSection().model_dir == "model"

    @pytest.mark.parametrize("text,first,second", [
        ("", {}, None),
        ("[learner]\nl2 = 0.01\n", {"l2": 0.01}, None),
        ("[learner.second]\nl2 = 0.1\n", {}, {"l2": 0.1}),
    ], ids=["empty", "learner_l2", "second_l2"])
    def test_omitted_learner_keys_take_learner_config_defaults(self, tmp_path, text, first,
                                                               second):
        config = load_config(write_config(tmp_path, text))
        assert config.learner.base == LearnerConfig(**first)
        assert config.learner.grid == (config.learner.base,)
        assert config.second_learner() == LearnerConfig(**(first if second is None else second))


class TestFullParse:
    @pytest.fixture()
    def config(self, tmp_path):
        return load_config(write_config(tmp_path, FULL_CONFIG))

    def test_simulator(self, config):
        assert config.simulator.n_items == 1234
        assert config.simulator.rng_seed == 9
        assert config.simulator.feature_weights == (-0.1, 0.2, 0.0, 0.1, 0.3, 0.1, 0.05)
        assert config.simulator.price_lognormal_params == (8.0, 0.7)
        assert config.simulator.base_logit_r1 == 1.1  # untouched default

    def test_coupon_menus(self, config):
        assert config.round1_set[0] == CouponConfig.none()
        assert [c.discount_pct for c in config.round1_set] == [0, 5, 10]
        assert config.round1_set[2].cap_yen == 2000
        assert [c.discount_pct for c in config.round2_set] == [0, 7]
        assert config.round2_set[1].validity_hours == 48.0

    def test_learner_grid_is_sorted_cartesian_product(self, config):
        assert config.learner.k_folds == 3
        assert config.learner.base == LearnerConfig(
            kind="logistic", learning_rate=0.5, epochs=100
        )
        got = [(c.l2, c.learning_rate) for c in config.learner.grid]
        assert got == [(0.0, 0.25), (0.0, 0.5), (0.1, 0.25), (0.1, 0.5)]
        assert all(c.epochs == 100 for c in config.learner.grid)

    def test_second_learner_override(self, config):
        assert config.learner_second == LearnerConfig(kind="boosted_stumps", max_stumps=50)
        assert config.second_learner() is config.learner_second

    def test_policy(self, config):
        assert config.lift_threshold == 0.02
        assert config.attach_delay_h == 4.0
        assert config.ipw_epsilon == 0.01
        assert config.ipw_variant == "applied"
        assert config.ltv_override == 30000.0
        assert config.constraint().ltv_override == 30000.0

    def test_evaluation_and_io(self, config):
        assert config.evaluation == EvaluationSection(
            deciles=5, bootstrap_b=50, bucket_h=1.5, seeds=(1, 2, 3),
            train_seed=77, train_n_items=5000,
        )
        assert config.io.catalog == "data/catalog.csv"
        assert config.io.model_dir == "data/model"


class TestDiagnostics:
    def test_bad_value_names_section_and_key(self, tmp_path):
        path = write_config(tmp_path, "[simulator]\nn_items = many\n")
        with pytest.raises(InputError, match=r"\[simulator\] n_items.*many"):
            load_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[simulator]\nn_item = 5\n")
        with pytest.raises(InputError, match=r"\[simulator\] unknown key 'n_item'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[simulatr]\nn_items = 5\n")
        with pytest.raises(InputError, match=r"unknown section \[simulatr\]"):
            load_config(path)

    def test_explicit_zero_discount_arm_rejected(self, tmp_path):
        path = write_config(tmp_path, "[coupons.round1]\narms = 0:72:0, 5:72:1000\n")
        with pytest.raises(InputError, match="implicit"):
            load_config(path)

    def test_malformed_arm_rejected(self, tmp_path):
        path = write_config(tmp_path, "[coupons.round1]\narms = 5:72\n")
        with pytest.raises(InputError, match="disc:validity_h:cap_yen"):
            load_config(path)

    def test_duplicate_arm_rejected(self, tmp_path):
        path = write_config(tmp_path, "[coupons.round1]\narms = 5:72:1000, 5:72:1000\n")
        with pytest.raises(InputError, match=r"\[coupons.round1\]"):
            load_config(path)

    def test_missing_arms_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[coupons.round2]\n")
        with pytest.raises(InputError, match="missing required key 'arms'"):
            load_config(path)

    def test_key_outside_any_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "n_items = 5\n")
        with pytest.raises(InputError, match="run.cfg"):
            load_config(path)

    def test_bad_ipw_variant_rejected(self, tmp_path):
        path = write_config(tmp_path, "[policy]\nipw_variant = median\n")
        with pytest.raises(InputError, match="'mean' or 'applied'"):
            load_config(path)

    @pytest.mark.parametrize("cell,message", [
        ("lift_threshold = 2", "lift_threshold must"), ("ltv_override = -1", "ltv_override must"),
        ("ltv_override = nan", "ltv_override: expected a finite number, got 'nan'"),
        ("ltv_override = inf", "ltv_override: expected a finite number, got 'inf'"),
    ])
    def test_bad_constraint_rejected_at_load(self, tmp_path, cell, message):
        path = write_config(tmp_path, f"[policy]\n{cell}\n")
        with pytest.raises(InputError, match=re.escape(f"[policy] {message}")):
            load_config(path)

    @pytest.mark.parametrize("value", ["0", "0.5", "0.7", "5", "-0.001"])
    def test_ipw_epsilon_outside_the_pair_range_rejected_at_load(self, tmp_path, value):
        path = write_config(tmp_path, f"[policy]\nipw_epsilon = {value}\n")
        with pytest.raises(InputError) as refused:
            load_config(path)
        with pytest.raises(InputError) as pair_refusal:
            check_ipw_epsilon(float(value))
        assert str(refused.value) == f"{path}: [policy] {pair_refusal.value}"

    def test_negative_attach_delay_rejected(self, tmp_path):
        path = write_config(tmp_path, "[policy]\nattach_delay_h = -5\n")
        with pytest.raises(InputError, match=r"\[policy\] attach_delay_h must be >= 0"):
            load_config(path)

    def test_duplicate_io_paths_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            "[io]\ncatalog = x.csv\nround1_log = x.csv\n",
        )
        with pytest.raises(InputError, match=r"\[io\].*distinct"):
            load_config(path)

    def test_grid_on_kind_rejected(self, tmp_path):
        path = write_config(tmp_path, "[learner]\ngrid_kind = logistic\n")
        with pytest.raises(InputError, match="unknown key 'grid_kind'"):
            load_config(path)

    @pytest.mark.parametrize("key", ["rng_seed", "grid_rng_seed"])
    def test_removed_learner_rng_seed_rejected(self, tmp_path, key):
        # No fit read it (grid-search folds come from the run seed), so it is gone.
        path = write_config(tmp_path, f"[learner]\n{key} = 3\n")
        with pytest.raises(InputError, match=rf"\[learner\] unknown key '{key}'"):
            load_config(path)

    def test_grid_in_second_learner_rejected(self, tmp_path):
        path = write_config(tmp_path, "[learner.second]\ngrid_epochs = 5, 10\n")
        with pytest.raises(InputError, match=r"\[learner.second\] unknown key"):
            load_config(path)

    def test_empty_seeds_rejected(self, tmp_path):
        path = write_config(tmp_path, "[evaluation]\nseeds =\n")
        with pytest.raises(InputError, match=r"\[evaluation\].*seeds"):
            load_config(path)

    def test_invalid_grid_point_rejected(self, tmp_path):
        path = write_config(tmp_path, "[learner]\ngrid_learning_rate = 0, 0.5\n")
        with pytest.raises(InputError, match="grid point"):
            load_config(path)

    def test_invalid_simulator_value_wrapped(self, tmp_path):
        path = write_config(tmp_path, "[simulator]\nn_items = -4\n")
        with pytest.raises(InputError, match=r"\[simulator\]"):
            load_config(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_binary_file_rejected(self, tmp_path):
        path = tmp_path / "blob.cfg"
        path.write_bytes(b"\xff\xfe\x00\x01binary")
        with pytest.raises(InputError, match="not a text file"):
            load_config(str(path))


# Every float key of the type tables by section: scalars, comma lists and the grid lists.
FLOAT_KEYS = [
    (section, key)
    for section, types in (
        *((section, types) for section, _, types in _DATACLASS_SECTIONS.values()),
        ("learner", _LEARNER_SECTION_TYPES), ("policy", _POLICY_TYPES),
    )
    for key, typ in types.items() if (typ[0] if isinstance(typ, tuple) else typ) is float
]


class TestNonFiniteFloats:
    def test_the_tables_have_float_keys_in_every_numeric_section(self):
        assert {section for section, _ in FLOAT_KEYS} == {
            "simulator", "learner", "learner.second", "policy", "evaluation"}
        assert ("simulator", "feature_weights") in FLOAT_KEYS
        assert ("learner", "grid_l2") in FLOAT_KEYS

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", FLOAT_KEYS + [("coupons.round1", "arms")])
    def test_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        cell = f"10:{value}:1000" if key == "arms" else value
        path = write_config(tmp_path, f"[{section}]\n{key} = {cell}\n")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", path, "--out", str(out), "--quiet"]) == 2
        named = f"arm {cell!r}" if key == "arms" else key
        assert capsys.readouterr().err == (
            f"error: {path}: [{section}] {named}: expected a finite number, got {value!r}\n")
        assert not out.exists()


class TestTolerantLists:
    def test_trailing_commas_ignored(self, tmp_path):
        path = write_config(
            tmp_path,
            "[evaluation]\nseeds = 4, 5,\n\n[coupons.round1]\narms = 5:72:1000,\n",
        )
        config = load_config(path)
        assert config.evaluation.seeds == (4, 5)
        assert len(config.round1_set) == 2
