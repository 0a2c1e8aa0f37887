"""Every numeric config key, set to -1 and to 0, either runs or is refused naming the key.

Each case runs through ``cli.main`` on a command that reads the key, at tiny
sizes. A refusal must be exit 2 with the key in its message; an exit 1 (an
internal error with a traceback) fails the case. A cell of the wrong type
(``x``) for every key, and a list of the wrong length for every tuple key and
for the coupon ``arms``, must be refused: exit 2 naming the file, the section
and the key.
"""

import pytest

from seqcoupon import config
from seqcoupon.cli import main
from seqcoupon.simulator import SimConfig

BASE = {
    "simulator": {"n_items": "200", "rng_seed": "5"},
    "learner": {"epochs": "20", "k_folds": "3"},
    "learner.second": {"kind": "boosted_stumps", "max_stumps": "5"},
    "evaluation": {"deciles": "5", "bootstrap_b": "4", "bucket_h": "4.0", "seeds": "3",
                   "train_seed": "11", "train_n_items": "300"},
}
# The command that reads each key; a section's entry covers its other keys.
COMMANDS = {
    "simulator": "simulate",
    "learner": "train",
    "learner.second": "train",
    "policy": "compare",
    "evaluation": "evaluate",
    "coupons.round1": "simulate",
    "coupons.round2": "simulate",
    ("evaluation", "seeds"): "compare",
    ("evaluation", "train_seed"): "compare",
    ("evaluation", "train_n_items"): "compare",
}
DEFAULTS = {"simulator": SimConfig(), "evaluation": config.EvaluationSection()}


def tables():
    yield "simulator", config._SIM_TYPES
    yield "learner", config._LEARNER_SECTION_TYPES
    yield "learner.second", config._LEARNER_TYPES
    yield "policy", config._POLICY_TYPES
    yield "evaluation", config._EVALUATION_TYPES


def tuple_cell(section, key):
    """The key's default list with its last entry -1; a grid list is just -1."""
    values = list(getattr(DEFAULTS.get(section), key, ()))
    return ", ".join(map(str, values[:-1] + [-1]))


def short_cell(section, key):
    """A list one entry short of the key's length: the default list without
    its last entry; an empty list where any length is allowed."""
    return ", ".join(map(str, getattr(DEFAULTS.get(section), key, ())[:-1]))


def refused_cases():
    for section, types in tables():
        for key, typ in types.items():
            yield section, key, "x"
            if isinstance(typ, tuple):
                yield section, key, short_cell(section, key)
    for section in ("coupons.round1", "coupons.round2"):
        yield section, "arms", "x"
        yield section, "arms", "5:72"  # an arm missing its cap


def cases():
    for section, types in tables():
        for key, typ in types.items():
            if isinstance(typ, tuple):
                yield section, key, tuple_cell(section, key)
            elif typ in (int, float):
                yield section, key, "-1"
                yield section, key, "0"
    yield from refused_cases()


CASES = list(cases())
REFUSED = set(refused_cases())


def render(sections):
    return "".join(
        f"[{name}]\n" + "".join(f"{key} = {cell}\n" for key, cell in keys.items()) + "\n"
        for name, keys in sections.items()
    )


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A simulated trial and a model trained on it, for the reading commands."""
    root = tmp_path_factory.mktemp("mutation")
    io = {"catalog": f"{root}/sim/catalog.csv", "round1_log": f"{root}/sim/round1_log.csv",
          "round2_log": f"{root}/sim/round2_log.csv", "model_dir": f"{root}/model"}
    cfg = root / "base.cfg"
    cfg.write_text(render({**BASE, "io": io}))
    for command, out in (("simulate", "sim"), ("train", "model")):
        assert main([command, "--config", str(cfg), "--out", f"{root}/{out}", "--quiet"]) == 0
    return io


def test_the_walk_covers_every_numeric_section():
    assert {section for section, _, _ in CASES} == {
        "simulator", "learner", "learner.second", "policy", "evaluation",
        "coupons.round1", "coupons.round2"}
    assert ("simulator", "price_lognormal_params", "8.1, -1") in CASES
    assert ("evaluation", "seeds", "-1") in CASES
    assert ("learner", "grid_epochs", "-1") in CASES


def test_every_key_gets_a_wrong_type_and_every_list_a_wrong_length():
    for section, types in tables():
        assert {key for s, key, cell in REFUSED if s == section and cell == "x"} == set(types)
    lengths = {(s, key): cell for s, key, cell in REFUSED if cell != "x"}
    assert lengths[("simulator", "feature_weights")].count(",") == 5  # 6 of 7 weights
    assert lengths[("simulator", "price_lognormal_params")] == "8.1"
    assert lengths[("simulator", "ltv_lognormal_params")] == "9.2"
    assert lengths[("evaluation", "seeds")] == ""
    assert lengths[("coupons.round1", "arms")] == lengths[("coupons.round2", "arms")] == "5:72"
    assert len(CASES) == len(set(CASES))


@pytest.mark.parametrize("section,key,cell", CASES)
def test_a_mutated_key_runs_or_exits_2_naming_it(tmp_path, capsys, world, section, key, cell):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections.setdefault(section, {})[key] = cell
    cfg = tmp_path / "run.cfg"
    cfg.write_text(render({**sections, "io": world}))
    command = COMMANDS.get((section, key), COMMANDS[section])
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code != 1, err
    named = f"arm {cell!r}" if key == "arms" else key  # an arm is named by its cell
    if code == 2:
        assert named in err, err
    if (section, key, cell) in REFUSED:
        assert code == 2 and err.startswith(f"error: {cfg}: [{section}] "), err


@pytest.mark.parametrize("section,key,cell,message", [
    ("learner", "k_folds", "1", "k_folds must be >= 2"),
    ("learner", "k_folds", "0", "k_folds must be >= 2"),
    ("evaluation", "deciles", "0", "deciles must be >= 1"),
    ("evaluation", "bucket_h", "0", "bucket_h must be > 0"),
    ("evaluation", "bucket_h", "-1", "bucket_h must be > 0"),
])
def test_a_key_only_a_later_command_reads_is_refused_at_load(tmp_path, capsys, world, section,
                                                               key, cell, message):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections[section][key] = cell
    cfg = tmp_path / "run.cfg"
    cfg.write_text(render({**sections, "io": world}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {cfg}: [{section}] {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cell", ["1000001", "2e6"])
def test_a_likes_rate_past_the_poisson_table_exits_2(tmp_path, capsys, world, cell):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections["simulator"]["likes_rate"] = cell
    cfg = tmp_path / "run.cfg"
    cfg.write_text(render({**sections, "io": world}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {cfg}: [simulator] likes_rate must be <= 1000000\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "train", "compare", "evaluate"])
def test_a_negative_seed_override_exits_2_naming_it(tmp_path, capsys, world, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(render({**BASE, "io": world}))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()
