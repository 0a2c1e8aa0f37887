"""Outputs depend on the data, not on the order of its rows (metamorphic tests).

A catalog or a log holds its rows in item-id order whatever order its file
gives them in, so the fits, the CV folds and the bootstrap see the same rows in
the same order. Each test here changes the inputs of a small pipeline in a way
that must leave the outputs alone, or change them only as stated:

- the rows of all three CSVs permuted: ``train``, ``allocate`` and
  ``evaluate`` write the same bytes;
- catalog rows that no log names: ``train`` and ``evaluate`` write the same
  bytes, and ``plans.csv`` gains those rows and nothing else;
- ``simulate`` at fewer items writes a prefix of the larger catalog;
- ``evaluate`` writes the same bytes when the round-2 log is missing.

Manifests are left out of every comparison: they hash the config, whose
``[io]`` paths differ between runs.
"""

import dataclasses

import numpy as np
import pytest

from seqcoupon import fileio
from seqcoupon.cli import main
from seqcoupon.domain import CatalogArrays
from seqcoupon.simulator import SimConfig, generate_catalog

N_ITEMS = 1000
INPUTS = ("catalog.csv", "round1_log.csv", "round2_log.csv")
CATALOG_COLUMNS = tuple(
    f.name for f in dataclasses.fields(CatalogArrays) if f.name != "matrix"
)


def config_text(n_items, catalog, round1_log, round2_log, model_dir) -> str:
    return f"""[simulator]
n_items = {n_items}
rng_seed = 7

[learner]
learning_rate = 1.0
epochs = 200
k_folds = 3
grid_epochs = 100, 200

[learner.second]
kind = boosted_stumps
learning_rate = 0.4
max_stumps = 10

[evaluation]
deciles = 5
bootstrap_b = 8
bucket_h = 4.0

[io]
catalog = {catalog}
round1_log = {round1_log}
round2_log = {round2_log}
model_dir = {model_dir}
"""


def run(root, inputs, commands=("train", "allocate", "evaluate"), model_dir=None,
        n_items=N_ITEMS) -> dict:
    """Run ``commands`` on the three input paths, each into ``root/<command>``.

    ``allocate`` and ``evaluate`` read the model ``train`` writes here unless
    ``model_dir`` names another. Returns the bytes of every file written,
    keyed by ``<command>/<name>``, manifests left out.
    """
    root.mkdir()
    cfg = root / "run.cfg"
    cfg.write_text(config_text(n_items, *inputs, model_dir or root / "train"))
    outputs = {}
    for command in commands:
        out = root / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        for path in sorted(out.iterdir()):
            if path.name != fileio.MANIFEST_NAME:
                outputs[f"{command}/{path.name}"] = path.read_bytes()
    return outputs


def assert_same_outputs(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A simulated world and the outputs of ``train``, ``allocate`` and ``evaluate`` on it."""
    root = tmp_path_factory.mktemp("row_order")
    inputs = [root / "sim" / "simulate" / name for name in INPUTS]
    run(root / "sim", inputs, commands=("simulate",))
    return {"root": root, "inputs": inputs, "outputs": run(root / "pipeline", inputs)}


def test_permuted_rows_give_the_same_outputs(base, tmp_path):
    shuffled = []
    for seed, path in enumerate(base["inputs"]):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        order = np.random.default_rng(seed).permutation(len(rows))
        assert (order != np.arange(len(rows))).any()
        copy = tmp_path / path.name
        copy.write_text(header + "".join(rows[i] for i in order), encoding="utf-8")
        shuffled.append(copy)
    assert_same_outputs(run(tmp_path / "run", shuffled), base["outputs"])


def test_catalog_rows_no_log_names_only_add_their_own_plans(base, tmp_path):
    catalog = fileio.read_catalog(str(base["inputs"][0]))
    # Items of another draw, each named after a catalog item with an "x"
    # appended, so in id order they fall between the catalog's rows.
    extra = generate_catalog(SimConfig(n_items=200, rng_seed=99))
    extra_ids = np.array([i + b"x" for i in catalog.ids[::5].tolist()])
    columns = {name: np.concatenate([getattr(catalog, name), getattr(extra, name)])
               for name in CATALOG_COLUMNS}
    columns["ids"] = np.concatenate([catalog.ids, extra_ids])
    larger = tmp_path / "catalog.csv"
    fileio.write_catalog(CatalogArrays.from_columns(**columns), str(larger))

    got = run(tmp_path / "run", [larger, *base["inputs"][1:]])
    plans = got.pop("allocate/plans.csv").decode().splitlines(keepends=True)
    want = dict(base["outputs"])
    want_plans = want.pop("allocate/plans.csv").decode().splitlines(keepends=True)
    assert_same_outputs(got, want)
    ids = [line.split(",", 1)[0].encode() for line in plans]
    added = set(extra_ids.tolist())
    assert sorted(i for i in ids if i in added) == sorted(added)
    assert [line for line, i in zip(plans, ids) if i not in added] == want_plans


def test_a_smaller_simulation_writes_a_prefix_of_the_catalog(tmp_path):
    catalogs = {}
    for n in (4000, 10_000):
        sim = tmp_path / f"sim{n}"
        inputs = [sim / "simulate" / name for name in INPUTS]
        catalogs[n] = run(sim, inputs, commands=("simulate",), n_items=n)["simulate/catalog.csv"]
    assert catalogs[4000].count(b"\n") == 4001
    assert catalogs[10_000].startswith(catalogs[4000])


def test_evaluate_does_not_read_the_round2_log(base, tmp_path):
    catalog, round1_log, _ = base["inputs"]
    got = run(tmp_path / "run", [catalog, round1_log, tmp_path / "missing.csv"],
              commands=("evaluate",), model_dir=base["root"] / "pipeline" / "train")
    want = {name: data for name, data in base["outputs"].items()
            if name.startswith("evaluate/")}
    assert_same_outputs(got, want)
