import hashlib
import json
import os
import shutil
import subprocess
import sys
import textwrap
import weakref
from types import SimpleNamespace

import pytest

import seqcoupon
from seqcoupon import cli, fileio, rng
from seqcoupon.cli import main
from seqcoupon.decision import AllocationPlan
from seqcoupon.domain import (
    SCHEMA_ROUND2,
    CatalogArrays,
    CouponConfig,
    ItemRecord,
    OutcomeLog,
    OutcomeRecord,
)
from seqcoupon.simulator import SimConfig, generate_catalog
from seqcoupon.uplift import predict_batch

from oracles import brute_force_allocate


def config_text(*, catalog, r1, r2, model, n_items=800):
    return f"""
[simulator]
n_items = {n_items}
rng_seed = 5

[learner]
learning_rate = 1.0
epochs = 200
k_folds = 3
grid_epochs = 150, 200

[learner.second]
kind = boosted_stumps
learning_rate = 0.4
max_stumps = 10

[evaluation]
deciles = 5
bootstrap_b = 8
bucket_h = 4.0
seeds = 3
train_seed = 11
train_n_items = 1200

[io]
catalog = {catalog}
round1_log = {r1}
round2_log = {r2}
model_dir = {model}
"""


def sim_config_text(sim_dir, model_dir, n_items=800):
    return config_text(
        catalog=f"{sim_dir}/catalog.csv",
        r1=f"{sim_dir}/round1_log.csv",
        r2=f"{sim_dir}/round2_log.csv",
        model=model_dir,
        n_items=n_items,
    )


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Run the whole five-command pipeline once into a shared workspace."""
    root = tmp_path_factory.mktemp("cli")
    dirs = {name: root / name for name in ("sim", "model", "alloc", "eval", "cmp")}
    cfg = root / "run.cfg"
    cfg.write_text(sim_config_text(dirs["sim"], dirs["model"]))
    for command, out in (
        ("simulate", dirs["sim"]),
        ("train", dirs["model"]),
        ("allocate", dirs["alloc"]),
        ("evaluate", dirs["eval"]),
        ("compare", dirs["cmp"]),
    ):
        code = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 0, f"{command} exited {code}"
    return {"cfg": str(cfg), **{k: str(v) for k, v in dirs.items()}}


class TestPipeline:
    def test_simulate_outputs_partition_the_catalog(self, ws):
        catalog = fileio.read_catalog(f"{ws['sim']}/catalog.csv")
        log1 = fileio.read_outcomes(f"{ws['sim']}/round1_log.csv")
        log2 = fileio.read_outcomes(f"{ws['sim']}/round2_log.csv")
        assert len(catalog) == 800
        assert len(log1) == 800
        all_ids = {it.item_id for it in catalog}
        sold1 = {r.item_id for r in log1 if r.sold}
        assert {r.item_id for r in log2} == all_ids - sold1

    def test_manifests_stamp_each_directory(self, ws):
        expected_seed = {"sim": 5, "model": 5, "alloc": 5, "eval": 5, "cmp": 11}
        command = {"sim": "simulate", "model": "train", "alloc": "allocate",
                   "eval": "evaluate", "cmp": "compare"}
        for key, seed in expected_seed.items():
            with open(f"{ws[key]}/{fileio.MANIFEST_NAME}") as fh:
                manifest = json.load(fh)
            assert manifest["command"] == command[key]
            assert manifest["seed"] == seed
            assert manifest["config_sha256"] == sha(ws["cfg"])

    def test_grid_table_covers_the_grid(self, ws):
        lines = read_lines(f"{ws['model']}/grid_search.csv")
        assert lines[0] == fileio.GRID_HEADER
        assert len(lines) == 3
        assert all(line.startswith("logistic,") for line in lines[1:])

    def test_saved_pair_reflects_grid_winner(self, ws):
        pair = fileio.load_pair(ws["model"])
        assert pair.first.config.epochs in (150, 200)
        assert pair.second.kind == "boosted_stumps"
        assert len(pair.round1_set) == 4

    def test_plans_cover_exactly_the_unsold_items(self, ws):
        catalog = fileio.read_catalog(f"{ws['sim']}/catalog.csv")
        sold = set()
        for name in ("round1_log.csv", "round2_log.csv"):
            sold |= {r.item_id for r in fileio.read_outcomes(f"{ws['sim']}/{name}") if r.sold}
        expected = sorted({it.item_id for it in catalog} - sold)
        lines = read_lines(f"{ws['alloc']}/plans.csv")
        assert lines[0] == fileio.PLAN_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == expected

    def test_plan_rows_match_brute_force(self, ws):
        pair = fileio.load_pair(ws["model"])
        catalog = fileio.read_catalog(f"{ws['sim']}/catalog.csv")
        catalog = {it.item_id: it for it in catalog}
        rows = [line.split(",") for line in read_lines(f"{ws['alloc']}/plans.csv")[1:]]
        picked = rows[:15] + rows[37::37]  # no row twice: a catalog refuses a repeated id
        items = CatalogArrays.from_items([catalog[row[0]] for row in picked])
        p1, _, p2, p_baseline = predict_batch(pair, items, 2.0)
        for i, row in enumerate(picked):
            preds = SimpleNamespace(
                p1=tuple(p1[i]), p2=tuple(p2[i]), p_baseline=float(p_baseline[i])
            )
            item = items[i]
            j, k, feasible = brute_force_allocate(
                preds, item.price_yen, item.seller_ltv_yen,
                pair.round1_set, pair.round2_set, 0.01,
            )
            assert int(row[1]) == pair.round1_set[j].discount_pct
            assert int(row[4]) == pair.round2_set[k].discount_pct
            assert row[7] == "2"
            assert row[15] == ("1" if feasible else "0")

    def test_curve_has_bootstrap_bands(self, ws):
        lines = read_lines(f"{ws['eval']}/uplift_curve.csv")
        assert lines[0] == fileio.CURVE_HEADER
        assert len(lines) == 6
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 4
            assert cells[2] != "" and cells[3] != ""
            assert float(cells[2]) <= float(cells[3])

    def test_delay_buckets_written(self, ws):
        lines = read_lines(f"{ws['eval']}/delay_buckets.csv")
        assert lines[0] == fileio.BUCKET_HEADER
        assert len(lines) > 2

    def test_train_reports_convergence_of_both_models(self, ws, capsys):
        assert main(["train", "--config", ws["cfg"], "--out", ws["model"]]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = next(line for line in lines if line.startswith("first-round model:"))
        first, second = summary.split("; ")
        steps = int(first.split(": ")[1].split()[0])
        grad_norm = float(first.rsplit(" ", 1)[1])
        assert 1 <= steps <= 10 and grad_norm < 1e-10
        assert second == "second-round model: 10 stumps"

    def test_comparison_report_sections(self, ws):
        text = open(f"{ws['cmp']}/comparison.txt", encoding="utf-8").read()
        for needle in ("[random]", "[independent]", "[sequential]",
                       "roi_realized", "lift_str"):
            assert needle in text


def test_pipeline_builds_no_per_row_records(tmp_path, monkeypatch):
    """The five commands run on columns: no ItemRecord, OutcomeRecord or
    AllocationPlan is built."""
    built = []
    for cls in (ItemRecord, OutcomeRecord, AllocationPlan):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, init=init, **kwargs:
                            built.append(type(self)) or init(self, *args, **kwargs))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(sim_config_text(tmp_path / "sim", tmp_path / "model", n_items=300))
    for command, out in (("simulate", "sim"), ("train", "model"), ("allocate", "alloc"),
                         ("evaluate", "eval"), ("compare", "cmp")):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 0
    assert built == []


def test_commands_import_no_lazy_numpy_module(tmp_path):
    """Every command runs on the numpy modules that ``import seqcoupon.cli`` loads:
    a lazily loaded submodule (``numpy.random``, ``numpy.strings``, ``numpy.char``,
    ``numpy.ma``, ...) costs every process its import time and memory."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(sim_config_text(tmp_path / "sim", tmp_path / "model", n_items=300)
                   .replace("train_n_items = 1200", "train_n_items = 400"))
    script = textwrap.dedent(f"""
        import os, sys
        import seqcoupon.cli as cli
        before = set(sys.modules)
        for command, out in (("simulate", "sim"), ("train", "model"), ("allocate", "alloc"),
                             ("evaluate", "eval"), ("compare", "cmp")):
            out = os.path.join({str(tmp_path)!r}, out)
            assert cli.main([command, "--config", {str(cfg)!r}, "--out", out, "--quiet"]) == 0
            print(command, *sorted(m for m in set(sys.modules) - before if m.startswith("numpy")))
    """)
    src = os.path.dirname(os.path.dirname(seqcoupon.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    loaded = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, check=True).stdout.splitlines()
    assert loaded == ["simulate", "train", "allocate", "evaluate", "compare"]


def test_reading_commands_hash_no_item_keys(tmp_path, monkeypatch):
    """train, allocate and evaluate read the catalog without hashing its keys."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(sim_config_text(tmp_path / "sim", tmp_path / "model", n_items=300))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    hashed = []
    real_keys = rng.item_keys
    monkeypatch.setattr(rng, "item_keys", lambda ids: hashed.append(len(ids)) or real_keys(ids))
    for command, out in (("train", "model"), ("allocate", "alloc"), ("evaluate", "eval")):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 0
    assert hashed == []


def test_a_command_reads_its_config_once_and_hashes_those_bytes(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(sim_config_text(tmp_path / "sim", tmp_path / "model", n_items=50))
    reads = []
    real_read = fileio.read_utf8

    def spy(path):
        data = real_read(path)
        reads.append((path, data))
        return data

    monkeypatch.setattr(fileio, "read_utf8", spy)
    monkeypatch.setattr(seqcoupon.config, "read_utf8", spy)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    [data] = [data for path, data in reads if path == str(cfg)]
    manifest = json.loads((tmp_path / "sim" / fileio.MANIFEST_NAME).read_text())
    assert manifest["config_sha256"] == hashlib.sha256(data).hexdigest()


class TestDeterminism:
    def test_simulate_rerun_is_byte_identical(self, ws, capsys):
        names = ["catalog.csv", "round1_log.csv", "round2_log.csv", fileio.MANIFEST_NAME]
        before = {n: sha(f"{ws['sim']}/{n}") for n in names}
        assert main(["simulate", "--config", ws["cfg"], "--out", ws["sim"], "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert {n: sha(f"{ws['sim']}/{n}") for n in names} == before

    def test_compare_rerun_is_byte_identical(self, ws):
        path = f"{ws['cmp']}/comparison.txt"
        before = sha(path)
        assert main(["compare", "--config", ws["cfg"], "--out", ws["cmp"], "--quiet"]) == 0
        assert sha(path) == before

    def test_compare_frees_the_training_trial_before_rolling_out(
        self, ws, tmp_path, monkeypatch
    ):
        trained, alive_at_rollout = [], []
        real_generate, real_compare = cli.generate_catalog, cli.compare_strategies

        def generate(config, *args, **kwargs):
            cat = real_generate(config, *args, **kwargs)
            trained.append(weakref.ref(cat))
            return cat

        def compare(*args, **kwargs):
            alive_at_rollout.extend(ref() is not None for ref in trained)
            return real_compare(*args, **kwargs)

        monkeypatch.setattr(cli, "generate_catalog", generate)
        monkeypatch.setattr(cli, "compare_strategies", compare)
        out = tmp_path / "cmp"
        assert main(["compare", "--config", ws["cfg"], "--out", str(out), "--quiet"]) == 0
        assert alive_at_rollout == [False]
        assert sha(str(out / "comparison.txt")) == sha(f"{ws['cmp']}/comparison.txt")

    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_compare_hashes_only_the_training_ids(self, ws, tmp_path, monkeypatch):
        hashed = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: hashed.append(len(ids)) or real_keys(ids))
        out = tmp_path / "cmp"
        assert main(["compare", "--config", ws["cfg"], "--out", str(out), "--quiet"]) == 0
        # 1,200 training items; the 800-item rollout catalogs of all three
        # seeds take their ids and keys from the training catalog's prefix.
        assert hashed == [1200]
        assert sha(str(out / "comparison.txt")) == sha(f"{ws['cmp']}/comparison.txt")

    @pytest.mark.usefixtures("cleared_serial_columns")
    def test_compare_with_more_rollout_than_training_items(self, ws, tmp_path, monkeypatch):
        hashed = []
        real_keys = rng.item_keys
        monkeypatch.setattr(rng, "item_keys", lambda ids: hashed.append(len(ids)) or real_keys(ids))
        cfg = tmp_path / "big.cfg"
        cfg.write_text(sim_config_text(ws["sim"], ws["model"], n_items=1300))
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "c"),
                     "--quiet"]) == 0
        assert hashed == [1200, 1300]

    def test_a_failed_run_leaves_no_manifest_and_a_rerun_matches_a_clean_run(
        self, ws, tmp_path, monkeypatch
    ):
        """The manifest is written after the last artifact: a writer that fails
        on the round-2 log leaves the catalog and round-1 log unstamped."""
        real_write = fileio.write_outcomes

        def write_outcomes(log, path):
            if path.endswith(cli.ROUND2_LOG_FILE):
                raise OSError("disk full")
            real_write(log, path)

        monkeypatch.setattr(fileio, "write_outcomes", write_outcomes)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", ws["cfg"], "--out", str(out), "--quiet"]) == 3
        assert sorted(p.name for p in out.iterdir()) == ["catalog.csv", "round1_log.csv"]
        monkeypatch.setattr(fileio, "write_outcomes", real_write)
        assert main(["simulate", "--config", ws["cfg"], "--out", str(out), "--quiet"]) == 0
        names = ["catalog.csv", "round1_log.csv", "round2_log.csv", fileio.MANIFEST_NAME]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert {n: sha(str(out / n)) for n in names} == {n: sha(f"{ws['sim']}/{n}") for n in names}

    def test_seed_override_changes_the_world(self, ws, tmp_path):
        out = tmp_path / "seed99"
        code = main(["simulate", "--config", ws["cfg"], "--out", str(out),
                     "--seed", "99", "--quiet"])
        assert code == 0
        assert sha(str(out / "catalog.csv")) != sha(f"{ws['sim']}/catalog.csv")
        with open(out / fileio.MANIFEST_NAME) as fh:
            assert json.load(fh)["seed"] == 99


def craft_single_arm_world(tmp_path, coupon):
    """Catalog plus a round-1 log where every record drew the same arm."""
    d = tmp_path / "craft"
    d.mkdir()
    items = generate_catalog(SimConfig(n_items=30, rng_seed=1))
    fileio.write_catalog(items, str(d / "catalog.csv"))
    records = [
        OutcomeRecord(item_id=it.item_id, round=1, coupon=coupon,
                      attach_delay_h=2.0, sold=False)
        for it in items
    ]
    fileio.write_outcomes(OutcomeLog.from_records(records), str(d / "round1_log.csv"))
    fileio.write_outcomes(OutcomeLog.from_records([]), str(d / "round2_log.csv"))
    cfg = tmp_path / "craft.cfg"
    cfg.write_text(sim_config_text(d, tmp_path / "m"))
    return str(cfg)


class TestExitCodes:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[simulator]\nn_item = 5\n")
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_bad_ipw_epsilon_exits_2_before_any_work(self, tmp_path, capsys, command):
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(sim_config_text(tmp_path / "sim", tmp_path / "m")
                       + "\n[policy]\nipw_epsilon = 0.7\n")
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "[policy] ipw_epsilon must lie in (0, 0.5)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,column", [("catalog.csv", 2), ("round1_log.csv", 8)])
    def test_yen_past_int64_exits_2(self, ws, tmp_path, capsys, name, column):
        """A price of 2**63 yen in the catalog or on a sold log row is named by line."""
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        lines = (sim / name).read_text().splitlines()
        # An unsold row's sale cells are empty and must stay so: take a sold one.
        i = next(i for i, line in enumerate(lines[1:], start=1)
                 if name == "catalog.csv" or line.split(",")[6] == "1")
        cells = lines[i].split(",")
        cells[column] = str(2**63)
        lines[i] = ",".join(cells)
        (sim / name).write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "y.cfg"
        cfg.write_text(sim_config_text(sim, tmp_path / "m"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{sim / name}:{i + 1}: column" in err and "below 2**53" in err

    @pytest.mark.parametrize("column,name", [(4, "age_days"), (6, "demand_index"),
                                             (9, "key_action_ts")])
    def test_nan_catalog_cell_exits_2(self, ws, tmp_path, capsys, column, name):
        """A NaN float cell in the catalog is refused before it reaches the features."""
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        lines = (sim / "catalog.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = "nan"
        lines[3] = ",".join(cells)
        (sim / "catalog.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "n.cfg"
        cfg.write_text(sim_config_text(sim, tmp_path / "m"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 2
        assert f"{name} must be finite" in capsys.readouterr().err

    def test_nan_attach_delay_exits_2(self, ws, tmp_path, capsys):
        """A round-1 log row whose attach delay is NaN is refused, not bucketed nowhere."""
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        lines = (sim / "round1_log.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "nan"
        lines[3] = ",".join(cells)
        (sim / "round1_log.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "n.cfg"
        cfg.write_text(sim_config_text(sim, tmp_path / "m"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 2
        assert "attach_delay_h must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", ["not_utf8", "cell_past_csv_limit"])
    def test_unreadable_catalog_exits_2_naming_the_file(self, ws, tmp_path, capsys, defect):
        """Bytes that are not UTF-8, or a quoted cell past ``csv``'s field size limit,
        are named by file and line, not reported as an internal error."""
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        lines = (sim / "catalog.csv").read_bytes().split(b"\n")
        cells = lines[3].split(b",")
        cells[0] = b"it\xff" if defect == "not_utf8" else b'"' + b"x," * 70000 + b'"'
        lines[3] = b",".join(cells)
        (sim / "catalog.csv").write_bytes(b"\n".join(lines))
        cfg = tmp_path / "u.cfg"
        cfg.write_text(sim_config_text(sim, tmp_path / "m"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 2
        assert f"error: {sim / 'catalog.csv'}:4: " in capsys.readouterr().err

    def test_missing_config_exits_3(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_catalog_exits_3(self, tmp_path):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(sim_config_text(tmp_path / "nowhere", tmp_path / "m"))
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 3

    def test_manifest_seed_mismatch_exits_3(self, ws):
        code = main(["simulate", "--config", ws["cfg"], "--out", ws["sim"],
                     "--seed", "99", "--quiet"])
        assert code == 3

    def test_manifest_command_mismatch_exits_3(self, ws):
        code = main(["train", "--config", ws["cfg"], "--out", ws["alloc"], "--quiet"])
        assert code == 3

    def test_allocate_with_missing_round_log_exits_3(self, ws, tmp_path):
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        (sim / "round2_log.csv").unlink()
        cfg = tmp_path / "m.cfg"
        cfg.write_text(sim_config_text(sim, ws["model"]))
        out = tmp_path / "alloc"
        code = main(["allocate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 3
        assert not (out / "plans.csv").exists()

    def test_allocate_with_negative_attach_delay_exits_2(self, ws, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(
            sim_config_text(ws["sim"], ws["model"]) + "\n[policy]\nattach_delay_h = -5\n"
        )
        out = tmp_path / "alloc"
        code = main(["allocate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 2
        assert not (out / "plans.csv").exists()

    def test_single_arm_log_exits_4(self, tmp_path):
        cfg = craft_single_arm_world(tmp_path, CouponConfig.none())
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 4

    def test_tampered_model_schema_exits_5(self, ws, tmp_path):
        tampered = tmp_path / "tampered"
        shutil.copytree(ws["model"], tampered)
        artifact = tampered / fileio.FIRST_MODEL_FILE
        payload = json.loads(artifact.read_text())
        payload["schema_id"] = SCHEMA_ROUND2
        artifact.write_text(json.dumps(payload))
        cfg = tmp_path / "t.cfg"
        cfg.write_text(sim_config_text(ws["sim"], tampered))
        code = main(["allocate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 5

    @pytest.mark.parametrize(
        "corrupt", ["epsilon_text", "epsilon_range", "two_entry_arm", "bad_discount",
                    "fractional_discount", "nan_validity", "binary"]
    )
    def test_malformed_pair_exits_2_naming_the_file(self, ws, tmp_path, capsys, corrupt):
        model = tmp_path / "model"
        shutil.copytree(ws["model"], model)
        pair = model / fileio.PAIR_FILE
        payload = json.loads(pair.read_text())
        if corrupt == "epsilon_text":
            payload["ipw_epsilon"] = "abc"
        elif corrupt == "epsilon_range":
            payload["ipw_epsilon"] = 0.7
        elif corrupt == "two_entry_arm":
            payload["round1_set"][1] = payload["round1_set"][1][:2]
        elif corrupt == "bad_discount":
            payload["round1_set"][1][0] = 150
        elif corrupt == "fractional_discount":
            payload["round1_set"][1][0] += 0.5
        elif corrupt == "nan_validity":
            payload["round1_set"][1][1] = float("nan")
        pair.write_text(json.dumps(payload))
        if corrupt == "binary":
            pair.write_bytes(b"\xff\xfe\x00pair")
        cfg = tmp_path / "p.cfg"
        cfg.write_text(sim_config_text(ws["sim"], model))
        out = tmp_path / "o"
        assert main(["allocate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert str(pair) in capsys.readouterr().err
        assert not (out / "plans.csv").exists()

    @pytest.mark.parametrize("target", ["config", "pair"])
    def test_non_utf8_input_exits_2_naming_the_file_and_line(self, ws, tmp_path, capsys,
                                                             target):
        model, cfg = tmp_path / "model", tmp_path / "p.cfg"
        shutil.copytree(ws["model"], model)
        cfg.write_text(sim_config_text(ws["sim"], model))
        bad = cfg if target == "config" else model / fileio.PAIR_FILE
        lines = bad.read_bytes().split(b"\n")
        lines[2] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        out = tmp_path / "o"
        assert main(["allocate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert f"{bad}:3: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("command", ["allocate", "evaluate"])
    @pytest.mark.parametrize("kind", ["x", None, []])
    def test_unknown_model_kind_exits_2_naming_the_file(self, ws, tmp_path, capsys, command,
                                                          kind):
        """An unknown kind was read as a stump model with no stumps, scoring every
        row as the sigmoid of the intercept."""
        model = tmp_path / "model"
        shutil.copytree(ws["model"], model)
        artifact = model / fileio.FIRST_MODEL_FILE
        payload = json.loads(artifact.read_text())
        payload["kind"] = kind
        artifact.write_text(json.dumps(payload))
        cfg = tmp_path / "k.cfg"
        cfg.write_text(sim_config_text(ws["sim"], model))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert (f"{artifact}: malformed model artifact: unknown model kind {kind!r}"
                in capsys.readouterr().err)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("artifact,field,edit", [
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: None),
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: []),
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: v[:1]),
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: [-1.0] * len(v)),
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: [0.0] * len(v)),
        (fileio.FIRST_MODEL_FILE, "feature_scale", lambda v: [float("nan")] * len(v)),
        (fileio.SECOND_MODEL_FILE, "feature_mean", lambda v: [[x] for x in v]),
        (fileio.FIRST_MODEL_FILE, "feature_mean", lambda v: [float("inf")] + v[1:]),
        (fileio.FIRST_MODEL_FILE, "intercept", lambda v: float("nan")),
        (fileio.FIRST_MODEL_FILE, "coef", lambda v: v[:-1] + [float("-inf")]),
        (fileio.SECOND_MODEL_FILE, "stumps", lambda v: [[99, *v[0][1:]], *v[1:]]),
        (fileio.SECOND_MODEL_FILE, "stumps", lambda v: [[-1, *v[0][1:]], *v[1:]]),
        (fileio.SECOND_MODEL_FILE, "stumps", lambda v: [[1.7, *v[0][1:]], *v[1:]]),
        (fileio.SECOND_MODEL_FILE, "stumps", lambda v: [[True, *v[0][1:]], *v[1:]]),
        (fileio.FIRST_MODEL_FILE, "config", lambda v: {**v, "epochs": 2.5}),
        (fileio.SECOND_MODEL_FILE, "config", lambda v: {**v, "max_stumps": True}),
        *((fileio.SECOND_MODEL_FILE, "stumps",
           lambda v, i=i, x=x: [[*v[0][:i], x, *v[0][i + 1:]], *v[1:]])
          for i in (1, 2, 3) for x in (float("nan"), float("inf"))),
    ], ids=["scale_null", "scale_empty", "scale_one_entry", "scale_negative", "scale_zero",
            "scale_nan", "mean_2d", "mean_inf", "intercept_nan", "coef_inf",
            "stump_feature_99", "stump_feature_negative", "stump_feature_fraction",
            "stump_feature_bool", "config_epochs_fraction", "config_max_stumps_bool",
            *(f"stump_{field}_{x}" for field in ("threshold", "left_value", "right_value")
              for x in ("nan", "inf"))])
    def test_malformed_model_field_exits_2_naming_the_file(self, ws, tmp_path, capsys,
                                                            artifact, field, edit):
        """These edits raised an IndexError or a broadcast error (exit 1), were
        refused as a probability that names no file, or planned on (exit 0)."""
        model = tmp_path / "model"
        shutil.copytree(ws["model"], model)
        path = model / artifact
        payload = json.loads(path.read_text())
        payload[field] = edit(payload[field])
        path.write_text(json.dumps(payload))
        cfg = tmp_path / "m.cfg"
        cfg.write_text(sim_config_text(ws["sim"], model))
        out = tmp_path / "o"
        assert main(["allocate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert f"{path}: malformed model artifact: " in capsys.readouterr().err
        assert not (out / "plans.csv").exists()

    def test_no_holdout_training_log_exits_6(self, tmp_path):
        cfg = craft_single_arm_world(tmp_path, CouponConfig(10, 72.0, 1000))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "m"), "--quiet"])
        assert code == 6

    def test_evaluate_without_holdout_exits_6(self, ws, tmp_path):
        kept = [r for r in fileio.read_outcomes(f"{ws['sim']}/round1_log.csv")
                if not r.coupon.is_none]
        filtered = tmp_path / "round1_log.csv"
        fileio.write_outcomes(OutcomeLog.from_records(kept), str(filtered))
        cfg = tmp_path / "f.cfg"
        cfg.write_text(config_text(
            catalog=f"{ws['sim']}/catalog.csv",
            r1=filtered,
            r2=f"{ws['sim']}/round2_log.csv",
            model=ws["model"],
        ))
        code = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 6

    def test_evaluate_with_a_single_holdout_row_exits_2(self, ws, tmp_path, capsys):
        """A bootstrap replicate that misses the only holdout row cannot score lift."""
        records = list(fileio.read_outcomes(f"{ws['sim']}/round1_log.csv"))
        holdout = [r for r in records if r.coupon.is_none]
        kept = [r for r in records if not r.coupon.is_none] + holdout[:1]
        filtered = tmp_path / "round1_log.csv"
        fileio.write_outcomes(OutcomeLog.from_records(kept), str(filtered))
        cfg = tmp_path / "f.cfg"
        cfg.write_text(config_text(
            catalog=f"{ws['sim']}/catalog.csv",
            r1=filtered,
            r2=f"{ws['sim']}/round2_log.csv",
            model=ws["model"],
        ))
        out = tmp_path / "o"
        code = main(["evaluate", "--config", str(cfg), "--out", str(out), "--quiet"])
        assert code == 2
        assert "needs items from both treatment groups" in capsys.readouterr().err
        assert not (out / "uplift_curve.csv").exists()

    def test_internal_error_exits_1(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text(sim_config_text(tmp_path / "s", tmp_path / "m", n_items=5))

        def boom(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(fileio, "write_catalog", boom)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s"), "--quiet"])
        assert code == 1
        assert "ValueError" in capsys.readouterr().err


class TestRoundTwoLogAsRoundOne:
    """A round-2 file configured as the round-1 log is refused before any work."""

    @pytest.mark.parametrize("command,artifacts", [
        ("train", (cli.GRID_TABLE_FILE, fileio.PAIR_FILE)),
        ("evaluate", (cli.CURVE_FILE, cli.BUCKETS_FILE)),
    ])
    def test_exits_2(self, ws, tmp_path, capsys, monkeypatch, command, artifacts):
        def no_work(*args, **kwargs):
            raise AssertionError("the log should have been refused first")

        monkeypatch.setattr(cli, "grid_search", no_work)
        monkeypatch.setattr(cli, "round1_arm_probabilities", no_work)
        swapped = tmp_path / "round1_log.csv"
        shutil.copyfile(f"{ws['sim']}/round2_log.csv", swapped)
        cfg = tmp_path / "swapped.cfg"
        cfg.write_text(config_text(
            catalog=f"{ws['sim']}/catalog.csv",
            r1=swapped,
            r2=f"{ws['sim']}/round2_log.csv",
            model=ws["model"],
        ))
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "round-1 log contains a record from another round" in capsys.readouterr().err
        assert not any((out / name).exists() for name in artifacts)


class TestDuplicateIds:
    """A repeated item id in the catalog or a round log is refused with exit 2."""

    @staticmethod
    def duplicate_row(ws, tmp_path, name):
        sim = tmp_path / "sim"
        shutil.copytree(ws["sim"], sim)
        path = sim / name
        lines = read_lines(path)
        # Row 2 is the catalog's second item, it0000001; none of the logs'
        # first rows is special, so repeat that row.
        row = lines[2] if name == "catalog.csv" else lines[1]
        path.write_text("\n".join(lines + [row]) + "\n")
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(sim_config_text(sim, ws["model"]))
        return str(cfg), row.split(",")[0]

    @pytest.mark.parametrize("command", ["train", "allocate", "evaluate"])
    def test_duplicate_catalog_row_exits_2(self, ws, tmp_path, capsys, command):
        cfg, item_id = self.duplicate_row(ws, tmp_path, "catalog.csv")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"catalog repeats item id {item_id!r}" in capsys.readouterr().err
        assert not (out / "plans.csv").exists()

    @pytest.mark.parametrize("command", ["train", "allocate", "evaluate"])
    def test_duplicate_round1_log_row_exits_2(self, ws, tmp_path, capsys, command):
        cfg, item_id = self.duplicate_row(ws, tmp_path, "round1_log.csv")
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert f"log repeats item id {item_id!r}" in capsys.readouterr().err
        assert not (out / fileio.FIRST_MODEL_FILE).exists()


class TestEmptyWorld:
    def test_zero_item_pipeline_writes_headers_only(self, ws, tmp_path):
        sim0 = tmp_path / "sim0"
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(sim_config_text(sim0, ws["model"], n_items=0))
        assert main(["simulate", "--config", str(cfg), "--out", str(sim0), "--quiet"]) == 0
        assert read_lines(sim0 / "catalog.csv") == [fileio.CATALOG_HEADER]
        assert read_lines(sim0 / "round1_log.csv") == [fileio.OUTCOME_HEADER]
        alloc0 = tmp_path / "alloc0"
        assert main(["allocate", "--config", str(cfg), "--out", str(alloc0), "--quiet"]) == 0
        assert read_lines(alloc0 / "plans.csv") == [fileio.PLAN_HEADER]
        assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e"),
                     "--quiet"]) == 2


class TestArgparse:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "seqcoupon" in capsys.readouterr().out

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
