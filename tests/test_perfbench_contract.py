"""The benchmark's tracer and worker call package entry points by name.

``perfbench/tracer.py`` wraps each ``(module, attribute)`` of its ``SPANS``
table with ``getattr``, binds every call's arguments by name, and counts rows
with ``len()`` of what a call returns or was given. A deleted or renamed entry
point, a renamed parameter or a return value without a length would crash
every traced benchmark run. ``perfbench/worker.py`` fits the ``rollout``
workload's pair in ``prep`` and scores predictors in ``quality``, outside the
timed region, through the catalog API; a signature change there would crash
the traced runs too. The tracer is also installed in-process around a tiny
``compare_strategies`` and ``allocate``, so a catalog predictor that bypasses
its traced entry points shows as a zero span. Both files are read here, never
edited.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from seqcoupon import cli, evaluation, fileio
from seqcoupon.config import load_config
from seqcoupon.decision import PolicyConstraint, allocate_batch, materialize_plans
from seqcoupon.simulator import SimConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
WORKER = ROOT / "perfbench" / "worker.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("perfbench_tracer", TRACER).SPANS


def _entry_point(module, attr):
    owner = importlib.import_module(module)
    for name in attr.split("."):
        owner = getattr(owner, name)
    return owner


def _argument_reads():
    """(span, argument name) for every ``a["name"]`` in ``tracer._count``.

    ``_count`` is one if/elif chain; each branch tests ``span == "..."`` or
    ``span in (...)`` and reads the bound arguments ``a`` of those spans.
    """
    tree = ast.parse(TRACER.read_text())
    count = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_count")
    branch = next(node for node in count.body if isinstance(node, ast.If))
    reads = []
    while branch is not None:
        spans = [c.value for c in ast.walk(branch.test) if isinstance(c, ast.Constant)]
        names = {
            node.slice.value
            for statement in branch.body for node in ast.walk(statement)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "a"
        }
        reads += [(span, name) for span in spans for name in sorted(names)]
        orelse = branch.orelse
        branch = orelse[0] if len(orelse) == 1 and isinstance(orelse[0], ast.If) else None
    return reads


SPANS = _spans()
READS = _argument_reads()


@pytest.mark.parametrize("span,module,attr", [s[:3] for s in SPANS])
def test_every_traced_entry_point_resolves(span, module, attr):
    assert callable(_entry_point(module, attr)), f"{span}: {module}.{attr} is not callable"


def test_the_argument_reads_are_found():
    assert {name for _, name in READS} == {
        "path", "plans", "items", "records", "data", "X", "b_replicates", "in_dir", "out_dir",
    }


@pytest.mark.parametrize("span,name", READS)
def test_every_argument_the_tracer_reads_is_a_parameter(span, name):
    (module, attr), = [s[1:3] for s in SPANS if s[0] == span]
    parameters = inspect.signature(_entry_point(module, attr)).parameters
    assert name in parameters, f"{span}: {module}.{attr} has no parameter {name!r}"


def test_materialized_plans_count_their_rows(round1_menu, round2_menu):
    gen = np.random.default_rng(2)
    n = 7
    p1, p2 = gen.uniform(0.05, 0.9, (n, 4)), gen.uniform(0.05, 0.9, (n, 4))
    p_baseline = gen.uniform(0.05, 0.9, n)
    prices, ltvs = gen.integers(300, 60000, n), gen.integers(1000, 300000, n)
    constraint = PolicyConstraint()
    j, k, feasible = allocate_batch(
        p1, p2, p_baseline, prices, ltvs, round1_menu, round2_menu, constraint
    )
    plans = materialize_plans([f"it-{i}" for i in range(n)], j, k, feasible, p1, p2,
                              p_baseline, prices, ltvs, round1_menu, round2_menu, constraint)
    assert len(plans) == n


@pytest.fixture(scope="module")
def prepped(tmp_path_factory):
    """The worker, a tiny spec on the shipped config and the pair ``prep`` fitted."""
    worker = _load("perfbench_worker", WORKER)
    spec = {
        "src": str(ROOT / "src"), "config": str(ROOT / "configs" / "default.cfg"),
        "pair_dir": str(tmp_path_factory.mktemp("bench") / "pair"),
        "train_items": 3000, "train_seed": 1, "holdout_items": 2000, "holdout_seed": 2,
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "path", list(sys.path))  # prep puts the source tree first
        worker.prep(spec)
    return worker, spec, fileio.load_pair(spec["pair_dir"])


@pytest.mark.parametrize("workload", ["pipeline", "rollout"])
def test_the_worker_prep_and_quality_steps_run(prepped, workload):
    worker, spec, pair = prepped
    scores = worker.quality(pair, load_config(spec["config"]), {**spec, "workload": workload})
    expected = {"p1_mae", "p2_mae", "learner.first_loss"}
    if workload == "pipeline":
        expected |= {"seq_roi_realized", "seq_roi_edge"}
    assert set(scores) == expected
    assert all(math.isfinite(value) for value in scores.values())
    assert 0 < scores["p1_mae"] < 0.5 and 0 < scores["p2_mae"] < 0.5


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A config whose ``[io]`` points at a simulated catalog, its logs and a trained pair."""
    root = tmp_path_factory.mktemp("traced")
    config = root / "run.cfg"
    config.write_text(f"""[simulator]
n_items = 600
rng_seed = 5

[learner]
k_folds = 2

[io]
catalog = {root}/sim/catalog.csv
round1_log = {root}/sim/round1_log.csv
round2_log = {root}/sim/round2_log.csv
model_dir = {root}/model
""")
    for command, out in (("simulate", "sim"), ("train", "model")):
        assert cli.main([command, "--config", str(config), "--out", str(root / out),
                         "--quiet"]) == 0
    return root, str(config)


@pytest.mark.parametrize("run", ["compare_strategies", "allocate"])
def test_traced_prediction_reads_the_catalog_through_its_entry_points(trained_run,
                                                                       trained_pair, run):
    """The traced spans and counters see the one catalog predictor at work."""
    root, config = trained_run
    tracer = _load("perfbench_tracer", TRACER).Tracer()
    tracer.install()
    try:
        if run == "allocate":
            assert cli.main(["allocate", "--config", config, "--out", str(root / "alloc"),
                             "--quiet"]) == 0
        else:
            evaluation.compare_strategies(SimConfig(n_items=50, rng_seed=1), trained_pair,
                                          PolicyConstraint(), [1, 2])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for span in ("uplift.predict_batch", "domain.item_feature_matrix"):
        assert summary.get(span, {}).get("calls", 0) > 0, f"{run} recorded no {span} call"
    assert tracer.counters["domain.feature_rows"] > 0
