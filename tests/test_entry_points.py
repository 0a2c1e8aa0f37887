"""Code outside the package that imports it: the benchmark worker and the scripts.

``perfbench/worker.py`` imports package names inside its functions, so a
deleted or renamed name breaks its ``--prep`` step or its quality scoring
only when a benchmark runs. The scripts are run end to end at a tiny size.
Neither the worker nor the scripts are edited here.
"""

import ast
import importlib
import importlib.util
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


def _worker_imports():
    """(module, name) for every ``from seqcoupon... import name`` in the worker."""
    return sorted(
        (node.module, alias.name)
        for node in ast.walk(ast.parse(WORKER.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
        and node.module.split(".")[0] == "seqcoupon"
        for alias in node.names
    )


def test_the_worker_imports_are_found():
    assert ("seqcoupon.learner", "weighted_log_loss") in _worker_imports()
    assert ("seqcoupon.simulator", "round2_attach_delay") in _worker_imports()


@pytest.mark.parametrize("module,name", _worker_imports())
def test_every_name_the_worker_imports_resolves(module, name):
    owner = importlib.import_module(module)
    if hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}"):
        importlib.import_module(f"{module}.{name}")  # a submodule binds its package's name
    assert hasattr(owner, name), (
        f"perfbench/worker.py imports {name!r} from {module}, which has no such name"
    )


def _run_script(name, monkeypatch, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(ROOT / "scripts" / name), run_name="__main__")


def test_delay_diagnostics_script_writes_its_buckets(tmp_path, monkeypatch, capsys):
    _run_script("delay_diagnostics.py", monkeypatch, "--items", "1200", "--out", str(tmp_path))
    buckets = tmp_path / "delay_buckets.csv"
    assert buckets.read_text().startswith("bucket_start_h,metric,value,n\n")
    assert f"wrote {buckets}" in capsys.readouterr().out


def test_trial_memory_script_reports_each_stage(monkeypatch, capsys):
    _run_script("trial_memory.py", monkeypatch, "--items", "2000")
    out = capsys.readouterr().out
    assert out.startswith("2000 items, seed ")
    for stage in ("catalog", "rct", "first fit", "second fit"):
        assert f"\n{stage} " in out
