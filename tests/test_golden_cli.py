"""Cross-commit byte guard: a fixed small pipeline must reproduce pinned digests.

Criterion 8 compares two reruns of the same code. This test compares the
current code with the sha256 digests in ``golden/cli_digests.json``, so a
change that moves any artifact byte fails here even when reruns agree. The
config uses relative ``[io]`` paths and runs from a temporary directory, so
the config hash in each manifest does not depend on where the test runs.

A change that declares new numerics re-pins the file with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints each (variant, file) whose digest moved before it rewrites the
file, and says so in CHANGES.md.
"""

import hashlib
import json
import os
import sys

import pytest

from seqcoupon.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "golden", "cli_digests.json")
COMMANDS = (
    ("simulate", "sim"),
    ("train", "model"),
    ("allocate", "alloc"),
    ("evaluate", "eval"),
    ("compare", "cmp"),
)
VARIANTS = ("mean", "applied")


def golden_config(variant: str) -> str:
    return f"""[simulator]
n_items = 600
rng_seed = 17

[learner]
learning_rate = 1.0
epochs = 200
k_folds = 3
grid_epochs = 100, 200

[learner.second]
kind = boosted_stumps
learning_rate = 0.4
max_stumps = 12

[policy]
ipw_variant = {variant}

[evaluation]
deciles = 5
bootstrap_b = 6
bucket_h = 4.0
seeds = 3, 4
train_seed = 23
train_n_items = 1500

[io]
catalog = sim/catalog.csv
round1_log = sim/round1_log.csv
round2_log = sim/round2_log.csv
model_dir = model
"""


def run_pipeline(variant: str) -> dict[str, str]:
    """Run the five commands in the current directory; sha256 of every file."""
    with open("run.cfg", "w", newline="\n") as fh:
        fh.write(golden_config(variant))
    for command, out in COMMANDS:
        code = main([command, "--config", "run.cfg", "--out", out, "--quiet"])
        assert code == 0, f"{command} exited {code}"
    digests = {}
    for _, out in COMMANDS:
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                digests[f"{out}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.parametrize("variant", VARIANTS)
def test_cli_outputs_match_pinned_digests(variant, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open(DIGESTS) as fh:
        pinned = json.load(fh)[variant]
    assert run_pipeline(variant) == pinned


if __name__ == "__main__":
    import tempfile

    with open(DIGESTS) as fh:
        before = json.load(fh)
    pinned = {}
    start = os.getcwd()
    for variant in VARIANTS:
        with tempfile.TemporaryDirectory() as root:
            os.chdir(root)
            pinned[variant] = run_pipeline(variant)
            os.chdir(start)
        old = before.get(variant, {})
        for name in sorted(old.keys() | pinned[variant].keys()):
            if old.get(name) != pinned[variant].get(name):
                print(f"moved: {variant} {name}")
    with open(DIGESTS, "w", newline="\n") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
