"""One benchmark operation in a fresh process.

    python3 worker.py SPEC INDEX T0 TRACE QUALITY RESULT

SPEC is the JSON spec that ``run.py`` wrote for the workload, INDEX the
operation number, T0 the CLOCK_MONOTONIC time at which the parent started this
process, TRACE 1 to record spans, QUALITY 1 to score the trained predictors
against the simulator's ground truth after the timed region. The worker writes
its measurements and check results to RESULT as JSON and exits 0 unless it
could not write them. Its working directory is the operation's output root.

    python3 worker.py --prep SPEC

fits the predictor pair that the ``rollout`` workload loads, outside any run.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

STRATEGIES = ("random", "independent", "sequential")
PIPELINE_STEPS = (("simulate", "sim"), ("train", "model"), ("allocate", "alloc"), ("evaluate", "eval"))


def _tree_digest(root):
    """sha256 over every file below ``root``: relative path, then content."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def parse_report(text):
    """Realized ROI per strategy from a rendered comparison report."""
    roi, section = {}, None
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif section in STRATEGIES and line.startswith("roi_realized: "):
            roi[section] = float(line.split(": ", 1)[1])
    missing = [s for s in STRATEGIES if s not in roi]
    if missing:
        raise ValueError(f"comparison report lacks strategies {missing}")
    return roi


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_plans(errors):
    """plans.csv must hold one row per catalog item that neither round sold."""
    sold = {r["item_id"] for name in ("round1_log.csv", "round2_log.csv")
            for r in _csv_rows(os.path.join("sim", name)) if r["sold"] == "1"}
    unsold = [r["item_id"] for r in _csv_rows(os.path.join("sim", "catalog.csv"))
              if r["item_id"] not in sold]
    plans = [r["item_id"] for r in _csv_rows(os.path.join("alloc", "plans.csv"))]
    if sorted(plans) != sorted(unsold):
        errors.append(f"plans.csv has {len(plans)} rows for {len(unsold)} unsold items")


def _uniform(n):
    return [1.0 / n] * n


def quality(pair, cfg, spec):
    """Predictor error against ground truth on a catalog the run did not train on."""
    import numpy as np

    from seqcoupon.domain import item_feature_matrix
    from seqcoupon.evaluation import compare_strategies
    from seqcoupon.fileio import render_comparison_report
    from seqcoupon.learner import weighted_log_loss
    from seqcoupon.simulator import GroundTruth, generate_catalog, round2_attach_delay, run_rct
    from seqcoupon.uplift import predict_batch, round1_training_dataset

    sim = dataclasses.replace(cfg.simulator, n_items=spec["holdout_items"],
                              rng_seed=spec["holdout_seed"])
    items = generate_catalog(sim)
    gt = GroundTruth(sim)
    n, delay = len(items), cfg.attach_delay_h
    matrix = item_feature_matrix(items)
    likes = np.array([it.likes for it in items])
    p1, _, p2, _ = predict_batch(pair, items, delay)

    def truth(menu, round_no, attach_h):
        return np.column_stack([
            gt.propensity_arrays(matrix, likes, np.full(n, float(c.discount_pct)), round_no,
                                 np.full(n, attach_h))
            for c in menu
        ])

    # Every round-1 arm puts the round-2 attach at or past the delay floor, where
    # the true round-2 propensity no longer depends on the delay.
    delay2 = float(round2_attach_delay(delay, pair.round1_set[0].validity_hours))
    log1, _, _ = run_rct(gt, items, pair.round1_set, pair.round2_set,
                         _uniform(len(pair.round1_set)), _uniform(len(pair.round2_set)),
                         seed=spec["holdout_seed"])
    scores = {
        "p1_mae": float(np.abs(p1 - truth(pair.round1_set, 1, delay)).mean()),
        "p2_mae": float(np.abs(p2 - truth(pair.round2_set, 2, delay2)).mean()),
        "learner.first_loss": weighted_log_loss(pair.first, round1_training_dataset(items, log1)),
    }
    if spec["workload"] == "pipeline":
        # pipeline runs no rollouts; roll its trained pair out on the held-out seed.
        report = compare_strategies(sim, pair, cfg.constraint(), [spec["holdout_seed"]],
                                    attach_delay_h=delay)
        scores.update(roi_scores(render_comparison_report(report)))
    return scores


def roi_scores(report_text):
    roi = parse_report(report_text)
    return {"seq_roi_realized": roi["sequential"],
            "seq_roi_edge": roi["sequential"] / roi["independent"] - 1.0}


def _environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no mode argument
        blas = {}
    return {"numpy": np.__version__, "blas": blas}


def prep(spec):
    """Fit the rollout workload's predictor pair from a seeded training trial."""
    sys.path.insert(0, spec["src"])
    from seqcoupon import fileio
    from seqcoupon.config import load_config
    from seqcoupon.simulator import GroundTruth, generate_catalog, run_rct
    from seqcoupon.uplift import fit_predictor_pair

    cfg = load_config(spec["config"])
    sim = dataclasses.replace(cfg.simulator, n_items=spec["train_items"],
                              rng_seed=spec["train_seed"])
    items = generate_catalog(sim)
    log1, _, log2 = run_rct(GroundTruth(sim), items, cfg.round1_set, cfg.round2_set,
                            _uniform(len(cfg.round1_set)), _uniform(len(cfg.round2_set)),
                            seed=sim.rng_seed)
    pair = fit_predictor_pair(items, log1, log2, cfg.round1_set, cfg.round2_set,
                              config_first=cfg.learner.base,
                              config_second=cfg.second_learner(),
                              epsilon=cfg.ipw_epsilon, variant=cfg.ipw_variant)
    os.makedirs(spec["pair_dir"], exist_ok=True)
    fileio.save_pair(pair, spec["pair_dir"])


def operation(spec, trace, want_quality, t0):
    sys.path.insert(0, spec["src"])
    from seqcoupon import cli, config, evaluation, fileio

    from tracer import Tracer, per_layer_metrics

    tracer = Tracer()
    if trace:
        tracer.install()
    # compare trains its pair in memory; keep it so its quality can be scored.
    captured = []
    bound_compare = cli.compare_strategies

    def capture(sim_config, pair, *args, **kwargs):
        captured.append(pair)
        return bound_compare(sim_config, pair, *args, **kwargs)

    cli.compare_strategies = capture

    workload = spec["workload"]
    # Reach the functions through their modules so that traced bindings are used.
    cfg = config.load_config(spec["config"])
    pair = fileio.load_pair(spec["pair_dir"]) if workload == "rollout" else None
    errors = []

    start, cpu_start = time.monotonic(), time.process_time()
    if workload == "pipeline":
        for command, out in PIPELINE_STEPS:
            code = cli.main([command, "--config", spec["config"], "--out", out, "--quiet"])
            if code != 0:
                errors.append(f"{command} exited {code}")
                break
    elif workload == "compare":
        code = cli.main(["compare", "--config", spec["config"], "--out", "cmp", "--quiet"])
        if code != 0:
            errors.append(f"compare exited {code}")
    else:
        report = evaluation.compare_strategies(cfg.simulator, pair, cfg.constraint(),
                                               spec["rollout_seeds"],
                                               attach_delay_h=cfg.attach_delay_h)
    end, cpu_end = time.monotonic(), time.process_time()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cli.compare_strategies = bound_compare
    tracer.uninstall()

    result = {
        "setup_s": start - t0,
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mb": peak_rss_mb,
        "errors": errors,
    }
    if trace:
        result["spans"] = tracer.summary()
        result["per_layer"] = per_layer_metrics(result["spans"], tracer.counters)
    if errors:
        return result

    if workload == "rollout":
        text = fileio.render_comparison_report(report)
        os.makedirs("cmp", exist_ok=True)
        with open(os.path.join("cmp", "comparison.txt"), "w") as fh:
            fh.write(text)
    if workload == "pipeline":
        _check_plans(errors)
    else:
        with open(os.path.join("cmp", "comparison.txt")) as fh:
            try:
                roi = roi_scores(fh.read())
            except ValueError as exc:
                errors.append(str(exc))
                return result
    result["digest"] = _tree_digest(".")

    if want_quality:
        if workload == "pipeline":
            pair = fileio.load_pair("model")
        elif workload == "compare":
            pair = captured[0]
        result["quality"] = quality(pair, cfg, spec)
        if workload != "pipeline":
            result["quality"].update(roi)
    return result


def main(argv):
    if argv[0] == "--prep":
        with open(argv[1]) as fh:
            prep(json.load(fh))
        return 0
    spec_path, index, t0, trace, want_quality, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = operation(spec, trace == "1", want_quality == "1", float(t0))
    result["index"] = int(index)
    if result["index"] == 0:
        result["environment"] = _environment()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
