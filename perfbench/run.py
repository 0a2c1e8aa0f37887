"""seqcoupon benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a seqcoupon checkout. The runner generates the workload's
config (and, for ``rollout``, a fitted predictor pair) from the seed, then runs
a closed loop of one client: operations start one after another, each in a
fresh ``worker.py`` process, until S seconds have passed. Each operation's
outputs are checked and hashed; every operation of one invocation must produce
the same bytes as the first. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. A fuller record (every operation, the environment,
the span table) goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sizes keep each workload's layer mix (see README.md) while one operation
# stays short enough that a run holds several of them.
WORKLOADS = {
    "pipeline": {"items": 4000},
    "compare": {"train_items": 12000, "rollout_items": 8000, "rollout_seeds": 2},
    "rollout": {"train_items": 40000, "rollout_items": 10000, "rollout_seeds": 3},
}
HOLDOUT_ITEMS = 20000
MIN_OPS = 3
MIN_TRACE_OPS = 4  # alternately traced and untraced
HARD_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _seeds(seed, count):
    base = 1000 * seed
    return {"train": base + 1, "rollout": [base + 2 + i for i in range(count)],
            "holdout": base + 500}


def write_config(path, workload, sizes, seeds):
    """The shipped config with this workload's sizes, seeds and relative paths."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    shipped = os.path.join(ROOT, "configs", "default.cfg")
    with open(shipped) as fh:
        parser.read_file(fh, source=shipped)
    for section in ("simulator", "evaluation", "io"):
        if not parser.has_section(section):
            parser.add_section(section)
    if workload == "pipeline":
        parser["simulator"]["n_items"] = str(sizes["items"])
        parser["simulator"]["rng_seed"] = str(seeds["train"])
    else:
        parser["simulator"]["n_items"] = str(sizes["rollout_items"])
        parser["evaluation"]["train_n_items"] = str(sizes["train_items"])
        parser["evaluation"]["train_seed"] = str(seeds["train"])
        parser["evaluation"]["seeds"] = ", ".join(str(s) for s in seeds["rollout"])
    parser["io"].update({"catalog": "sim/catalog.csv", "round1_log": "sim/round1_log.csv",
                         "round2_log": "sim/round2_log.csv", "model_dir": "model"})
    with open(path, "w") as fh:
        parser.write(fh)


def make_spec(workload, seed, work):
    sizes = WORKLOADS[workload]
    seeds = _seeds(seed, sizes.get("rollout_seeds", 0))
    spec = {
        "workload": workload,
        "src": os.path.join(ROOT, "src"),
        "config": os.path.join(work, "bench.cfg"),
        "pair_dir": os.path.join(work, "pair"),
        "train_items": sizes.get("train_items"),
        "train_seed": seeds["train"],
        "rollout_seeds": seeds["rollout"],
        "holdout_items": HOLDOUT_ITEMS,
        "holdout_seed": seeds["holdout"],
    }
    if workload == "pipeline":
        spec["items"] = sizes["items"]
    elif workload == "compare":
        spec["items"] = sizes["train_items"] + sizes["rollout_seeds"] * sizes["rollout_items"]
    else:
        spec["items"] = sizes["rollout_seeds"] * sizes["rollout_items"]
    write_config(spec["config"], workload, sizes, seeds)
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    return spec, spec_path


def _remaining(started):
    left = HARD_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("time limit reached")
    return left


def worker_env():
    """The caller's environment with BLAS pinned to one thread unless set.

    The workloads' matrices are at most a few ten thousand rows by 14 columns;
    on a small shared machine a second BLAS thread mostly adds jitter.
    """
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def run_ops(spec_path, work, seconds, trace, started):
    """Closed loop of fresh worker processes; returns their result records."""
    env = worker_env()
    results = []
    loop_start = time.monotonic()
    minimum = MIN_TRACE_OPS if trace else MIN_OPS
    while len(results) < minimum or time.monotonic() - loop_start < seconds:
        index = len(results)
        op_dir = os.path.join(work, f"op{index}")
        os.makedirs(op_dir)
        result_path = os.path.join(work, f"result{index}.json")
        traced = trace and index % 2 == 0
        t0 = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), spec_path, str(index),
               repr(t0), "1" if traced else "0", "1" if trace and index == 0 else "0",
               result_path]
        try:
            proc = subprocess.run(cmd, cwd=op_dir, env=env, timeout=_remaining(started),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            results.append({"index": index, "traced": traced,
                            "errors": ["operation timed out"]})
            break
        if proc.returncode != 0 or not os.path.exists(result_path):
            results.append({"index": index, "traced": traced,
                            "errors": [f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"]})
        else:
            with open(result_path) as fh:
                result = json.load(fh)
            result["traced"] = traced
            results.append(result)
        shutil.rmtree(op_dir)
        if time.monotonic() - started > HARD_LIMIT_S * 0.75:
            break
    return results


def _counts(result):
    return {k: v for k, v in result["per_layer"].items() if not k.endswith("_s")}


def check_runs(results):
    """Flag operations whose output bytes, or traced counts, differ from the first's."""
    first = next((r.get("digest") for r in results if r.get("digest")), None)
    for r in results:
        if not r["errors"] and r.get("digest") != first:
            r["errors"].append("output bytes differ from the first operation")
    traced = [r for r in results if r["traced"] and not r["errors"]]
    for r in traced[1:]:
        if _counts(r) != _counts(traced[0]):
            r["errors"].append("per-layer counts differ from the first traced operation")


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(ok, spec):
    wall = _median(ok, "wall_s")
    return {
        "setup_s": _median(ok, "setup_s"),
        "wall_s": wall,
        "items_per_s": spec["items"] / wall,
        "peak_rss_mb": _median(ok, "peak_rss_mb"),
    }


def per_layer(ok):
    traced = [r for r in ok if r["traced"]]
    untraced = [r for r in ok if not r["traced"]]
    # Times are medians over the traced operations; counts repeat exactly.
    metrics = {name: statistics.median(r["per_layer"][name] for r in traced)
               if name.endswith("_s") else value
               for name, value in traced[0]["per_layer"].items()}
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    metrics.update(ok[0].get("quality", {}))
    return metrics


def environment(seed):
    env = worker_env()
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "blas_thread_vars": {v: env.get(v) for v in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if args.seed < 0:
        raise BenchError("--seed must be >= 0")
    for needed in (os.path.join(ROOT, "src", "seqcoupon", "cli.py"),
                   os.path.join(ROOT, "configs", "default.cfg"),
                   os.path.join(ROOT, "BENCHMARK.json")):
        if not os.path.isfile(needed):
            raise BenchError(f"{needed} is missing; run from a seqcoupon checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        spec, spec_path = make_spec(args.workload, args.seed, work)
        if args.workload == "rollout":
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--prep",
                                   spec_path], env=worker_env(), timeout=_remaining(started),
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                raise BenchError(f"fitting the rollout pair failed: {proc.stderr[-2000:]}")
        results = run_ops(spec_path, work, args.seconds, args.trace == 1, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_runs(results)

    failed = sum(1 for r in results if r["errors"])
    ok = [r for r in results if not r["errors"]]
    values = {}
    if args.trace and {r["traced"] for r in ok} == {True, False}:
        values = per_layer(ok)
    elif ok and not args.trace:
        values = end_to_end(ok, spec)
    missing = [m["name"] for m in declared if m["name"] not in values]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "numpy_blas": next((r["environment"] for r in results if "environment" in r), None),
        "spec": spec,
        "operations": results,
        "metrics": values,
    }
    out_dir = os.path.join(ROOT, ".perfbench_results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for r in results:
        for error in r["errors"]:
            print(f"operation {r['index']}: {error}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
