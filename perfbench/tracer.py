"""Span tracer that wraps the seqcoupon functions callers bind.

Each traced function is replaced, in every loaded ``seqcoupon`` module whose
namespace binds it, by a wrapper that records a span (name, start, end, parent
span) and updates the layer's counters. Nothing under ``src/`` is edited: the
wrappers live only in the tracing process and ``uninstall`` puts the original
bindings back.

Span names are ``<layer>.<function>``; the layers are the package's modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# (span name, module, attribute, span can have traced children)
SPANS = (
    ("cli.simulate", "seqcoupon.cli", "cmd_simulate", True),
    ("cli.train", "seqcoupon.cli", "cmd_train", True),
    ("cli.allocate", "seqcoupon.cli", "cmd_allocate", True),
    ("cli.evaluate", "seqcoupon.cli", "cmd_evaluate", True),
    ("cli.compare", "seqcoupon.cli", "cmd_compare", True),
    ("config.load_config", "seqcoupon.config", "load_config", False),
    ("fileio.read_catalog", "seqcoupon.fileio", "read_catalog", False),
    ("fileio.read_outcomes", "seqcoupon.fileio", "read_outcomes", False),
    ("fileio.write_catalog", "seqcoupon.fileio", "write_catalog", False),
    ("fileio.write_outcomes", "seqcoupon.fileio", "write_outcomes", False),
    ("fileio.write_plans", "seqcoupon.fileio", "write_plans", False),
    ("fileio.save_pair", "seqcoupon.fileio", "save_pair", False),
    ("fileio.load_pair", "seqcoupon.fileio", "load_pair", False),
    ("simulator.generate_catalog", "seqcoupon.simulator", "generate_catalog", False),
    ("simulator.run_rct", "seqcoupon.simulator", "run_rct", True),
    ("simulator.rollout_policy", "seqcoupon.simulator", "rollout_policy", True),
    ("simulator.catalog_arrays", "seqcoupon.simulator", "CatalogArrays.from_items", True),
    ("rng.item_keys", "seqcoupon.rng", "item_keys", False),
    ("rng.uniforms", "seqcoupon.rng", "uniforms", False),
    ("domain.item_feature_matrix", "seqcoupon.domain", "item_feature_matrix", False),
    ("learner.train", "seqcoupon.learner", "train", False),
    ("learner.grid_search", "seqcoupon.learner", "grid_search", True),
    ("learner.predict_matrix", "seqcoupon.learner", "predict_matrix", False),
    ("uplift.round1_training_dataset", "seqcoupon.uplift", "round1_training_dataset", True),
    ("uplift.fit_first_round", "seqcoupon.uplift", "fit_first_round", True),
    ("uplift.fit_second_round", "seqcoupon.uplift", "fit_second_round", True),
    ("uplift.ipw_weights", "seqcoupon.uplift", "ipw_weights", True),
    ("uplift.predict_batch", "seqcoupon.uplift", "predict_batch", True),
    ("decision.allocate_batch", "seqcoupon.decision", "allocate_batch", False),
    ("decision.allocate_independent_batch", "seqcoupon.decision", "allocate_independent_batch", False),
    ("decision.materialize_plans", "seqcoupon.decision", "materialize_plans", False),
    ("evaluation.compare_strategies", "seqcoupon.evaluation", "compare_strategies", True),
    ("evaluation.bootstrap_band", "seqcoupon.evaluation", "bootstrap_band", True),
    ("evaluation.delay_analysis", "seqcoupon.evaluation", "delay_analysis", False),
)

COUNTERS = (
    "fileio.read_calls",
    "fileio.rows_read",
    "fileio.rows_written",
    "fileio.bytes_read",
    "fileio.bytes_written",
    "simulator.catalog_arrays_builds",
    "simulator.rollout_calls",
    "simulator.items_simulated",
    "rng.keys_hashed",
    "domain.feature_rows",
    "learner.train_calls",
    "learner.train_rows",
    "learner.predict_rows",
    "decision.plans",
    "decision.feasible",
    "evaluation.bootstrap_replicates",
)


def _pair_bytes(model_dir):
    from seqcoupon import fileio

    names = (fileio.PAIR_FILE, fileio.FIRST_MODEL_FILE, fileio.SECOND_MODEL_FILE)
    return sum(os.path.getsize(os.path.join(model_dir, n)) for n in names)


def _count(span, a, result, c):
    """Update counters for one completed call; ``a`` holds the bound arguments."""
    if span in ("fileio.read_catalog", "fileio.read_outcomes"):
        c["fileio.read_calls"] += 1
        c["fileio.rows_read"] += len(result)
        c["fileio.bytes_read"] += os.path.getsize(a["path"])
    elif span == "fileio.load_pair":
        c["fileio.read_calls"] += 1
        c["fileio.bytes_read"] += _pair_bytes(a["in_dir"])
    elif span == "fileio.write_catalog":
        c["fileio.rows_written"] += len(a["items"])
        c["fileio.bytes_written"] += os.path.getsize(a["path"])
    elif span == "fileio.write_outcomes":
        c["fileio.rows_written"] += len(a["records"])
        c["fileio.bytes_written"] += os.path.getsize(a["path"])
    elif span == "fileio.write_plans":
        c["fileio.rows_written"] += len(a["plans"])
        c["fileio.bytes_written"] += os.path.getsize(a["path"])
    elif span == "fileio.save_pair":
        c["fileio.bytes_written"] += _pair_bytes(a["out_dir"])
    elif span == "simulator.catalog_arrays":
        c["simulator.catalog_arrays_builds"] += 1
    elif span == "simulator.run_rct":
        c["simulator.items_simulated"] += len(a["items"])
    elif span == "simulator.rollout_policy":
        c["simulator.rollout_calls"] += 1
        c["simulator.items_simulated"] += len(a["items"])
    elif span == "rng.item_keys":
        c["rng.keys_hashed"] += len(result)
    elif span == "domain.item_feature_matrix":
        c["domain.feature_rows"] += result.shape[0]
    elif span == "learner.train":
        c["learner.train_calls"] += 1
        c["learner.train_rows"] += len(a["data"])
    elif span == "learner.predict_matrix":
        c["learner.predict_rows"] += a["X"].shape[0]
    elif span in ("decision.allocate_batch", "decision.allocate_independent_batch"):
        feasible = result[2]
        c["decision.plans"] += len(feasible)
        c["decision.feasible"] += int(feasible.sum())
    elif span == "evaluation.bootstrap_band":
        c["evaluation.bootstrap_replicates"] += a["b_replicates"]


class Tracer:
    """Records spans and counters while installed; aggregates them by name."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end]
        self.counters = defaultdict(int)
        self._stack = []
        self._restore = []

    def _wrap(self, span, func):
        sig = inspect.signature(func)
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [span, stack[-1] if stack else None, time.perf_counter(), None]
            spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            _count(span, sig.bind(*args, **kwargs).arguments, result, counters)
            return result

        return wrapper

    def install(self):
        for _, module_name, _, _ in SPANS:
            importlib.import_module(module_name)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "seqcoupon" or name.startswith("seqcoupon.")]
        for span, module_name, attr, _ in SPANS:
            module = sys.modules[module_name]
            if attr == "CatalogArrays.from_items":
                cls = module.CatalogArrays
                original = cls.__dict__["from_items"]
                inner = self._wrap(span, original.__func__)
                cls.from_items = classmethod(inner)
                self._restore.append((cls, "from_items", original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, name, wrapper)
                        self._restore.append((m, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is the span's duration minus the durations of its direct
        children, which are nested inside it on the one thread that runs.
        """
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return out


def per_layer_metrics(summary, counters):
    """Flatten a span summary and counters into the per-layer metric names."""
    metrics = {}
    for span, _, _, has_children in SPANS:
        entry = summary.get(span, {"total_s": 0.0, "self_s": 0.0})
        metrics[f"{span}_s"] = entry["total_s"]
        if has_children:
            metrics[f"{span}_self_s"] = entry["self_s"]
    for name in COUNTERS:
        if name != "decision.feasible":
            metrics[name] = counters.get(name, 0)
    plans = counters.get("decision.plans", 0)
    metrics["decision.feasible_share"] = counters.get("decision.feasible", 0) / plans if plans else 0.0
    return metrics
