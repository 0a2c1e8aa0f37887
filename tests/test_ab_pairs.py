"""The A/B pairs script's summary, on synthetic pair results (no benchmark runs)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def result(failed=0, **metrics):
    return {"attempted": 3, "failed": failed,
            "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}


def pairs_of(parent, change):
    return [{"parent": result(**p), "change": result(**c)} for p, c in zip(parent, change)]


def test_quartiles_medians_and_wins():
    pairs = pairs_of(
        [{"wall_s": v, "peak_rss_mb": 40.0, "items_per_s": 100.0} for v in (1.0, 2.0, 3.0, 4.0, 5.0)],
        [{"wall_s": v, "peak_rss_mb": m, "items_per_s": 90.0}
         for v, m in ((0.5, 40.0), (2.0, 45.0), (2.5, 45.0), (5.0, 45.0), (6.0, 45.0))])
    rows = ab_pairs.summarize(pairs, END_TO_END)["metrics"]
    assert rows["wall_s"]["parent"] == (2.0, 3.0, 4.0)
    assert rows["wall_s"]["change"] == (2.0, 2.5, 5.0)
    # 0.5 < 1 and 2.5 < 3 win; 2.0 = 2.0 ties and counts for neither side.
    assert (rows["wall_s"]["wins"], rows["wall_s"]["pairs"]) == (2, 5)
    assert not rows["wall_s"]["worse_beyond_bound"]
    # 45 MB is 12.5% above 40 MB, past the 0.1 bound; a lower rate is worse too.
    assert rows["peak_rss_mb"]["wins"] == 0 and rows["peak_rss_mb"]["worse_beyond_bound"]
    assert rows["items_per_s"]["wins"] == 0 and not rows["items_per_s"]["worse_beyond_bound"]


def test_a_run_without_metrics_counts_in_the_totals_but_not_the_pairs():
    pairs = pairs_of([{"wall_s": 1.0}, {"wall_s": 1.0}], [{"wall_s": 0.9}, {}])
    pairs[1]["change"]["failed"] = 3
    summary = ab_pairs.summarize(pairs, END_TO_END)
    assert list(summary["metrics"]) == ["wall_s"]
    assert summary["metrics"]["wall_s"]["pairs"] == 1
    assert summary["metrics"]["wall_s"]["change"] == (0.9, 0.9, 0.9)
    assert summary["totals"] == {"parent": {"attempted": 6, "failed": 0},
                                 "change": {"attempted": 6, "failed": 3}}


def test_render_prints_one_row_per_metric_and_the_totals():
    pairs = pairs_of([{"wall_s": 0.1}] * 2, [{"wall_s": 0.2}] * 2)
    text = ab_pairs.render(ab_pairs.summarize(pairs, END_TO_END), "pipeline")
    assert "| `wall_s` (s) | 0.1 [0.1, 0.1] | 0.2 [0.2, 0.2] | 0/2 | yes (0.25) |" in text
    assert text.endswith("attempted/failed: parent 6/0, change 6/0")


@pytest.mark.parametrize("pairs", [1, 4])
def test_pairs_alternate_which_side_runs_first_on_one_seed(monkeypatch, pairs):
    calls = []
    monkeypatch.setattr(ab_pairs, "run_side", lambda tree, workload, seed, seconds:
                        calls.append((tree, seed)) or result())
    assert len(ab_pairs.run_pairs("P", "C", "rollout", pairs, 5.0, 7)) == pairs
    expected = [("P", 7), ("C", 7), ("C", 8), ("P", 8), ("P", 9), ("C", 9), ("C", 10), ("P", 10)]
    assert calls == expected[:2 * pairs]
