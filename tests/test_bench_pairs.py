import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(wall, rss, correct=True, failed=0.0):
    return {"correct": correct, "failed_frac": failed, "wall_s": wall, "peak_rss_mb": rss}


def test_summary_counts_wins_medians_and_the_parents_spread():
    pairs = [
        {"seed": 1, "first": "parent", "parent": _run(1.0, 40.0), "change": _run(0.6, 41.0)},
        {"seed": 2, "first": "change", "parent": _run(0.8, 40.0), "change": _run(0.8, 40.0)},
        {"seed": 3, "first": "parent", "parent": _run(1.2, 40.0), "change": _run(0.7, 39.0)},
        {"seed": 4, "first": "change", "parent": _run(0.9, 40.0), "change": _run(1.1, 40.5)},
    ]
    summary = _tool().summarize(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"})
    wall = summary["wall_s"]
    assert wall["parent"] == [1.0, 0.8, 1.2, 0.9]
    assert wall["change"] == [0.6, 0.8, 0.7, 1.1]
    assert wall["wins"] == 2  # the tie counts for neither side
    assert wall["pairs"] == 4
    assert wall["parent_median"] == pytest.approx(0.95)
    assert wall["change_median"] == pytest.approx(0.75)
    assert wall["parent_iqr"] == pytest.approx(1.05 - 0.875)
    assert wall["median_move"] == pytest.approx(0.75 / 0.95 - 1.0)
    assert summary["peak_rss_mb"]["wins"] == 1
    assert summary["correct"] is True
    assert summary["parent_max_failed_frac"] == summary["change_max_failed_frac"] == 0.0


def test_summary_follows_the_declared_direction_and_reports_failures():
    pairs = [
        {"seed": 5, "first": "parent", "parent": _run(1.0, 40.0),
         "change": _run(2.0, 40.0, correct=False, failed=0.25)},
    ]
    summary = _tool().summarize(pairs, {"wall_s": "higher"})
    assert summary["wall_s"]["wins"] == 1
    assert summary["wall_s"]["parent_iqr"] == 0.0
    assert summary["correct"] is False
    assert summary["change_max_failed_frac"] == 0.25
    assert summary["parent_max_failed_frac"] == 0.0
