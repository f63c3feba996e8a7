import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "event_cost.py"


def _tool():
    spec = importlib.util.spec_from_file_location("event_cost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_event_cost_prints_every_layer_of_every_spec(monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "EVENTS", 2)
    monkeypatch.setattr(tool, "REPEATS", 1)
    tool.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["spec", "curvature_at", "metric_jets", "TimeFunction.jet"]
    assert [" ".join(row.split()[:2]) for row in rows] == list(tool.specs())
    for row in rows:
        costs = [float(value) for value in row.split()[2:]]
        assert len(costs) == 3
        assert all(math.isfinite(cost) and cost > 0.0 for cost in costs)
