import importlib.util
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "table_parity.py"


def _tool():
    spec = importlib.util.spec_from_file_location("table_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_reports_every_kind_of_difference():
    differences = _tool().differences
    same = {"a": {"code": 0, "tables": {"mass.json": "x"}}}
    assert differences(same, same) == []
    parent = {
        "a": {"code": 0, "tables": {"mass.json": "x"}},
        "b": {"code": 0, "tables": {"imcf.json": "y"}},
        "c": {"code": 0, "tables": {}},
    }
    change = {
        "a": {"code": 0, "tables": {"mass.json": "x!"}},
        "b": {"code": "FlowError: H <= 0", "tables": {}},
        "d": {"code": 0, "tables": {}},
    }
    assert differences(parent, change) == [
        "a: mass.json differs",
        "b: exit code 0 -> 'FlowError: H <= 0'",
        "b: imcf.json differs",
        "c: listed by the parent tree only",
        "d: listed by the change tree only",
    ]


def test_parity_refuses_a_tree_whose_sources_come_from_elsewhere(tmp_path, monkeypatch):
    # A tree without src/arwmass, with another tree's src on PYTHONPATH:
    # comparing that tree would compare the other one with itself.
    repo = TOOL.parents[1]
    tree = tmp_path / "unpacked"
    (tree / "prefix").mkdir(parents=True)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(repo / "src"), str(repo / "perfbench")]))
    with pytest.raises(SystemExit, match=r"imported arwmass from .*, not .*unpacked"):
        _tool().main([str(tree), str(repo), "--seeds", "1"])
