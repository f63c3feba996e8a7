import importlib.util
import json
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


def test_parity_names_the_largest_relative_difference_and_each_other_field():
    differences = _tool().differences

    def table(value, scalar, passed, direction, integrals):
        return json.dumps({
            "config_digest": "d",
            "integrals": integrals,
            "checks": [
                {"check": "conformal-scalar", "value": value, "passed": passed},
                {"check": "slab-balance", "value": 1e-17, "passed": True},
            ],
            "scan": {"direction": direction, "probes": []},
            "m_hat": scalar,
        })

    nan = float("nan")
    parent = {
        "s": {"code": 0, "tables": {"check.json": table(1.4e-8, 4.0, True, "increasing", [1, 2])}},
        "t": {"code": 0, "tables": {"mass.json": table(1.0, 4.0, True, "constant", [1.0, nan])}},
    }
    change = {
        "s": {"code": 2, "tables": {"check.json": table(1.2e-7, 4.0 + 4e-15, False, "constant", [1, 2])}},
        "t": {"code": 0, "tables": {"mass.json": table(1.0, 4.0, True, "constant", [1 + 2**-50, nan])}},
    }
    assert differences(parent, change) == [
        "s: exit code 0 -> 2",
        "s: check.json differs, largest relative difference 8.83e-01"
        " in checks[conformal-scalar].value",
        "s: check.json checks[conformal-scalar].passed: true -> false",
        "s: check.json scan.direction: \"increasing\" -> \"constant\"",
        "t: mass.json differs, largest relative difference 8.88e-16 in integrals[0]",
    ]
    grown = {"t": {"code": 0, "tables": {"mass.json": table(1.0, 4.0, True, "constant", [1.0])}}}
    assert differences(parent, grown)[-1] == (
        "t: mass.json integrals: [1.0, NaN] -> [1.0]"
    )


def test_parity_refuses_a_tree_whose_sources_come_from_elsewhere(tmp_path, monkeypatch):
    # A tree without src/arwmass, with another tree's src on PYTHONPATH:
    # comparing that tree would compare the other one with itself.
    repo = TOOL.parents[1]
    tree = tmp_path / "unpacked"
    (tree / "prefix").mkdir(parents=True)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(repo / "src"), str(repo / "perfbench")]))
    with pytest.raises(SystemExit, match=r"imported arwmass from .*, not .*unpacked"):
        _tool().main([str(tree), str(repo), "--seeds", "1"])
