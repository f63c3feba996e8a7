"""Byte-for-byte parity of the CLI tables of two arwmass source trees.

    python tools/table_parity.py PARENT_TREE CHANGE_TREE --seeds 1 2 3 4 5

Runs every scenario that ``perfbench/scenarios.py`` lists for the three
workloads and the given seeds through ``arwmass.cli.run``, once per tree, each
tree in its own subprocess with its own ``src/`` and ``perfbench/`` first on
the path.  The subprocess sets ``ARWMASS_THREADS=1``: trees from before the
CLI's mass pool was fixed at one worker read that variable, and their tables
are deterministic only with one.  A tree whose ``arwmass`` or
``scenarios`` module is imported from anywhere else (a tree without
``src/arwmass``, say, while ``PYTHONPATH`` names another one) is an error,
not a comparison.  Every table the CLI writes, config digest
included, and every exit code (or the exception a scenario raised) is
compared between the trees.  Prints the number of tables compared and each
difference, and exits 1 if there is any, 0 if there is none.  For a JSON
table that differs, the line names the largest relative difference among
its numbers and the field that holds it, and one more line names each
other field that differs: a boolean, a string (such as a scan
``direction``), a non-finite number or a list of another length.  Nothing
is written inside either tree: the tables go to a temporary directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

WORKLOADS = ("slice-mass", "flow", "check")


def collect(tree: str, seeds) -> dict:
    """Scenario key -> {"code": exit code or the exception, "tables": {file:
    text}} for every scenario of ``tree``, run in this process."""
    src, bench = os.path.join(tree, "src"), os.path.join(tree, "perfbench")
    sys.path[:0] = [src, bench]
    import arwmass.cli
    import scenarios

    for module, root in ((arwmass, src), (scenarios, bench)):
        if not os.path.abspath(module.__file__).startswith(root + os.sep):
            raise SystemExit(f"imported {module.__name__} from {module.__file__}, not {root}")

    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        for workload in WORKLOADS:
            for seed in seeds:
                for i, scenario in enumerate(scenarios.scenarios(workload, seed)):
                    key = f"{workload} seed {seed} #{i} {scenario.name}"
                    directory = os.path.join(scratch, workload, str(seed), str(i))
                    os.makedirs(directory)
                    try:
                        code = arwmass.cli.run(scenario.config, directory)
                    except Exception as exc:  # a raising scenario is compared too
                        code = f"{type(exc).__name__}: {exc}"
                    tables = {}
                    for name in sorted(os.listdir(directory)):
                        with open(os.path.join(directory, name), encoding="utf-8") as fh:
                            tables[name] = fh.read()
                    results[key] = {"code": code, "tables": tables}
    return results


def differences(parent: dict, change: dict) -> list:
    """One line for each scenario whose exit code or tables differ, or that
    only one tree lists; a differing JSON table gets its largest relative
    difference and a line for each non-numeric difference."""
    lines = []
    for key in sorted(parent.keys() | change.keys()):
        if key not in parent or key not in change:
            side = "parent" if key in parent else "change"
            lines.append(f"{key}: listed by the {side} tree only")
            continue
        old, new = parent[key], change[key]
        if old["code"] != new["code"]:
            lines.append(f"{key}: exit code {old['code']!r} -> {new['code']!r}")
        for name in sorted(old["tables"].keys() | new["tables"].keys()):
            a, b = old["tables"].get(name), new["tables"].get(name)
            if a == b:
                continue
            try:
                numbers, others = [], []
                _compare(json.loads(a), json.loads(b), "", numbers, others)
            except (TypeError, ValueError):  # absent on one side, or not JSON
                lines.append(f"{key}: {name} differs")
                continue
            head = f"{key}: {name} differs"
            if numbers:
                largest, field = max(numbers)
                head += f", largest relative difference {largest:.2e} in {field}"
            lines.append(head)
            lines.extend(f"{key}: {name} {other}" for other in others)
    return lines


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _compare(old, new, path: str, numbers: list, others: list) -> None:
    """Walk two parsed tables side by side: append (relative difference,
    field) for every finite number that differs to ``numbers``, and a line
    for every other differing field to ``others``."""
    if _is_number(old) and _is_number(new) and math.isfinite(old) and math.isfinite(new):
        if old != new:
            numbers.append((abs(old - new) / max(abs(old), abs(new)), path))
    elif isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for name in old:
            _compare(old[name], new[name], f"{path}.{name}" if path else name, numbers, others)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for index, (a, b) in enumerate(zip(old, new)):
            _compare(a, b, f"{path}[{_label(index, a)}]", numbers, others)
    elif old != new and not (old != old and new != new):  # NaN on both sides is equal
        others.append(f"{path}: {json.dumps(old)} -> {json.dumps(new)}")


def _label(index: int, item) -> str:
    """A list entry's name: its ``check`` or ``name`` field, else its index."""
    if isinstance(item, dict):
        for field in ("check", "name"):
            if isinstance(item.get(field), str):
                return item[field]
    return str(index)


def _run_tree(tree: str, seeds) -> dict:
    env = dict(os.environ, ARWMASS_THREADS="1")
    args = [sys.executable, os.path.abspath(__file__), "--collect", tree,
            "--seeds", *map(str, seeds)]
    done = subprocess.run(args, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"collecting {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--collect", metavar="TREE", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        json.dump(collect(os.path.abspath(args.collect), args.seeds), sys.stdout)
        return 0
    if len(args.trees) != 2:
        parser.error("give PARENT_TREE and CHANGE_TREE")
    parent, change = (_run_tree(os.path.abspath(t), args.seeds) for t in args.trees)
    lines = differences(parent, change)
    tables = sum(len(result["tables"]) for result in change.values())
    print(f"{len(change)} scenarios, {tables} tables compared: {len(lines)} differences")
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
