"""arwmass benchmark: seeded CLI scenario lists, timed end to end.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload slice-mass --seed 1 --seconds 35 --trace 0

One client drives the workload's scenario list through ``arwmass.cli.run``
in this process as a closed loop: each scenario starts when the previous one
returned, and passes over the list repeat until ``--seconds`` is used up.
Every scenario's table is checked against its closed-form oracle, and every
pass must write the same bytes.

``--trace 0`` prints the end-to-end metrics: the median pass time, the
median set-up time of fresh interpreters, and the peak resident memory of
this process.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics of the traced ones (see tracer.py), the
tracing overhead and the failed-scenario share; traced and untraced passes
must write identical tables.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import scenarios  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
# The `mass` command's sub-reports race on the spec's derivative cache when
# they run on more than one pool thread, and then write wrong tables now and
# then (README.md, findings).  One worker runs them in turn on the pool
# thread; under the GIL the pure-Python work takes the same time either way.
MASS_POOL_WORKERS = "1"


class CheckoutError(Exception):
    """The working directory is not an arwmass source checkout."""


def _load_package(root: str):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "arwmass", "__init__.py")):
        raise CheckoutError(f"no arwmass sources under {src}")
    sys.path.insert(0, src)
    import arwmass.cli

    if not os.path.abspath(arwmass.__file__).startswith(src + os.sep):
        raise CheckoutError(f"imported arwmass from {arwmass.__file__}, not {src}")
    return src, arwmass.cli


def _declared_metrics(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    return {
        key: {m["name"]: m["unit"] for m in declared[key]}
        for key in ("end_to_end", "per_layer")
    }


def setup_times(src: str, first: scenarios.Scenario) -> list:
    """Wall time of fresh interpreters importing arwmass and building the
    first scenario's spec and grid, as every CLI invocation does."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"), json.dumps(first.config)]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run(
            command, env=env, stdin=subprocess.DEVNULL, capture_output=True,
            text=True, timeout=PROBE_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise CheckoutError(f"set-up probe failed: {done.stderr.strip()}")
        if not os.path.abspath(done.stdout.strip()).startswith(src + os.sep):
            raise CheckoutError(f"set-up probe imported {done.stdout.strip()}")
    return times


class Runner:
    """Runs passes over one scenario list and keeps what each one wrote."""

    def __init__(self, cli, scenario_list, out_root: str):
        self.cli = cli
        self.scenarios = scenario_list
        self.dirs = [os.path.join(out_root, f"s{i}") for i in range(len(scenario_list))]
        self.outputs = [[] for _ in scenario_list]  # bytes written, per pass
        self.codes = [set() for _ in scenario_list]
        self.errors = [[] for _ in scenario_list]

    def run_pass(self, tracer=None, label: str = "") -> float:
        """One pass over the list; returns the summed time inside cli.run."""
        elapsed = 0.0
        for i, (scenario, directory) in enumerate(zip(self.scenarios, self.dirs)):
            path = os.path.join(directory, f"{scenario.command}.json")
            if os.path.exists(path):
                os.remove(path)
            if tracer is not None:
                tracer.scenario = f"{label}/{i}"
            start = time.perf_counter()
            try:
                code = self.cli.run(scenario.config, directory)
            except Exception as exc:  # a raising scenario is a failed one
                code = None
                self.errors[i].append(f"{type(exc).__name__}: {exc}")
            elapsed += time.perf_counter() - start
            self.codes[i].add(code)
            if code is not None:
                with open(path, "rb") as fh:
                    self.outputs[i].append(fh.read())
        return elapsed

    def verify(self):
        """([(failed scenario, its issues)], [problems that make the output incorrect])."""
        failed, problems = [], []
        for scenario, outputs, codes, errors in zip(
            self.scenarios, self.outputs, self.codes, self.errors
        ):
            issues = list(errors)
            if codes != {0}:
                issues.append(f"exit codes {sorted(codes, key=str)}, expected 0")
            if outputs:
                if any(out != outputs[0] for out in outputs):  # traced ones too
                    issues.append("passes wrote different tables")
                    problems.append(f"{scenario.name}: passes wrote different tables")
                misses = scenario.oracle(json.loads(outputs[0]))
                problems += [f"{scenario.name}: {miss}" for miss in misses]
                issues += misses
            if errors:
                problems.append(f"{scenario.name}: raised {errors[0]}")
            if issues:
                failed.append((scenario.name, issues))
        return failed, problems


def measure(cli, scenario_list, out_root, seconds, tracer=None):
    """Passes until ``seconds`` are used up; every kind of pass runs once.

    Without a tracer all passes are untraced; with one, untraced and traced
    passes alternate.  A pass starts only if it is expected to end in time.
    Returns (runner, untraced pass times, traced pass times, per-layer
    metrics of each traced pass).
    """
    runner = Runner(cli, scenario_list, out_root)
    deadline = time.perf_counter() + seconds
    plain, traced, layers = [], [], []
    kinds = (plain, traced) if tracer is not None else (plain,)
    while True:
        for times in kinds:
            if times and time.perf_counter() + times[-1] > deadline:
                return runner, plain, traced, layers
            if times is plain:
                plain.append(runner.run_pass())
                continue
            tracer.reset()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer, label=f"pass{len(traced)}"))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.totals(), tracer.counters()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=scenarios.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    try:
        src, cli = _load_package(root)
        declared = _declared_metrics(root)
    except (CheckoutError, ImportError, OSError, KeyError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    os.environ["ARWMASS_THREADS"] = MASS_POOL_WORKERS
    scenario_list = scenarios.scenarios(args.workload, args.seed)
    out_root = os.path.join(HERE, ".runs", args.workload)
    shutil.rmtree(out_root, ignore_errors=True)

    metrics = {}
    if args.trace:
        tracer = Tracer()
        runner, plain, traced, layers = measure(cli, scenario_list, out_root, args.seconds, tracer)
        if tracer.missing:
            print(f"untraced (absent in this version): {', '.join(tracer.missing)}")
        for name in layers[0]:
            metrics[name] = statistics.median(layer[name] for layer in layers)
        wall, wall_traced = statistics.median(plain), statistics.median(traced)
        metrics["trace.overhead_frac"] = (wall_traced - wall) / wall
        tracer.write_spans(os.path.join(out_root, "spans.jsonl"))
        passes = f"{len(plain)} untraced + {len(traced)} traced passes"
    else:
        setup = setup_times(src, scenario_list[0])
        runner, plain, _, _ = measure(cli, scenario_list, out_root, args.seconds)
        metrics["wall_s"] = statistics.median(plain)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = f"{len(plain)} passes"

    failed, problems = runner.verify()
    metrics["failed_frac"] = len(failed) / len(scenario_list)

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        problems.append(f"metrics not produced: {', '.join(missing)}")

    print(f"workload {args.workload}, seed {args.seed}: {len(scenario_list)} scenarios, {passes}")
    print(f"  untraced pass times (s): {', '.join(f'{t:.3f}' for t in plain)}")
    for name, value in metrics.items():
        unit = wanted.get(name, "ratio")
        print(f"  {name:42s} {value:.6g} {unit}")
    for name, issues in failed:
        print(f"  FAILED {name}: {'; '.join(issues)}")
    for problem in problems:
        print(f"  INCORRECT {problem}")

    result = {
        "correct": not problems,
        "attempted": len(scenario_list),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()
                    if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
