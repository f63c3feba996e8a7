"""The cost of one curvature event, layer by layer.

    python tools/event_cost.py

Prints, for rw-family, custom (angular psi and lambda) and SAdS specs at
n = 2 and 3, the best-of-k cost in microseconds of one call of
``curvature_at``, of ``metric_jets`` at order 2 and of the time profile's
``TimeFunction.jet`` at order 2, each at one event.  A pass makes one call
per event of a fixed sample of events, after a warm-up pass that compiles
the programs and fills the SAdS radius cache, so SAdS timings leave the
root-find out.  Each figure is the fastest of the repeats, divided by the
number of events.  The ``src/`` of the tree this script sits in is imported.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from arwmass.curvature import curvature_at  # noqa: E402
from arwmass.geometry import make_spec, metric_jets, rw_family_spec, sample_events  # noqa: E402
from arwmass.sads import SAdSParams, as_arw_spec  # noqa: E402

EVENTS = 50
REPEATS = 40
ANGULAR = {"psi": "0.05*cos(theta1)*tau", "lam": "0.03*cos(theta1)*tau"}


def specs() -> dict:
    return {
        "rw n=2": rw_family_spec(2, 1.5, k=1.3, a=-0.5),
        "rw n=3": rw_family_spec(3, 1.0, k=2.0, a=-0.5),
        "custom n=2": make_spec(2, 1.2, "log(-tau)/0.6", a=-1.0, **ANGULAR),
        "custom n=3": make_spec(3, 1.0, "log(-2*tau)", a=-1.0, **ANGULAR),
        "sads n=2": as_arw_spec(SAdSParams(n=2, lam=-1.0, mass=0.9)),
        "sads n=3": as_arw_spec(SAdSParams(n=3, lam=0.0, mass=1.0)),
    }


def best_us(call, events) -> float:
    """The fastest of REPEATS passes of ``call`` over ``events``, in
    microseconds per event, after one warm-up pass."""
    for event in events:
        call(event)
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for event in events:
            call(event)
        best = min(best, time.perf_counter() - start)
    return 1e6 * best / len(events)


def costs(spec) -> dict:
    """{layer: best-of-k microseconds per event} of one spec."""
    events = sample_events(spec, EVENTS, seed=1)
    metric = spec.metric
    return {
        "curvature_at": best_us(lambda e: curvature_at(metric, e), events),
        "metric_jets": best_us(lambda e: metric_jets(metric, e, 2), events),
        "TimeFunction.jet": best_us(lambda e: spec.f.jet(e[0], 2), events),
    }


def main() -> None:
    layers = ("curvature_at", "metric_jets", "TimeFunction.jet")
    print(f"{'spec':<12}" + "".join(f"{name:>18}" for name in layers) + "   (us per event)")
    for name, spec in specs().items():
        row = costs(spec)
        print(f"{name:<12}" + "".join(f"{row[layer]:>18.1f}" for layer in layers))


if __name__ == "__main__":
    main()
