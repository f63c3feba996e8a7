"""Set-up of one CLI invocation: import arwmass, build a spec and its grid.

Run in a fresh interpreter by run.py, which times the whole process:

    PYTHONPATH=src python3 perfbench/setup_probe.py '<scenario config JSON>'

Prints the path of the imported package so the caller can check it came
from the checkout under test.
"""

import json
import sys

import arwmass
from scenarios import build_spec

config = json.loads(sys.argv[1])
spec = build_spec(config["spacetime"])
arwmass.quadrature_grid(spec.n, int(config.get("grid", 48)))
print(arwmass.__file__)
