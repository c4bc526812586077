"""Drift dump for criterion 02: psi on the 101 x 101 grid p in [2.1, 10],
x in [0.01, 0.49].

    PYTHONPATH=src python scripts/psi_grid_drift.py [OTHER_SRC]

prints the largest |value - second_value| over the grid. Given the `src`
directory of another checkout, it also evaluates the grid there, in a
subprocess that imports krawbound from OTHER_SRC, and prints the largest
difference of each representation between the two.
"""

import json
import os
import subprocess
import sys

import numpy as np

from krawbound.bivariate import psi


def grid() -> list:
    """(value, second_value) at each grid point, p outermost."""
    out = []
    for p in np.linspace(2.1, 10.0, 101):
        for x in np.linspace(0.01, 0.49, 101):
            ev = psi(float(p), float(x))
            out.append((ev.value, ev.second_value))
    return out


def main(argv: list) -> None:
    if argv == ["--dump"]:
        print(json.dumps(grid()))
        return
    here = grid()
    print(f"max |value - second_value|: {max(abs(a - b) for a, b in here):.3e}")
    if argv:
        env = dict(os.environ, PYTHONPATH=argv[0])
        dump = subprocess.run(
            [sys.executable, __file__, "--dump"], env=env, check=True, capture_output=True, text=True
        )
        there = json.loads(dump.stdout)
        for k, label in enumerate(("value", "second_value")):
            drift = max(abs(a[k] - b[k]) for a, b in zip(here, there))
            print(f"max |{label} - {label} at {argv[0]}|: {drift:.3e}")


if __name__ == "__main__":
    main(sys.argv[1:])
