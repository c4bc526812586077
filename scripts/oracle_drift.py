"""Drift dump for the minimization oracles: pi-min, phi-transform and
edge-iso-min on their default grids, on perfbench's denser SWEEP_GRIDS and at
their domain corners; phi-eq-F on the same two grids; and cap_F at 600 seeded
extreme points, x and y from 2^-300 to 2^300 and p from 2 to 1000.

    PYTHONPATH=src python scripts/oracle_drift.py [OTHER_SRC]

prints each oracle suite's largest |gap|, phi-eq-F's largest residual and the
scalar objective calls per oracle cell (a scan that reads precomputed rows
makes none). Given the `src` directory of another checkout, it also
evaluates the same cells there, in a subprocess that imports krawbound from
OTHER_SRC, and prints how far each oracle's min and argmin moved, and the
largest relative move of cap_F.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from krawbound import bivariate, numerics, verify
from krawbound.induction import cap_F, induction_params

ORACLES = ("pi-min", "phi-transform", "edge-iso-min")
# cells at the domain corners: sigma in {0, 1/2}, kappa = 0, y = 0, eps near 1/2
CORNERS = {
    "pi-min": [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.3, 0.42)],
    "phi-transform": [(0.0, 0.01), (0.5, 0.0), (0.5, 0.5 - 1e-13), (0.3, 0.2)],
    "edge-iso-min": [(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.3, 0.42)],
}


def sweep_grids() -> dict:
    """perfbench's SWEEP_GRIDS, read from its workloads module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads.SWEEP_GRIDS


def cells() -> dict:
    """The argument tuples of every oracle, phi-eq-F and cap_F cell."""
    out, sweeps = {}, sweep_grids()
    for tag in (*ORACLES, "phi-eq-F"):
        row = verify._SUITES[tag]
        out[tag] = [
            list(cell.values())
            for grid in (row.axes, sweeps[tag])
            for cell in row.cells(**grid)
        ] + [list(c) for c in CORNERS.get(tag, [])]
    rng = np.random.default_rng(2024)
    out["cap_F"] = [
        [2.0 ** float(a), 2.0 ** float(b), float(p)]
        for a, b, p in zip(rng.uniform(-300, 300, 600), rng.uniform(-300, 300, 600), rng.uniform(2, 1000, 600))
    ]
    return out


def evaluate(cells: dict) -> dict:
    """(min, argmin, gap) per oracle cell, (cap_F, residual) per phi-eq-F
    cell, cap_F per extreme point, and the scalar objective calls the
    oracles made."""
    checks = {
        "pi-min": (bivariate.pi_min_check, "min_over_delta", "delta_argmin"),
        "phi-transform": (bivariate.phi_transform_check, "grid_max_value", "y_argmax"),
        "edge-iso-min": (bivariate.edge_iso_min_check, "min_over_eps", "eps_argmin"),
    }
    calls, minimize = [0], numerics._minimize_1d

    def counted(f, *rest):
        def g(t):
            calls[0] += 1
            return f(t)

        return minimize(g, *rest)

    out = {}
    bivariate._minimize_1d = counted
    for tag, (check, value, argmin) in checks.items():
        recs = [check(*c) for c in cells[tag]]
        out[tag] = [(getattr(r, value), getattr(r, argmin), r.gap) for r in recs]
    bivariate._minimize_1d = minimize
    out["calls"] = calls[0]
    phi_eq = []
    for n, s, p in cells["phi-eq-F"]:
        par = induction_params(int(n), int(s), p)
        value = cap_F(par.rho ** (p / 2.0), 1.0, p)
        phi_eq.append((value, abs(value / par.phi_big - 1.0)))
    out["phi-eq-F"] = phi_eq
    out["cap_F"] = [cap_F(*c) for c in cells["cap_F"]]
    return out


def main(argv: list) -> None:
    if argv == ["--dump"]:
        print(json.dumps(evaluate(json.loads(sys.stdin.read()))))
        return
    todo = cells()
    here = evaluate(todo)
    count = sum(len(todo[tag]) for tag in ORACLES)
    print(f"{count} oracle cells, {here['calls'] / count:.1f} scalar objective calls per cell")
    for tag in ORACLES:
        print(f"{tag}: {len(todo[tag])} cells, max |gap| {max(abs(r[2]) for r in here[tag]):.3e}")
    print(f"phi-eq-F: {len(todo['phi-eq-F'])} cells, max residual {max(r[1] for r in here['phi-eq-F']):.3e}")
    if not argv:
        return
    env = dict(os.environ, PYTHONPATH=argv[0])
    dump = subprocess.run(
        [sys.executable, __file__, "--dump"],
        env=env, input=json.dumps(todo), check=True, capture_output=True, text=True,
    )
    there = json.loads(dump.stdout)
    print(f"scalar objective calls per cell at {argv[0]}: {there['calls'] / count:.1f}")
    for tag in ORACLES:
        moves = [max(abs(a[k] - b[k]) for a, b in zip(here[tag], there[tag])) for k in (0, 1)]
        print(f"{tag}: max |min move| {moves[0]:.3e}, max |argmin move| {moves[1]:.3e}")
    move = max(abs(a[0] - b[0]) / abs(b[0]) for a, b in zip(here["phi-eq-F"], there["phi-eq-F"]))
    print(f"phi-eq-F: max relative move of cap_F {move:.3e}")
    move = max(abs(a - b) / b for a, b in zip(here["cap_F"], there["cap_F"]))
    print(f"cap_F at {len(todo['cap_F'])} extreme points: max relative move {move:.3e}")


if __name__ == "__main__":
    main(sys.argv[1:])
