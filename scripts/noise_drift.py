"""Drift dump for the point-domain noise operator: `cube.apply_noise` on
seeded standard-normal point values at n = 0..14 over an eps grid.

    PYTHONPATH=src python scripts/noise_drift.py [OTHER_SRC]

prints the wall time of the noise calls. Given the `src` directory of
another checkout, it also runs them there, after those here, in a
subprocess that imports krawbound from OTHER_SRC, and prints the wall time
there and the largest |T_eps f here - T_eps f there| / max |T_eps f there|,
and its (n, eps), over all cells, and how many cells kept every bit. The
suite payloads are pinned by tests/test_golden.py.
"""

import io
import json
import os
import subprocess
import sys
import time

import numpy as np

from krawbound import cube

DIMS = range(15)
EPS_GRID = (0.0, 0.01, 0.03, 0.1, 0.17, 0.25, 0.3, 0.45, 0.49, 0.5)


def noise_cells() -> tuple:
    """The wall time of the calls, and T_eps f per (n, eps) cell, in
    (DIMS, EPS_GRID) order, concatenated into one array."""
    out, spent = [], 0.0
    for n in DIMS:
        f = cube.CubeFunction(n, cube.POINT, np.random.default_rng(n).standard_normal(1 << n))
        for eps in EPS_GRID:
            t0 = time.perf_counter()
            out.append(cube.apply_noise(f, eps).data)
            spent += time.perf_counter() - t0
    return spent, np.concatenate(out)


def main(argv: list) -> None:
    if argv == ["--dump"]:
        spent, values = noise_cells()
        buf = io.BytesIO()
        np.save(buf, values)
        sys.stdout.buffer.write(json.dumps(spent).encode() + b"\n" + buf.getvalue())
        return
    spent, here = noise_cells()
    print(f"{len(DIMS) * len(EPS_GRID)} noise cells, {spent * 1e3:.1f} ms")
    if not argv:
        return
    env = dict(os.environ, PYTHONPATH=argv[0])
    dump = subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True, capture_output=True)
    head, _, body = dump.stdout.partition(b"\n")
    spent_there = json.loads(head)
    there = np.load(io.BytesIO(body))
    print(f"wall time there: {spent_there * 1e3:.1f} ms; here / there: {spent / spent_there:.3f}")
    worst, at, same, start = -1.0, None, 0, 0
    for n in DIMS:
        for eps in EPS_GRID:
            a, b = here[start : start + (1 << n)], there[start : start + (1 << n)]
            start += 1 << n
            drift = float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
            same += bool(np.array_equal(a, b))
            if drift > worst:
                worst, at = drift, (n, eps)
    print(f"max |drift| / max |T_eps f|: {worst:.3e} at (n, eps) = {at}")
    print(f"bit-identical cells: {same} of {len(DIMS) * len(EPS_GRID)}")


if __name__ == "__main__":
    main(sys.argv[1:])
