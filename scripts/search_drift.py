"""Drift dump for criterion 04: the 72 extremal-search cells n in
{6, 8, 10, 12}, p in {2.5, 3, 4, 6}, 1 <= s <= n/2, at budget 200, seed 0.

    PYTHONPATH=src python scripts/search_drift.py [OTHER_SRC]

prints the cell count, the smallest number of converged starts and the wall
time of the cells. Given the `src` directory of another checkout, it also
runs the cells there, after those here, in a subprocess that imports
krawbound from OTHER_SRC, and prints:
- the wall time of the cells there, and the ratio of the two times;
- the largest relative drift of `best_log2_ratio`, and its cell;
- how many bests kept their bits, and the largest fall of a best;
- the largest move of the reported coefficients;
- every cell whose `converged_starts` or chosen row changed.
A row counts as changed when the reported coefficients moved by more than
1e-4. Rounding moves a converged row's coefficients far less (a flat optimum
is located to about the square root of the 1e-14 stopping rise), while
another start's optimum, such as a sign flip or a coordinate permutation,
differs by at least 1/sqrt(C(n, s)) in some coefficient.
"""

import json
import os
import subprocess
import sys
import time

from krawbound.verify import search_extremal_ratio

ROW_MOVED = 1e-4


def cells() -> tuple:
    """The wall time of the cells, and (n, s, p, best_log2_ratio,
    converged_starts, coefficients) per cell, in criterion 04's order."""
    t0, out = time.perf_counter(), []
    for n in (6, 8, 10, 12):
        for p in (2.5, 3.0, 4.0, 6.0):
            for s in range(1, n // 2 + 1):
                rec = search_extremal_ratio(n, s, p, budget=200, seed=0)
                out.append((n, s, p, rec.best_log2_ratio, rec.converged_starts, rec.best_fourier_coeffs))
    return time.perf_counter() - t0, out


def main(argv: list) -> None:
    if argv == ["--dump"]:
        print(json.dumps(cells()))
        return
    spent, here = cells()
    print(f"{len(here)} cells, fewest converged starts {min(c[4] for c in here)} of 201, {spent:.2f} s")
    if not argv:
        return
    env = dict(os.environ, PYTHONPATH=argv[0])
    dump = subprocess.run(
        [sys.executable, __file__, "--dump"], env=env, check=True, capture_output=True, text=True
    )
    spent_there, there = json.loads(dump.stdout)
    print(f"wall time there: {spent_there:.2f} s; here / there: {spent / spent_there:.3f}")
    drift = [abs(a[3] - b[3]) / abs(b[3]) for a, b in zip(here, there)]
    worst = max(range(len(drift)), key=drift.__getitem__)
    print(f"max relative drift of best_log2_ratio: {drift[worst]:.3e} at cell {tuple(here[worst][:3])}")
    print(f"bit-identical bests: {drift.count(0.0)} of {len(drift)}")
    print(f"largest fall of a best: {max(b[3] - a[3] for a, b in zip(here, there)):.3e}")
    moves = [max(abs(u - v) for u, v in zip(a[5], b[5])) for a, b in zip(here, there)]
    print(f"largest move of the reported coefficients: {max(moves):.3e}")
    changed = 0
    for a, b, moved in zip(here, there, moves):
        if a[4] != b[4] or moved > ROW_MOVED:
            changed += 1
            print(f"  cell {tuple(a[:3])}: converged {b[4]} -> {a[4]}, coefficients moved by {moved:.3e}")
    print(f"{changed} cells changed their converged starts or chosen row")


if __name__ == "__main__":
    main(sys.argv[1:])
