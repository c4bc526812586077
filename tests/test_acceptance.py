"""End-to-end acceptance gates.

Ten criteria, one printed pass/fail line each (run with -s to see them all):
exact polynomial identities, exponent reconciliations, closed-form sweep
residuals, gradient-ascent counterexample search, brute-force bound margins,
sphere tightness trends, tensorization, near-equality of the adjacent pair,
norm concentration, and replay determinism.
"""

import json
import math
import time

import numpy as np

from krawbound.bivariate import psi
from krawbound.bounds import (
    hypercontractive_bound,
    projection_bound,
    set_noise_bound,
    ue_exponent,
)
from krawbound.cube import (
    CubeFunction,
    CubeSubset,
    apply_noise,
    inner_product,
    lp_norm,
    spectral_project,
    sphere_union_ue_log2,
)
from krawbound.induction import hanner_gap_kraw, tensor_ratio_log2
from krawbound.krawchouk import kraw_table, lp_concentration
from krawbound.numerics import binary_entropy, inverse_entropy
from krawbound.verify import (
    identity_sweep,
    run_suite,
    search_extremal_ratio,
    tightness_sweep,
)
from oracles import kraw_table_sum


def _line(num, name, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_exact_krawchouk_identity_suite():
    t0 = time.time()
    count = 0
    oracle = 0
    prev = None
    for n in range(0, 65):
        tables = [kraw_table(n, s).values for s in range(n + 1)]
        for s in range(n + 1):
            # the independent oracle: the explicit alternating sum
            assert tables[s] == kraw_table_sum(n, s)
            oracle += 1
        binom = [math.comb(n, i) for i in range(n + 1)]
        pow2 = 1 << n
        for s in range(n + 1):
            K = tables[s]
            assert K[0] == binom[s]
            count += 1
            for i in range(n + 1):
                assert K[n - i] == (-1) ** s * K[i]
                assert binom[i] * K[i] == binom[s] * tables[i][s]
                count += 2
            assert sum(binom[i] * K[i] * K[i] for i in range(n + 1)) == pow2 * binom[s]
            count += 1
        if prev is not None:
            for s in range(1, n):
                for i in range(n):
                    assert tables[s][i] == prev[s][i] + prev[s - 1][i]
                    count += 1
        prev = tables
    elapsed = time.time() - t0
    _line(
        1,
        "exact identity suite n<=64",
        elapsed < 60.0,
        f"{count} identities and {oracle} tables equal to the explicit sum in {elapsed:.1f}s",
    )


def test_criterion_02_psi_reconciliation_grid():
    t0 = time.time()
    worst = 0.0
    for p in np.linspace(2.1, 10.0, 101):
        for x in np.linspace(0.01, 0.49, 101):
            ev = psi(float(p), float(x))
            worst = max(worst, abs(ev.value - ev.second_value))
    boundary = 0.0
    for p in np.linspace(2.0, 10.0, 41):
        boundary = max(boundary, abs(psi(float(p), 0.0).value))
        boundary = max(boundary, abs(psi(float(p), 0.5).value - (p - 2.0) / 2.0))
    for x in np.linspace(0.0, 0.5, 41):
        boundary = max(boundary, abs(psi(2.0, float(x)).value))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and boundary <= 1e-10 and elapsed < 10.0
    _line(
        2,
        "two-representation reconciliation",
        ok,
        f"grid residual {worst:.2e}, boundary residual {boundary:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_closed_form_sweeps():
    t0 = time.time()
    budgets = {
        "tau-symmetry": 1e-8,
        "pi-min": 1e-8,
        "phi-transform": 1e-6,
        "edge-iso-min": 1e-6,
        "phi-eq-F": 1e-9,
        "u-star": 1e-8,
    }
    details = []
    ok = True
    for tag, tol in budgets.items():
        rep = identity_sweep(tag, tol=tol)
        worst_resid = tol - rep.worst_margin
        details.append(f"{tag} {worst_resid:.1e}")
        ok &= rep.passed
    elapsed = time.time() - t0
    ok &= elapsed < 120.0
    _line(3, "lemma sweeps on default grids", ok, f"{'; '.join(details)}; {elapsed:.1f}s")


def test_criterion_04_gradient_search_no_counterexample():
    t0 = time.time()
    worst_slack = math.inf
    cell_s = {}
    for n in (6, 8, 10, 12):
        for p in (2.5, 3.0, 4.0, 6.0):
            for s in range(1, n // 2 + 1):
                t_cell = time.time()
                rec = search_extremal_ratio(n, s, p, budget=200, seed=0)
                cell_s[n, s, p] = time.time() - t_cell
                assert rec.counterexample is None, (n, s, p)
                assert rec.best_log2_ratio <= rec.bound_log2 + 1e-9, (n, s, p)
                # ascent starts at the uniform-coefficient row, so the
                # polynomial itself is always a feasible witness
                assert rec.best_log2_ratio >= rec.kraw_log2_ratio - 1e-9, (n, s, p)
                # every start stops rising before the iteration cap
                assert rec.converged_starts == rec.budget + 1, (n, s, p)
                worst_slack = min(worst_slack, rec.bound_log2 - rec.best_log2_ratio)
        print(f"  n={n} done {time.time()-t0:.0f}s")
    slowest = sorted(cell_s, key=cell_s.get, reverse=True)[:5]
    print("  slowest cells: " + ", ".join(f"{cell} {cell_s[cell]:.2f}s" for cell in slowest))
    elapsed = time.time() - t0
    ok = elapsed < 1800.0
    _line(
        4,
        "ascent search 200 restarts/cell",
        ok,
        f"{len(cell_s)} cells, all starts converged, min bound slack {worst_slack:.3f} bits, {elapsed:.0f}s",
    )


def test_criterion_05_brute_force_bound_margins():
    t0 = time.time()
    rng = np.random.default_rng(20240815)
    worst = {"classic-hc": math.inf, "refined-hc": math.inf, "set-noise": math.inf, "projection": math.inf}

    for _ in range(1000):
        n = int(rng.integers(2, 15))
        data = rng.standard_normal(1 << n)
        if rng.random() < 0.5:
            data = np.abs(data)
        f = CubeFunction(n, "point-values", data)
        eps = float(rng.uniform(0.01, 0.49))

        # classic two-norm contraction
        q = 1 + (1 - 2 * eps) ** 2
        log_noisy = math.log2(lp_norm(apply_noise(f, eps), 2))
        m = math.log2(lp_norm(f, q)) - log_noisy
        worst["classic-hc"] = min(worst["classic-hc"], m)

        # refined contraction through the norm-concentration ratio
        p = float(rng.uniform(q, 6.0))
        log_p, log_1 = math.log2(lp_norm(f, p)), math.log2(lp_norm(f, 1))
        r_p = min((log_p - log_1) / n, (p - 1) / p)
        bnd = hypercontractive_bound(r_p, eps, p)
        m = bnd * n + log_p - log_noisy
        worst["refined-hc"] = min(worst["refined-hc"], m)

        # spectral projection of an arbitrary function
        p2 = float(rng.uniform(2.0, 6.0))
        log_p2 = math.log2(lp_norm(f, p2))
        r2 = min((log_p2 - log_1) / n, (p2 - 1) / p2)
        k = int(rng.integers(0, n + 1))
        lhs = lp_norm(spectral_project(f, k), 2)
        if lhs > 0:
            m = projection_bound(n, k, p2, r2) * n + log_p2 - math.log2(lhs)
            worst["projection"] = min(worst["projection"], m)

        # noise stability of a small set
        sigma = float(rng.uniform(0.05, 0.5))
        cap = int(2 ** (binary_entropy(sigma) * n))
        if cap >= 1:
            size = int(rng.integers(1, max(2, cap + 1)))
            idx = rng.choice(1 << n, size=min(size, 1 << n), replace=False)
            ind = CubeSubset.from_indices(n, [int(v) for v in idx]).indicator()
            stab = inner_product(apply_noise(ind, eps), ind)
            m = set_noise_bound(sigma, eps) * n + 2 * math.log2(lp_norm(ind, 2)) - math.log2(stab)
            worst["set-noise"] = min(worst["set-noise"], m)

    elapsed = time.time() - t0
    ok = all(v >= -1e-9 for v in worst.values()) and elapsed < 600.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _line(5, "brute-force margins, 1000 instances each", ok, f"{detail}; {elapsed:.0f}s")


def test_criterion_06_sphere_tightness():
    t0 = time.time()
    edge = tightness_sweep("edge-iso-sphere")
    c_edge = edge.measured_constants["edge_iso_overshoot_per_i"]

    hc = tightness_sweep("hc-sphere-gap")
    cs = hc.measured_constants["hc_gap_factor_over_s_0.75"]

    worst_ue = 0.0
    for R in (0.3, 0.5, 0.7):
        n, eps = 200, 0.1
        s = round(inverse_entropy(R) * n)
        gap = abs(
            sphere_union_ue_log2(n - 1, s, eps) / n - ue_exponent(binary_entropy(s / n), eps)
        )
        worst_ue = max(worst_ue, gap)

    elapsed = time.time() - t0
    ok = (
        edge.passed
        and c_edge <= 10.0
        and hc.passed
        and max(cs) <= 10.0
        and cs[-1] <= cs[0]
        and worst_ue <= 0.05
        and elapsed < 300.0
    )
    _line(
        6,
        "sphere tightness",
        ok,
        f"edge c={c_edge:.2f}, hc factor/s^0.75 in [{min(cs):.2f},{max(cs):.2f}] decreasing, "
        f"ue gap {worst_ue:.4f}; {elapsed:.1f}s",
    )


def test_criterion_07_tensorization_limit():
    t0 = time.time()
    target = psi(4.0, 0.25).value
    gaps = [abs(tensor_ratio_log2(4, 1, 4.0, m) - target) for m in (8, 32, 128, 512)]
    elapsed = time.time() - t0
    ok = gaps[-1] <= 0.01 and all(a > b for a, b in zip(gaps, gaps[1:])) and elapsed < 60.0
    _line(
        7,
        "tensorization limit",
        ok,
        f"gaps {[f'{g:.4f}' for g in gaps]} at m=(8,32,128,512); {elapsed:.1f}s",
    )


def test_criterion_08_adjacent_pair_near_equality():
    t0 = time.time()
    ratios = [hanner_gap_kraw(n, n // 4, 4.0).log2_ratio_per_n for n in (64, 128, 256, 512)]
    elapsed = time.time() - t0
    ok = (
        all(r >= 0.0 for r in ratios)
        and all(a > b for a, b in zip(ratios, ratios[1:]))
        and elapsed < 60.0
    )
    _line(
        8,
        "triangle-type gap of the adjacent pair",
        ok,
        f"per-n ratios {[f'{r:.2e}' for r in ratios]} decreasing; {elapsed:.1f}s",
    )


def test_criterion_09_lp_mass_concentration():
    t0 = time.time()
    masses = {}
    for s in (512 // 8, 512 // 4):
        rec = lp_concentration(512, s, 4.0, 4.0)
        masses[s] = rec.mass_in_window
    elapsed = time.time() - t0
    ok = all(m >= 0.99 for m in masses.values()) and elapsed < 30.0
    _line(
        9,
        "norm mass concentration in the window",
        ok,
        f"masses {({k: round(v, 6) for k, v in masses.items()})}; {elapsed:.1f}s",
    )


def test_criterion_10_replay_determinism():
    t0 = time.time()
    ok = True
    details = []
    for name, kwargs in [
        ("pi-min", {}),
        ("ue-sphere-union", {}),
        ("extremal-search", {"grid": {"n": (8,), "p": (4.0,)}, "seed": 9, "budget": {"restarts": 30}}),
        ("degree-at-most", {"grid": {"n": (8,), "s": (2,), "p": (4.0,)}, "seed": 9, "budget": {"instances": 50}}),
    ]:
        a = json.dumps(run_suite(name, **kwargs).payload(), sort_keys=True)
        b = json.dumps(run_suite(name, **kwargs).payload(), sort_keys=True)
        same = a == b
        ok &= same
        details.append(f"{name} {'=' if same else '!='}")
    elapsed = time.time() - t0
    _line(10, "replay determinism", ok, f"{'; '.join(details)}; {elapsed:.1f}s")
