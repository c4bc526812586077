"""Bound evaluators against brute-force left-hand sides and the extremal
objects (Krawchouk rows, spheres, adjacent-sphere unions) that nearly
attain them. Tightness constants are measured and reported, not assumed."""

import math

import numpy as np
import pytest

from krawbound.bivariate import alpha_value, root_region_boundary, tau
from krawbound.bounds import (
    BoundReport,
    edge_iso_bound,
    hypercontractive_bound,
    make_report,
    moment_bound,
    moment_gap,
    projection_bound,
    set_noise_bound,
    support_projection_bound,
    tail_bound,
    ue_exponent,
)
from krawbound.cube import (
    CubeFunction,
    CubeSubset,
    apply_noise,
    inner_product,
    lp_norm,
    spectral_project,
    sphere_indicator,
    sphere_union_ue_log2,
)
from krawbound.krawchouk import kraw_table
from krawbound.numerics import (
    InputError,
    binary_entropy,
    inverse_entropy,
    log2_bigint,
    log_sum_exp2,
)


# ---------------------------------------------------------------- reports


def test_report_pass_flag():
    rep = make_report("demo", {"n": 4}, lhs_log2n=-1.0, rhs_log2n=-0.5, tol=1e-9)
    assert rep.passed and rep.margin == 0.5
    bad = make_report("demo", {}, lhs_log2n=0.0, rhs_log2n=-1.0)
    assert not bad.passed
    assert bad.to_dict()["pass"] is False


# ----------------------------------------------------------- moment bound


def test_moment_bound_p2_and_degree_zero():
    assert moment_bound(20, 5, 2) == 0.0
    assert moment_bound(20, 0, 4) == 0.0


def test_moment_bound_beats_hypercontractive_baseline():
    for p in (2.5, 3, 4, 6):
        for n, s in [(20, 3), (40, 10), (100, 37)]:
            ours = moment_bound(n, s, p)
            baseline = (p * s / 2.0) * math.log2(p - 1.0)
            assert ours < baseline - 1e-9


def test_moment_bound_domain():
    with pytest.raises(InputError):
        moment_bound(10, 6, 4)


def test_moment_gap_nonnegative_sampled():
    for n, s, p in [(16, 4, 3), (24, 6, 4), (40, 11, 2.5), (64, 20, 5), (128, 30, 4)]:
        rec = moment_gap(n, s, p)
        assert rec.gap_log2 >= -1e-9
        assert rec.fitted_c > 0


def test_moment_gap_example_4_2_4():
    rec = moment_gap(4, 2, 4)
    assert rec.kraw_log2 == pytest.approx(math.log2(14.0 / 3.0), abs=1e-12)


def test_moment_gap_p2_vanishes():
    rec = moment_gap(10, 3, 2)
    assert abs(rec.gap_log2) < 1e-12
    assert rec.bound_log2 == 0.0


# ------------------------------------------------------------- tail bound


def test_tail_halfway_point():
    rec = tail_bound(100, 20, 50)
    assert rec.threshold_exponent == pytest.approx(0.0, abs=1e-12)
    assert rec.prob_exponent == pytest.approx(0.0, abs=1e-12)


def test_tail_at_zero_distance():
    rec = tail_bound(100, 20, 0)
    assert rec.threshold_exponent == pytest.approx(binary_entropy(0.2) / 2, abs=1e-12)
    assert rec.prob_exponent == -1.0


def test_tail_markov_branch_formula():
    n, s = 200, 30
    istar = n * root_region_boundary(s / n)
    for i in range(int(istar) + 1, n // 2 + 1):
        rec = tail_bound(n, s, i)
        assert rec.threshold_exponent == pytest.approx(
            (1.0 - binary_entropy(i / n)) / 2.0, abs=1e-12
        )


def test_tail_branch_continuity():
    n, s = 240, 40
    x = s / n
    ystar = root_region_boundary(s / n)
    below = tau(x, ystar - 1e-9) - binary_entropy(x) / 2
    above = tau(x, ystar + 1e-9) - binary_entropy(x) / 2
    assert abs(below - above) < 1e-8


def test_tail_bound_dominates_exact_krawchouk_tail():
    n, s, i = 256, 64, 20
    rec = tail_bound(n, s, i)
    K = kraw_table(n, s).values
    log2_threshold = 0.5 * log2_bigint(math.comb(n, s)) + rec.threshold_exponent * n
    terms = [
        log2_bigint(math.comb(n, w)) - n
        for w in range(n + 1)
        if K[w] != 0 and log2_bigint(abs(K[w])) >= log2_threshold
    ]
    acc = log_sum_exp2(terms)
    assert acc > -math.inf
    margin = rec.prob_exponent * n - acc
    assert margin >= -1e-9
    # statement loses a polynomial factor only; a few bits at this size
    assert margin < 12.0


def test_tail_domain():
    with pytest.raises(InputError):
        tail_bound(100, 60, 10)
    with pytest.raises(InputError):
        tail_bound(100, 20, 60)


# -------------------------------------------------------------- edge iso


def test_edge_iso_kleitman_west_chain():
    # at i = 2 the bound 2^{s H(1/s) + (n-s) H(1/(n-s))} sits below e^2 s(n-s)
    for n, s in [(12, 3), (30, 9), (64, 20), (200, 55)]:
        full_log2 = edge_iso_bound(n, s / n, 2) * n
        assert 2.0**full_log2 <= math.e**2 * s * (n - s) + 1e-9


def test_edge_iso_sphere_even_distances():
    n, s = 40, 8
    sigma = s / n
    worst_c = 0.0
    for j in range(1, s + 1):
        i = 2 * j
        if i > 2 * sigma * (1 - sigma) * n:
            break
        actual_log2 = math.log2(math.comb(s, j) * math.comb(n - s, j))
        bound_log2 = edge_iso_bound(n, sigma, i) * n
        assert bound_log2 - actual_log2 >= -1e-9
        worst_c = max(worst_c, 2.0 ** (bound_log2 - actual_log2) / i)
    print(f"\nedge-iso sphere overshoot <= {worst_c:.3f} * i at n={n}, s={s}")
    assert worst_c < 10.0


def test_edge_iso_range_error():
    with pytest.raises(InputError):
        edge_iso_bound(40, 0.2, 20)
    with pytest.raises(InputError):
        edge_iso_bound(40, 0.2, 0)


# ------------------------------------------------------- hypercontractive


def test_hc_bound_zero_at_zero_ratio():
    for eps in (0.05, 0.2, 0.45):
        p = 1 + (1 - 2 * eps) ** 2
        assert hypercontractive_bound(0.0, eps, p) == 0.0


def test_hc_bound_nonpositive():
    for eps in (0.1, 0.3):
        p = 1 + (1 - 2 * eps) ** 2
        rmax = (p - 1) / p
        for f in (0.1, 0.5, 0.9):
            assert hypercontractive_bound(f * rmax, eps, p) <= 1e-12


def test_hc_bound_sphere_brute_force():
    n, s, eps = 16, 4, 0.15
    p = 1 + (1 - 2 * eps) ** 2
    _, ind = sphere_indicator(n, s)
    r_p = (math.log2(lp_norm(ind, p)) - math.log2(lp_norm(ind, 1))) / n
    bound = hypercontractive_bound(r_p, eps, p)
    lhs = math.log2(lp_norm(apply_noise(ind, eps), 2))
    rhs = bound * n + math.log2(lp_norm(ind, p))
    assert rhs - lhs >= -1e-10
    c = 2.0 ** (rhs - lhs) / s**0.75
    print(f"\nhc sphere gap factor = {c:.3f} * s^(3/4) at n={n}, s={s}, eps={eps}")
    assert c < 10.0


# ---------------------------------------------------------- set noise


def test_set_noise_full_support_and_signs():
    assert abs(set_noise_bound(0.5, 0.23)) < 1e-9
    for sigma in (0.05, 0.2, 0.4, 0.5):
        for eps in (0.0, 0.1, 0.3, 0.5):
            assert set_noise_bound(sigma, eps) <= 1e-9


def test_set_noise_random_subsets_brute_force():
    rng = np.random.default_rng(77)
    n = 14
    worst = math.inf
    for _ in range(1000):
        sigma = rng.uniform(0.05, 0.5)
        cap = int(2 ** (binary_entropy(sigma) * n))
        size = int(rng.integers(1, max(2, cap)))
        idx = rng.choice(1 << n, size=size, replace=False)
        A = CubeSubset.from_indices(n, idx.tolist())
        f = A.indicator()
        eps = float(rng.uniform(0.0, 0.5))
        lhs = inner_product(apply_noise(f, eps), f)
        rhs_log2 = set_noise_bound(sigma, eps) * n + 2 * math.log2(lp_norm(f, 2))
        worst = min(worst, rhs_log2 - math.log2(lhs))
    assert worst >= -1e-9


# ------------------------------------------------------------- projection


def test_projection_zero_branch():
    r2 = 0.2
    sigma = inverse_entropy(1 - 2 * r2)
    n = 100
    k = int((0.5 - math.sqrt(sigma * (1 - sigma))) * n) + 2
    assert projection_bound(n, k, 2, r2) == 0.0


def test_projection_sphere_brute_force():
    n, s = 16, 3
    _, ind = sphere_indicator(n, s)
    r2 = (math.log2(lp_norm(ind, 2)) - math.log2(lp_norm(ind, 1))) / n
    kcap = n / 2 - math.sqrt(s * (n - s))
    worst_c = 0.0
    for k in range(n + 1):
        bound = projection_bound(n, k, 2, r2)
        lhs = lp_norm(spectral_project(ind, k), 2)
        rhs_log2 = bound * n + math.log2(lp_norm(ind, 2))
        if lhs > 0:
            margin = rhs_log2 - math.log2(lhs)
            assert margin >= -1e-9
            if 1 <= k <= kcap:
                worst_c = max(worst_c, 2.0**margin / (k * s) ** 0.25)
    print(f"\nmax-projection gap factor = {worst_c:.3f} * (ks)^(1/4) at n={n}, s={s}")
    assert worst_c < 10.0


def test_projection_supported_sets_brute_force():
    rng = np.random.default_rng(88)
    for n in (8, 10, 12):
        for _ in range(40):
            sigma = float(rng.uniform(0.08, 0.5))
            cap = max(1, int(2 ** (binary_entropy(sigma) * n)))
            size = int(rng.integers(1, cap + 1))
            idx = rng.choice(1 << n, size=size, replace=False)
            vals = np.zeros(1 << n)
            vals[idx] = rng.standard_normal(size)
            f = CubeFunction.from_points(n, vals)
            norm2 = lp_norm(f, 2)
            for k in range(n + 1):
                lhs = lp_norm(spectral_project(f, k), 2)
                if lhs == 0.0:
                    continue
                rhs_log2 = support_projection_bound(sigma, k / n) * n + math.log2(norm2)
                assert rhs_log2 - math.log2(lhs) >= -1e-9


def test_projection_domain():
    with pytest.raises(InputError):
        projection_bound(10, 3, 1.5, 0.1)
    with pytest.raises(InputError):
        projection_bound(10, 3, 2, 0.6)


# ------------------------------------------------------------ ue exponent


def test_ue_exponent_rate_one():
    assert abs(ue_exponent(1.0, 0.17)) < 1e-12


def test_ue_exponent_matches_grid_max():
    R, eps = 0.5, 0.1
    sigma = inverse_entropy(R)
    xs = np.linspace(0.0, sigma, 100001)
    grid = max(alpha_value(sigma, eps, float(x)) for x in xs)
    assert abs(ue_exponent(R, eps) - grid) < 1e-8


def test_ue_exponent_near_sphere_union():
    n, eps = 200, 0.1
    sigma = inverse_entropy(0.5)
    s = round(sigma * n)
    R_eff = binary_entropy(s / n)
    brute = sphere_union_ue_log2(n - 1, s, eps) / n
    assert abs(brute - ue_exponent(R_eff, eps)) <= 0.05


def test_ue_exponent_domain():
    with pytest.raises(InputError):
        ue_exponent(0.0, 0.1)
    with pytest.raises(InputError):
        ue_exponent(0.5, 0.0)
