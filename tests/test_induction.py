"""Hanner functional and the dimension-step identities, validated against
closed forms, exact moment computations, and the tensorization limit."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawbound.bivariate import psi, ratio_r
from krawbound.induction import (
    big_P,
    cap_F,
    der_zer_residual,
    hanner_gap_kraw,
    induction_params,
    recursion_residual,
    tensor_ratio_log2,
)
from krawbound.numerics import InputError


# --------------------------------------------------------------------- P


def test_big_p_at_zero_and_one():
    for p in (2, 3, 4.5, 7):
        assert big_P(0.0, p) == 1.0
        assert big_P(1.0, p) == pytest.approx(2.0 ** (p - 1.0), rel=1e-14)


def test_big_p_four_four():
    assert big_P(4.0, 4.0) == 41.0


def test_big_p_increasing():
    for p in (2, 3.5, 6):
        zs = [0.01 * k for k in range(500)]
        vals = [big_P(z, p) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_big_p_domain():
    with pytest.raises(InputError):
        big_P(-0.1, 3)
    with pytest.raises(InputError):
        big_P(1.0, 1.5)


# --------------------------------------------------------------------- F


def test_cap_f_degenerate_arguments():
    assert cap_F(2.5, 0.0, 4) == 2.5
    assert cap_F(0.0, 1.5, 4) == 1.5


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=2.0, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_cap_f_dominates_both_arguments(x, y, p):
    assert cap_F(x, y, p) >= max(x, y) - 1e-10 * max(x, y)


@given(
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=2.0, max_value=6.0),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=60, deadline=None)
def test_cap_f_one_homogeneous(x, y, p, lam):
    lhs = cap_F(lam * x, lam * y, p)
    rhs = lam * cap_F(x, y, p)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_cap_f_monotone_by_perturbation():
    for x, y, p in [(2.0, 1.0, 4), (0.5, 3.0, 3), (5.0, 5.0, 2.5)]:
        base = cap_F(x, y, p)
        assert cap_F(x * 1.01, y, p) >= base - 1e-12
        assert cap_F(x, y * 1.01, p) >= base - 1e-12


def test_cap_f_matches_phi_at_64_16_4():
    par = induction_params(64, 16, 4)
    F = cap_F(par.rho ** (4 / 2), 1.0, 4)
    assert abs(F / par.phi_big - 1.0) < 1e-9


def test_cap_f_large_ratio_stationary_point():
    # the residual's terms reach 1e5-1e7 at p = 50 and 1e12-5e14 at p = 100;
    # the stationary point comes from bisection on its sign, and the value
    # matches a 20,001-point scan
    for x, p in [(10.0, 50), (1e3, 50), (1e6, 50),
                 (1.1, 100), (2.0, 100), (10.0, 100), (100.0, 100), (1e6, 100)]:
        rho = x ** (2.0 / p)
        scan = max(
            big_P(rho * b, p) / (b + 1.0) ** (p / 2.0)
            for b in (k * 5e-4 for k in range(20001))
        )
        F = cap_F(x, 1.0, p)
        assert scan <= F <= scan * (1.0 + 1e-6)


def test_cap_f_domain():
    with pytest.raises(InputError):
        cap_F(-1.0, 1.0, 4)
    with pytest.raises(InputError):
        cap_F(1.0, 1.0, 1.2)


# -------------------------------------------------------- induction params


def test_params_rho_strictly_between_bounds():
    for n, s, p in [(64, 16, 4), (128, 20, 3), (256, 100, 2.5), (100, 20, 6)]:
        par = induction_params(n, s, p)
        assert 1.0 < par.rho < p - 1.0
        assert not par.rho_at_boundary


def test_params_quadratic_root():
    par = induction_params(96, 30, 3.5)
    resid = (96 - 30) * par.t**2 - (96 - 2 * par.i0) * par.t + 30
    assert abs(resid) < 1e-10 * 96


def test_params_u_star_stationarity():
    for n, s, p in [(64, 16, 4), (200, 60, 3), (512, 100, 6)]:
        par = induction_params(n, s, p)
        assert par.u_star == pytest.approx(s / (par.rho * n), rel=1e-14)
        assert abs(der_zer_residual(par.u_star, par.rho, p)) < 1e-8


def test_params_p2_boundary_flagged():
    # rho = 1 exactly at p = 2; (n, 3n/8) is where the computed discriminant
    # used to come out a rounding error above 0
    for n, s in [(64, 16), (64, 24), (512, 192), (100, 7)]:
        par = induction_params(n, s, 2)
        assert par.rho == pytest.approx(1.0, abs=1e-12)
        assert par.rho_at_boundary
        assert par.phi_big == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n,s,p", [(8, 3, 40), (16, 7, 40), (256, 127, 10), (1024, 511, 10), (2048, 1023, 40)]
)
def test_params_near_half_with_large_p(n, s, p):
    # i0/n lies between 1e-121 and 1e-24 here
    par = induction_params(n, s, p)
    assert all(math.isfinite(v) for v in (par.i0, par.t, par.rho, par.phi_big, par.u_star))
    ref = (par.i0 / (n - par.i0)) ** (1.0 / p)
    assert abs(ratio_r(s / n, par.i0 / n) - ref) <= 1e-12 * ref


def test_params_phi_beyond_separate_powers():
    # (s/n)^{p/2} and (1 + (n-s)/s t)^p alone leave the float range here,
    # their product Phi ~ 2^520 does not
    par = induction_params(10, 3, 600)
    assert math.isfinite(par.phi_big)
    ref = math.log2(10 / (2 * (10 - par.i0))) + 300 * math.log2(0.3) + 600 * math.log2(
        1 + 7 / 3 * par.t
    )
    assert math.log2(par.phi_big) == pytest.approx(ref, rel=1e-12)


def test_params_domain():
    with pytest.raises(InputError):
        induction_params(64, 0, 4)
    with pytest.raises(InputError):
        induction_params(64, 32, 4)
    # i0/n underflows to 0 in the first two, Phi overflows in the third
    for n, s, p in [(512, 255, 200), (10, 3, 1e6), (1000, 1, 300)]:
        with pytest.raises(InputError, match="float range"):
            induction_params(n, s, p)


@pytest.mark.parametrize("n", [32, 64, 128])
@pytest.mark.parametrize("p", [2.5, 3, 4, 6])
def test_phi_equals_f_on_grid(n, p):
    for s in (n // 8, n // 4, 3 * n // 8):
        par = induction_params(n, s, p)
        F = cap_F(par.rho ** (p / 2), 1.0, p)
        assert abs(F / par.phi_big - 1.0) < 1e-9


# ------------------------------------------------------------------ hanner


def test_hanner_p2_parallelogram():
    rec = hanner_gap_kraw(128, 32, 2)
    assert abs(rec.log2_ratio_per_n) < 1e-12


def test_hanner_inequality_direction():
    for n, s, p in [(64, 10, 3), (128, 32, 4), (256, 64, 4), (100, 50, 2.5)]:
        rec = hanner_gap_kraw(n, s, p)
        assert rec.rhs_log2 - rec.lhs_log2 >= -1e-12 * max(1.0, abs(rec.lhs_log2))


def test_hanner_near_equality_improves_with_n():
    small = hanner_gap_kraw(128, 32, 4)
    large = hanner_gap_kraw(256, 64, 4)
    assert 0 <= large.log2_ratio_per_n < small.log2_ratio_per_n
    print(
        f"\nhanner log2-ratio per n: {small.log2_ratio_per_n:.3e} (n=128) -> "
        f"{large.log2_ratio_per_n:.3e} (n=256)"
    )


def test_hanner_large_n_log_domain():
    rec = hanner_gap_kraw(10000, 2500, 4)
    assert rec.log2_ratio_per_n >= 0
    assert rec.log2_ratio_per_n < 1e-6


# --------------------------------------------------------------- recursion


def test_recursion_residual_trend():
    r512 = recursion_residual(512, 128, 4)
    r1024 = recursion_residual(1024, 256, 4)
    assert r1024.residual < r512.residual
    assert r1024.rho_residual < r512.rho_residual
    assert r512.residual < r512.eps_scale
    assert not r512.outside_asymptotic_range
    print(
        f"\nrecursion residuals: {r512.residual:.4f} (n=512) -> "
        f"{r1024.residual:.4f} (n=1024), scale {r512.eps_scale:.3f}"
    )


def test_recursion_p2_exact():
    rec = recursion_residual(256, 64, 2)
    assert rec.residual < 1e-10
    assert rec.rho_residual < 1e-10


def test_recursion_flags_small_s():
    rec = recursion_residual(256, 10, 4)
    assert rec.outside_asymptotic_range


# ----------------------------------------------------------- tensorization


def test_tensorization_converges_to_psi():
    target = psi(4, 0.25).value
    gaps = []
    for m in (8, 16, 32, 64, 128, 256, 512):
        gaps.append(abs(tensor_ratio_log2(4, 1, 4, m) - target))
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.01
