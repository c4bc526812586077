"""Bivariate exponent family: closed forms against quadrature and grid oracles."""

import importlib.util
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from krawbound import bivariate as bv
from krawbound import numerics, verify
from krawbound.numerics import InputError, binary_entropy, inverse_entropy

H = binary_entropy


# ---------------------------------------------------------------- ratio_r


def test_ratio_r_at_zero_point():
    for x in [0.0, 0.1, 0.25, 0.4, 0.5]:
        assert bv.ratio_r(x, 0.0) == pytest.approx(1.0 - 2.0 * x, abs=1e-15)


def test_ratio_r_degree_zero():
    for y in [0.0, 0.1, 0.3, 0.5]:
        assert bv.ratio_r(0.0, y) == pytest.approx(1.0, abs=1e-14)


def test_ratio_r_value():
    import mpmath

    mpmath.mp.dps = 40
    x, y = mpmath.mpf("0.1"), mpmath.mpf("0.2")
    a = 1 - 2 * x
    ref = (a + mpmath.sqrt(a**2 - 4 * y * (1 - y))) / (2 * (1 - y))
    assert bv.ratio_r(0.1, 0.2) == pytest.approx(float(ref), rel=1e-14)


def _ratio_r_mp(x, y):
    """r(x, y) by its defining formula in 60-digit mpmath."""
    import mpmath

    with mpmath.workdps(60):
        x, y = mpmath.mpf(x), mpmath.mpf(y)
        a = 1 - 2 * x
        return (a + mpmath.sqrt(a * a - 4 * y * (1 - y))) / (2 * (1 - y))


def test_ratio_r_tiny_degree_near_half_against_mpmath():
    # 1 - 2x rounds to 1, so (1-2x)^2 - 4y(1-y) taken by subtraction loses x
    x, y = 1e-17, 0.4999999
    assert bv.ratio_r(x, y) == pytest.approx(float(_ratio_r_mp(x, y)), rel=1e-15, abs=0.0)


def test_ratio_r_near_boundary_against_mpmath():
    # 2,000 root-region points: t log-uniform in [1e-17, 1/2], u within a
    # relative 1e-9..1 below the boundary, taken as (t, u) and as (u, t)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        t = float(10.0 ** rng.uniform(-17.0, math.log10(0.5)))
        u = bv.root_region_boundary(t) * (1.0 - float(10.0 ** rng.uniform(-9.0, 0.0)))
        for x, y in ((t, u), (u, t)):
            ref = _ratio_r_mp(x, y)
            worst = max(worst, float(abs(bv.ratio_r(x, y) - ref) / ref))
    assert worst <= 1e-10


def test_ratio_r_decreasing_in_y():
    x = 0.12
    yb = bv.root_region_boundary(x)
    vals = [bv.ratio_r(x, yb * k / 60.0) for k in range(61)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 - 2.0 * x + 1e-15 for v in vals)


def test_ratio_r_domain_error():
    with pytest.raises(InputError):
        bv.ratio_r(0.2, bv.root_region_boundary(0.2) + 1e-3)
    with pytest.raises(InputError):
        bv.ratio_r(0.7, 0.1)


# ---------------------------------------------------------------- exponent_I


def test_exponent_i_anchors():
    for x in [0.0, 0.05, 0.2, 0.5]:
        assert bv.exponent_I(x, 0.0) == -1.0
    for y in [0.0, 0.1, 0.3, 0.5]:
        assert bv.exponent_I(0.0, y) == -1.0


def test_exponent_i_matches_quadrature():
    # the argument-order disambiguation oracle: the closed form must satisfy
    # exponent_I(x, y) = -1 + integral_0^y log2 r(x, z) dz with x the degree
    # ratio in r's first slot
    cases = [(0.1, 0.05), (0.2, 0.09), (0.3, 0.03), (0.45, 0.002), (0.05, 0.25)]
    for x, y in cases:
        assert y <= bv.root_region_boundary(x)
        val, err = quad(lambda z: math.log2(bv.ratio_r(x, z)), 0.0, y, limit=200)
        assert err < 1e-9
        assert bv.exponent_I(x, y) == pytest.approx(val - 1.0, abs=1e-7)


def test_exponent_i_zero_limit_richardson():
    # the -1 value at y = 0 is a continuity extension; assert the limit by
    # offset evaluation at y = h, 2h and Richardson extrapolation (the
    # integrand is bounded, so exponent_I(x, h) = -1 + c h + O(h^2))
    for x in [0.1, 0.3, 0.49]:
        h = 1e-9
        e1 = bv.exponent_I(x, h)
        e2 = bv.exponent_I(x, 2.0 * h)
        assert 2.0 * e1 - e2 == pytest.approx(-1.0, abs=1e-12)


def test_exponent_i_boundary_limit():
    # closed form stays regular as y approaches the root-region boundary:
    # offset evaluation extrapolates to the boundary value
    for x in [0.1, 0.25]:
        yb = bv.root_region_boundary(x)
        at = bv.exponent_I(x, yb)
        h = 1e-7
        e1 = bv.exponent_I(x, yb - h)
        e2 = bv.exponent_I(x, yb - 2.0 * h)
        assert 2.0 * e1 - e2 == pytest.approx(at, abs=1e-6)
        assert math.isfinite(at)


def _exponent_i_mp(x, y):
    """exponent_I(x, y) = I(y, x) - I(0, x) - 1 with I the closed form exactly
    as written, 1-2u-b and 2(1-u) - a^2 - ab by subtraction, in mpmath with
    50 digits beyond the ~-log10(x) + 20 that those differences cancel."""
    import mpmath

    with mpmath.workdps(70 - int(math.log10(x))):
        v = mpmath.mpf(x)
        a = 1 - 2 * v

        def closed(u):
            b = mpmath.sqrt(a * a - 4 * u * (1 - u))
            t3 = u * mpmath.log((a + b) / (2 * (1 - u)), 2) if u > 0 else 0
            return (
                mpmath.log(1 - u, 2) + a / 2 * mpmath.log(1 - 2 * u - b, 2) + t3
                - mpmath.log(2 * (1 - u) - a * a - a * b, 2) / 2
            )

        return closed(mpmath.mpf(y)) - closed(mpmath.mpf(0)) - 1


@pytest.mark.parametrize("y", [1e-300, 0.01, 0.25, 0.4, 0.4999999])
@pytest.mark.parametrize("x", [1e-17, 1e-20, 1e-300])
def test_tiny_degree_ratio_against_mpmath(x, y):
    # a = 1 - 2x rounds to 1, where 1-2u-b and 2(1-u) - a^2 - ab taken by
    # subtraction cancel to 0 or below and log2 raised a bare ValueError
    ref = _exponent_i_mp(x, y)
    assert y < bv.root_region_boundary(x)
    assert bv.exponent_I(x, y) == pytest.approx(float(ref), abs=1e-12)
    assert bv.tau(x, y) == pytest.approx(float(H(x) + ref + 1), abs=1e-12)
    pi_ref = ref + 1 + (H(x) + H(y) - 1) / 2
    assert bv.pi_fn(x, y) == pytest.approx(float(pi_ref), abs=1e-12)


def test_exponent_i_domain_error():
    with pytest.raises(InputError):
        bv.exponent_I(0.2, 0.4)
    with pytest.raises(InputError):
        bv.exponent_I(-0.1, 0.1)


# ---------------------------------------------------------------- tau


def test_tau_endpoints():
    for x in [0.0, 0.07, 0.3, 0.5]:
        assert bv.tau(x, 0.0) == pytest.approx(H(x), abs=1e-14)
        assert bv.tau(x, 0.5) == pytest.approx(H(x) / 2.0, abs=1e-12)


def test_tau_seam_continuity():
    for x in [0.05, 0.15, 0.3, 0.45]:
        yb = bv.root_region_boundary(x)
        lo = bv.tau(x, yb - 1e-9)
        hi = bv.tau(x, yb + 1e-9)
        assert lo == pytest.approx(hi, abs=1e-8)


def test_tau_symmetry_grid():
    # H(y) + tau(x,y) = H(x) + tau(y,x) on a 50x50 grid with open margins
    worst = 0.0
    for i in range(50):
        x = 1e-3 + (0.5 - 2e-3) * i / 49.0
        for j in range(50):
            y = 1e-3 + (0.5 - 2e-3) * j / 49.0
            d = abs(H(y) + bv.tau(x, y) - H(x) - bv.tau(y, x))
            worst = max(worst, d)
    assert worst <= 1e-8


def test_tau_decreasing_in_y():
    for x in [0.05, 0.2, 0.4]:
        vals = [bv.tau(x, 0.5 * k / 200.0) for k in range(201)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tau_derivative_inside_root_region():
    # d tau / dy = log2 r(x, y) strictly inside the root region
    for x, y in [(0.1, 0.05), (0.2, 0.06), (0.3, 0.02)]:
        h = 1e-6
        fd = (bv.tau(x, y + h) - bv.tau(x, y - h)) / (2.0 * h)
        assert fd == pytest.approx(math.log2(bv.ratio_r(x, y)), abs=1e-5)


def test_tau_derivative_outside_root_region():
    # there tau = (1 + H(x) - H(y))/2, so d tau / dy = (1/2) log2(y/(1-y))
    for x, y in [(0.3, 0.2), (0.45, 0.3), (0.2, 0.35)]:
        assert y > bv.root_region_boundary(x)
        h = 1e-6
        fd = (bv.tau(x, y + h) - bv.tau(x, y - h)) / (2.0 * h)
        assert fd == pytest.approx(0.5 * math.log2(y / (1.0 - y)), abs=1e-5)


def test_tau_domain_error():
    with pytest.raises(InputError):
        bv.tau(0.6, 0.1)
    with pytest.raises(InputError):
        bv.tau(0.1, 0.55)


# ---------------------------------------------------------------- h, g


def test_little_h_p2_closed_form():
    for x in [0.0, 0.1, 0.3, 0.5]:
        assert bv.little_h(2.0, x) == pytest.approx(
            2.0 * math.sqrt(x * (1.0 - x)), abs=1e-14
        )


def test_little_h_monotone_and_endpoints():
    for p in [2.0, 3.0, 4.5, 8.0]:
        assert bv.little_h(p, 0.0) == 0.0
        assert bv.little_h(p, 0.5) == pytest.approx(1.0, abs=1e-14)
        vals = [bv.little_h(p, 0.5 * k / 300.0) for k in range(301)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_little_h4_value():
    import mpmath

    mpmath.mp.dps = 40
    x = mpmath.mpf("0.1")
    ref = x ** (1 / mpmath.mpf(4)) * (1 - x) ** (3 / mpmath.mpf(4)) + x ** (
        3 / mpmath.mpf(4)
    ) * (1 - x) ** (1 / mpmath.mpf(4))
    assert bv.little_h(4.0, 0.1) == pytest.approx(float(ref), rel=1e-14)


def test_h_g_domain_errors():
    with pytest.raises(InputError):
        bv.little_h(1.5, 0.2)
    # a NaN p fails every comparison, so each gate must be written to refuse it
    with pytest.raises(InputError):
        bv.little_h(math.nan, 0.2)
    with pytest.raises(InputError):
        bv.solve_h_inverse(math.nan, 0.5)


# ---------------------------------------------------------------- solvers


@given(p=st.floats(2.0, 10.0), target=st.floats(0.0, 1.0))
def test_solve_h_inverse_residual(p, target):
    y = bv.solve_h_inverse(p, target)
    assert 0.0 <= y <= 0.5
    assert abs(bv.little_h(p, y) - target) <= 1e-12


@given(p=st.floats(2.0, 10.0), x=st.floats(0.0, 0.5))
def test_solve_a_inverse_residual(p, x):
    d = bv.solve_a_inverse(p, x)
    assert 0.0 <= d <= 0.5
    assert abs(bv.a_fn(p, d) - x) <= 1e-12


def test_solver_boundaries():
    for p in [2.0, 3.0, 6.0]:
        assert bv.solve_h_inverse(p, 1.0) == 0.5
        assert bv.solve_h_inverse(p, 0.0) == 0.0
        assert bv.solve_a_inverse(p, 0.5) == 0.0
        assert bv.solve_a_inverse(p, 0.0) == 0.5
        assert bv.a_fn(p, 0.0) == pytest.approx(0.5, abs=1e-14)
        assert bv.a_fn(p, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_a_fn_strictly_decreasing():
    for p in [2.0, 2.5, 4.0, 8.0]:
        vals = [bv.a_fn(p, 0.5 * k / 1000.0) for k in range(1001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_h_inverse_lands_inside_root_region():
    # for p > 2, the solution of h(p,y) = 1-2x lies strictly below the
    # root-region boundary 1/2 - sqrt(x(1-x))
    for p in [2.5, 4.0, 8.0]:
        for k in range(1, 50):
            x = 0.5 * k / 50.0
            y = bv.solve_h_inverse(p, 1.0 - 2.0 * x)
            assert y < bv.root_region_boundary(x)


# ---------------------------------------------------------------- psi


def test_psi_zero_lines():
    for p in [2.0, 3.0, 5.5, 9.0]:
        assert abs(bv.psi(p, 0.0).value) <= 1e-10
    for x in [0.0, 0.1, 0.3, 0.5]:
        assert abs(bv.psi(2.0, x).value) <= 1e-10


def test_psi_at_half():
    for p in [2.0, 3.0, 4.0, 7.5]:
        ev = bv.psi(p, 0.5)
        assert ev.value == pytest.approx((p - 2.0) / 2.0, abs=1e-12)


def test_psi_representations_agree():
    for i in range(21):
        p = 2.0 + 4.0 * i / 20.0
        for j in range(21):
            x = 0.5 * j / 20.0
            ev = bv.psi(p, x)
            assert abs(ev.value - ev.second_value) <= 1e-9


def test_psi_slope_at_zero():
    # forward difference at step 1e-6 against the exact slope (p/2) log2(p-1)
    for p in [2.5, 3.0, 4.0, 6.0]:
        slope = bv.psi(p, 1e-6).value / 1e-6
        assert slope == pytest.approx(0.5 * p * math.log2(p - 1.0), abs=1e-3)


def test_psi_below_linear_envelope():
    for p in [2.0, 3.0, 5.0]:
        for x in [0.05, 0.2, 0.35, 0.5]:
            env = 0.5 * p * math.log2(p - 1.0) * x
            val = bv.psi(p, x).value
            assert val <= env + 1e-12
            if p > 2.0 and x > 0.0:
                assert val < env


def test_psi_convex_increasing_in_p():
    # second differences >= -1e-8 and first differences >= 0 on p in [2, 10]
    for x in [0.1, 0.3, 0.5]:
        ps = [2.0 + 0.1 * k for k in range(81)]
        vals = [bv.psi(p, x).value for p in ps]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        second = [vals[k + 1] - 2 * vals[k] + vals[k - 1] for k in range(1, len(vals) - 1)]
        assert all(d >= -1e-8 for d in second)


def test_psi_concave_increasing_in_x():
    for p in [2.5, 4.0, 8.0]:
        xs = [0.5 * k / 100.0 for k in range(101)]
        vals = [bv.psi(p, x).value for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        second = [vals[k + 1] - 2 * vals[k] + vals[k - 1] for k in range(1, len(vals) - 1)]
        assert all(d <= 1e-8 for d in second)


def test_psi_bridge_identities():
    # the delta parametrization links the two representations: psi takes
    # y = d^p / ((1-d)^p + d^p), and r(x, y) = d/(1-d)
    for p, x in [(2.5, 0.1), (3.5, 0.22), (4.0, 0.3), (6.0, 0.45)]:
        ev = bv.psi(p, x)
        d = ev.delta_aux
        assert bv.ratio_r(x, ev.y_aux) == pytest.approx(d / (1.0 - d), abs=1e-9)
        p_back = math.log2(ev.y_aux / (1.0 - ev.y_aux)) / math.log2(d / (1.0 - d))
        assert p_back == pytest.approx(p, abs=1e-7)


@given(p=st.floats(2.0, 10.0), x=st.floats(0.0, 0.5))
@example(p=2.0, x=0.499999999)
@example(p=2.0, x=0.5 - 1e-12)
@example(p=2.0 + 1e-9, x=1e-16)
@example(p=2.0 + 1e-9, x=0.5 - 1e-12)
@example(p=3.0, x=1e-300)
@example(p=10.0, x=1e-16)
@example(p=10.0, x=0.5 - 1e-12)
def test_psi_y_aux_solves_h(p, x):
    # y comes from delta in closed form, so check to first order that it
    # solves its own equation h(p, y) = 1 - 2x
    ev = bv.psi(p, x)
    assert abs(bv.little_h(p, ev.y_aux) - (1.0 - 2.0 * x)) <= 1e-12


def _psi_mp(p, x):
    """psi(p, x) by the second representation in 50-digit mpmath, with
    a(p, delta) = x solved by 200 halvings of [0, 1/2]."""
    import mpmath

    with mpmath.workdps(50):
        p, x = mpmath.mpf(p), mpmath.mpf(x)

        def a(d):
            return (0.5 - d) * ((1 - d) ** (p - 1) - d ** (p - 1)) / ((1 - d) ** p + d**p)

        lo, hi = mpmath.mpf(0), mpmath.mpf(0.5)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if a(mid) > x else (lo, mid)
        d = (lo + hi) / 2
        hx = -x * mpmath.log(x, 2) - (1 - x) * mpmath.log(1 - x, 2)
        return (p - 1) + mpmath.log((1 - d) ** p + d**p, 2) - p / 2 * hx - p * x * mpmath.log(1 - 2 * d, 2)


@pytest.mark.parametrize("p", [2.0 + 1e-9, 2.1, 2.5, 3.0, 10.0, 50.0, 100.0])
def test_psi_both_representations_against_mpmath(p):
    xs = [1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.25, 0.4, 0.49, 0.5 - 1e-6, 0.5 - 1e-12]
    for x in xs:
        ref = float(_psi_mp(p, x))
        ev = bv.psi(p, x)
        tol = 1e-12 * max(1.0, abs(ref))
        assert abs(ev.value - ref) <= tol, (x, ev.value, ref)
        assert abs(ev.second_value - ref) <= tol, (x, ev.second_value, ref)


@pytest.mark.parametrize("p", [50.0, 100.0])
@pytest.mark.parametrize("x", [0.499999, 0.499999999])
def test_psi_finite_where_y_aux_underflows(p, x):
    # delta^p underflows, so y_aux reads 0 where the true y (about 1e-570 at
    # p = 100, x = 0.499999) is no float; psi's two values stay finite and agree
    ev = bv.psi(p, x)
    assert math.isfinite(ev.value) and math.isfinite(ev.second_value)
    assert abs(ev.value - ev.second_value) <= 1e-9


@pytest.mark.parametrize("p", [1050.0, 2000.0, 1e4, 1e6])
def test_psi_large_p_against_mpmath(p):
    # past p = 1022, (1 - delta)^p leaves the floats; the t = 1/2 - delta
    # form divides both powers by it
    for x in [1e-4, 0.01, 0.1, 0.4, 0.49]:
        ref = float(_psi_mp(p, x))
        ev = bv.psi(p, x)
        assert ev.value == pytest.approx(ref, rel=1e-11, abs=0.0), (x, ev.value, ref)
        assert ev.second_value == pytest.approx(ref, rel=1e-11, abs=0.0), (x, ev.second_value, ref)


@pytest.mark.parametrize("p", [1.5e6, 1e9])
def test_psi_refuses_p_above_the_cap(p):
    # psi grows like p and so does its float error, which past 10^6 nears the
    # fixed 1e-6 gate between the two representations
    with pytest.raises(InputError, match="1e6"):
        bv.psi(p, 0.3)


def test_a_fn_and_solve_take_any_finite_p():
    for p in (2000.0, 1e300):
        for x in (1e-300, 1e-6, 0.3, 0.49):
            d = bv.solve_a_inverse(p, x)
            assert 0.0 <= d <= 0.5 and math.isfinite(bv.a_fn(p, d))
    for p in (math.inf, math.nan):
        for f in (bv.a_fn, bv.solve_a_inverse):
            with pytest.raises(InputError, match="finite p"):
                f(p, 0.3)


@pytest.mark.parametrize("p", [1010.0, 1022.0])
@pytest.mark.parametrize("x", [5e-324, 1e-320, 1e-315])
def test_psi_near_the_old_cap_at_subnormal_x(p, x):
    # a's numerator (1-d)^(p-1) - d^(p-1) fell into the subnormals here, and
    # the two representations parted by up to 3.5e-4; psi(p, x) is about
    # (p/2) log2(p-1) x
    ev = bv.psi(p, x)
    assert abs(ev.value) <= 1e-300 and abs(ev.second_value) <= 1e-300


def _psi_examples(test):
    # the corners of psi's domain, p in {2, 2 + 1e-12, 1022, 10^6} by x in
    # {0, the least subnormal, the float below 1/2, 1/2}
    for p in (2.0, 2.0 + 1e-12, 1022.0, 1e6):
        for x in (0.0, 5e-324, 0.5 - 2.0**-54, 0.5):
            test = example(p=p, x=x)(test)
    return test


@_psi_examples
@given(p=st.floats(2.0, 1e6), x=st.floats(0.0, 0.5))
def test_psi_finite_and_reconciled_or_input_error(p, x):
    try:
        ev = bv.psi(p, x)
    except InputError:
        return
    assert math.isfinite(ev.value) and math.isfinite(ev.second_value)
    assert abs(ev.value - ev.second_value) <= 1e-6


def test_psi_total_on_a_log_grid():
    # 15 p from 2 to 10^6 by x = 10^-e and 3 10^-e for e = 1..323: each call
    # returns finite values that pass the gate
    for p in np.geomspace(2.0, 1e6, 15):
        for x in (m * 10.0**-e for e in range(1, 324) for m in (1.0, 3.0)):
            ev = bv.psi(float(p), x)
            assert math.isfinite(ev.value) and abs(ev.value - ev.second_value) <= 1e-6


def test_psi_domain_errors():
    with pytest.raises(InputError):
        bv.psi(1.5, 0.2)
    with pytest.raises(InputError):
        bv.psi(3.0, 0.6)


@pytest.mark.parametrize("x", [1e-300, 1e-32])
def test_psi_tiny_x(x):
    # a(3, 1/2 - t) = x has t ~ sqrt(x/8): 1/2 - t rounds to 1/2 at x = 1e-300
    # and to the float below 1/2 at x = 1e-32, and y = 1/2 - O(t) likewise
    delta = 0.5 if x < 1e-33 else 0.5 - 2.0**-54
    assert bv.solve_a_inverse(3.0, x) == delta
    ev = bv.psi(3.0, x)
    assert ev.y_aux == pytest.approx(0.5, abs=2e-16) and ev.delta_aux == delta
    assert abs(ev.value - ev.second_value) <= 1e-9
    # psi(3, x) ~ (p/2) log2(p-1) x = 1.5 x; the second representation's
    # terms of order 1 cancel to float resolution
    assert abs(ev.second_value - 1.5 * x) <= 1e-15


@pytest.mark.parametrize("x", [1e-12, 1e-14, 1e-16])
def test_psi_representations_agree_at_tiny_x(x):
    # x is tiny and y_aux nears 1/2, where 1 - a^2 and 2(1-u) - a^2 cancel
    # unless the closed form takes them as 4x(1-x) and 1-2u + 4x(1-x)
    for p in [2.5, 3.0, 10.0]:
        ev = bv.psi(p, x)
        assert abs(ev.value - ev.second_value) <= 1e-9


@pytest.mark.parametrize("x", [1e-300, 0.25, 0.5 - 1e-6, 0.5 - 1e-9, 0.5 - 1e-12, 0.5 - 2.0**-54])
def test_root_region_boundary_against_mpmath(x):
    # 1/2 - sqrt(x(1-x)) by subtraction has relative error 1 at x = 0.5 - 1e-9
    import mpmath

    with mpmath.workdps(50):
        ref = 0.5 - mpmath.sqrt(mpmath.mpf(x) * (1 - mpmath.mpf(x)))
    assert bv.root_region_boundary(x) == pytest.approx(float(ref), rel=1e-15, abs=0.0)


def test_root_region_boundary_rounding_to_half():
    # for x = 1e-300 the boundary 1/2 - sqrt(x(1-x)) rounds to 1/2, so y = 1/2
    # lies at it: each evaluator takes the outer branch or its seam value
    x = 1e-300
    assert bv.root_region_boundary(x) == 0.5
    assert bv.tau(x, 0.5) == pytest.approx(H(x) / 2.0, abs=1e-12)
    assert bv.pi_fn(x, 0.5) == 0.0
    assert bv.exponent_I(x, 0.5) == pytest.approx(-1.0 - H(x) / 2.0, abs=1e-12)
    # at a boundary that does not round, the seam value matches the closed
    # form just inside it
    for x in [0.1, 0.25]:
        yb = bv.root_region_boundary(x)
        assert bv.tau(x, yb) == pytest.approx(bv.tau(x, yb - 1e-12), abs=1e-8)
        assert bv.exponent_I(x, yb) == pytest.approx(bv.exponent_I(x, yb - 1e-12), abs=1e-8)


# ---------------------------------------------------------------- pi


def test_pi_zero_outside_root_region():
    for x, y in [(0.3, 0.2), (0.2, 0.2), (0.4, 0.05), (0.1, 0.3)]:
        assert y >= bv.root_region_boundary(x)
        assert bv.pi_fn(x, y) == 0.0


def test_pi_symmetric_grid():
    for i in range(25):
        x = 1e-3 + (0.5 - 2e-3) * i / 24.0
        for j in range(25):
            y = 1e-3 + (0.5 - 2e-3) * j / 24.0
            assert bv.pi_fn(x, y) == pytest.approx(bv.pi_fn(y, x), abs=1e-8)


def test_pi_nonpositive_strictly_negative_inside():
    for i in range(25):
        x = 1e-3 + (0.5 - 2e-3) * i / 24.0
        for j in range(25):
            y = 1e-3 + (0.5 - 2e-3) * j / 24.0
            v = bv.pi_fn(x, y)
            assert v <= 0.0
            if y < bv.root_region_boundary(x) - 1e-3:
                assert v < -1e-6


def test_pi_min_oracle():
    rec = bv.pi_min_check(0.1, 0.05)
    assert abs(rec.gap) <= 1e-8
    for sigma, kappa in [(0.05, 0.1), (0.02, 0.2), (0.2, 0.0), (0.3, 0.2)]:
        rec = bv.pi_min_check(sigma, kappa)
        assert abs(rec.gap) <= 1e-6


# ---------------------------------------------------------------- alpha, x*


def test_x_star_specials():
    for e in [0.05, 0.2, 0.45]:
        assert bv.x_star(0.5, e) == pytest.approx(e / 2.0, abs=1e-14)
    for s in [0.1, 0.3, 0.5]:
        assert bv.x_star(s, 0.0) == 0.0
        assert bv.x_star(s, 0.5) == pytest.approx(s * (1.0 - s), abs=1e-14)


def test_x_star_range_and_stationarity():
    # alpha'(x) = log2[(sigma-x)(1-sigma-x) eps^2 / (x^2 (1-eps)^2)]; the
    # closed-form x* must zero it
    for s in [0.1, 0.25, 0.4, 0.5]:
        for e in [0.05, 0.2, 0.35, 0.49]:
            xs = bv.x_star(s, e)
            assert -1e-15 <= xs <= s * (1.0 - s) + 1e-12
            num = (s - xs) * (1.0 - s - xs) * e * e
            den = xs * xs * (1.0 - e) ** 2
            assert math.log2(num / den) == pytest.approx(0.0, abs=1e-10)


def test_x_star_against_mpmath():
    # the closed form's numerator cancels as eps nears 1/2, which at small
    # sigma can put x* outside [0, sigma] and make phi raise
    import mpmath

    with mpmath.workdps(60):
        for s in (2.0**-14, 1e-6, 1e-3, 0.1, 0.3, 0.5):
            for e in (1e-300, 1e-8, 0.01, 0.2, 0.45, 0.5 - 1e-6, 0.5 - 1e-10, 0.5 - 1e-13):
                sm, em = mpmath.mpf(s), mpmath.mpf(e)
                root = mpmath.sqrt(em * em + 4 * (1 - 2 * em) * sm * (1 - sm))
                want = (-em * em + em * root) / (2 * (1 - 2 * em))
                assert abs(bv.x_star(s, e) - want) <= 1e-15 * want, (s, e)
                assert math.isfinite(bv.phi(s, e)), (s, e)


def test_alpha_grid_argmax():
    s, e = 0.25, 0.1
    xs = bv.x_star(s, e)
    best = bv.alpha_value(s, e, xs)
    grid_best = max(bv.alpha_value(s, e, s * k / 10_000.0) for k in range(10_001))
    assert best >= grid_best - 1e-9
    assert best == pytest.approx(grid_best, abs=1e-6)


def test_alpha_sigma_zero_limit():
    for e in [0.1, 0.3]:
        assert bv.alpha_value(0.0, e, 0.0) == pytest.approx(math.log2(1.0 - e), abs=1e-14)


def test_alpha_domain_errors():
    with pytest.raises(InputError):
        bv.alpha_value(0.2, 0.1, 0.3)
    with pytest.raises(InputError):
        bv.alpha_value(0.6, 0.1, 0.1)


def test_discrete_vs_continuous_max():
    # grid max over {i/n} is within c/n of the continuous max of alpha
    worst = 0.0
    for s, e in [(0.25, 0.1), (0.4, 0.3), (0.1, 0.45)]:
        a_cont = bv.alpha_value(s, e, bv.x_star(s, e))
        for n in [64, 256, 1024]:
            a_grid = max(bv.alpha_value(s, e, i / n) for i in range(int(s * n) + 1))
            assert a_grid <= a_cont + 1e-12
            worst = max(worst, n * (a_cont - a_grid))
    assert worst <= 1.0
    print(f"\n  measured disc-vs-cont constant: {worst:.4f}")


# ---------------------------------------------------------------- phi


def test_phi_at_eps_zero():
    for s in [0.1, 0.3, 0.5]:
        assert bv.phi(s, 0.0) == pytest.approx(H(s) - 1.0, abs=1e-14)


def test_tilde_phi_at_one():
    for e in [0.05, 0.2, 0.45]:
        assert bv.tilde_phi(1.0, e) == pytest.approx(0.0, abs=1e-12)


def test_phi_transform_identity():
    for s in [0.05, 0.2, 0.35, 0.5]:
        for e in [0.02, 0.1, 0.3, 0.45, 0.5]:
            rec = bv.phi_transform_check(s, e)
            assert abs(rec.gap) <= 1e-6
            assert rec.y_argmax == pytest.approx(rec.y_closed_form, abs=1e-5)


def test_tilde_phi_increasing_concave():
    for e in [0.1, 0.3, 0.45]:
        ys = [1e-3 + (1.0 - 2e-3) * k / 100.0 for k in range(101)]
        vals = [bv.tilde_phi(y, e) for y in ys]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        second = [vals[k + 1] - 2 * vals[k] + vals[k - 1] for k in range(1, len(vals) - 1)]
        assert all(d <= 1e-8 for d in second)


def test_tilde_phi_slope_at_one():
    for e in [0.05, 0.2, 0.4]:
        h = 1e-5
        slope = (bv.tilde_phi(1.0, e) - bv.tilde_phi(1.0 - h, e)) / h
        assert slope == pytest.approx(1.0 / (1.0 - e), abs=1e-2)


def test_tilde_phi_slope_at_zero():
    # the raw one-sided difference converges to 2 only at rate
    # 1/log(1/h) (the first correction is 2 log2(eps/(1-eps)) sigma/h with
    # sigma = H^{-1}(h)); subtracting that known term isolates the limit
    for e in [0.05, 0.2, 0.45]:
        h = 1e-8
        raw = (bv.tilde_phi(h, e) - bv.tilde_phi(0.0, e)) / h
        corrected = raw - 2.0 * math.log2(e / (1.0 - e)) * inverse_entropy(h) / h
        assert corrected == pytest.approx(2.0, abs=1e-2)


# ---------------------------------------------------------------- eta


def test_eta_p_zero_at_origin():
    for p in [2.0, 3.0, 6.0]:
        for e in [0.0, 0.1, 0.4]:
            assert abs(bv.eta_p(p, 0.0, e)) <= 1e-10


def test_eta_matches_eta_p():
    # admissible x is capped by (p-1)/p = (1-2e)^2/(1+(1-2e)^2)
    for x, e in [(0.1, 0.1), (0.1, 0.3), (0.005, 0.45)]:
        p = 1.0 + (1.0 - 2.0 * e) ** 2
        assert x <= (p - 1.0) / p
        assert bv.eta(x, e) == bv.eta_p(p, x, e)


def test_eta_strictly_negative_inside():
    for x, e in [(0.1, 0.2), (0.3, 0.1), (0.02, 0.4)]:
        assert bv.eta(x, e) < 0.0


def test_eta_at_eps_zero():
    # p = 2 and tilde_phi(u, 0) = u - 1, so eta(x, 0) = 0 identically
    for x in [0.0, 0.1, 0.3, 0.5]:
        assert abs(bv.eta(x, 0.0)) <= 1e-12


def test_eta_p_concave_decreasing():
    for p, e in [(2.0, 0.1), (3.0, 0.2), (1.8**2 / 4 + 1, 0.05)]:
        assert p >= 1.0 + (1.0 - 2.0 * e) ** 2 - 1e-12
        xm = (p - 1.0) / p
        xs = [xm * k / 80.0 for k in range(81)]
        vals = [bv.eta_p(p, x, e) for x in xs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        second = [vals[k + 1] - 2 * vals[k] + vals[k - 1] for k in range(1, len(vals) - 1)]
        assert all(d <= 1e-8 for d in second)


def test_eta_domain_errors():
    with pytest.raises(InputError):
        bv.eta_p(2.0, 0.51, 0.1)
    with pytest.raises(InputError, match="need p > 1"):
        bv.eta_p(math.nan, 0.1, 0.1)
    with pytest.raises(InputError):
        bv.eta(0.2, 0.5)
    assert bv.eta(0.0, 0.5) == 0.0


# ---------------------------------------------------------------- edge iso


def test_edge_iso_identity_grid():
    for s in [0.1, 0.3, 0.5]:
        ymax = 2.0 * s * (1.0 - s)
        for frac in [0.0, 0.3, 0.7, 1.0]:
            rec = bv.edge_iso_min_check(s, frac * ymax)
            assert abs(rec.gap) <= 1e-6


def test_edge_iso_example():
    rec = bv.edge_iso_min_check(0.3, 0.2)
    assert abs(rec.gap) <= 1e-6
    assert rec.closed_form == pytest.approx(
        0.3 * H(0.2 / 0.6) + 0.7 * H(0.2 / 1.4), abs=1e-12
    )


def test_edge_iso_domain_error():
    with pytest.raises(InputError):
        bv.edge_iso_min_check(0.2, 0.4)


# ------------------------------------------------------------ domain gate

# each [0, 1/2] argument of an evaluator, the others held inside the domain
_GATED = {
    "ratio_r.x": lambda t: bv.ratio_r(t, 0.0),
    "exponent_I.x_deg": lambda t: bv.exponent_I(t, 0.0),
    "tau.x": lambda t: bv.tau(t, 0.1),
    "tau.y": lambda t: bv.tau(0.1, t),
    "little_h.x": lambda t: bv.little_h(3.0, t),
    "a_fn.delta": lambda t: bv.a_fn(3.0, t),
    "psi.x": lambda t: bv.psi(3.0, t),
    "pi_fn.x": lambda t: bv.pi_fn(t, 0.1),
    "pi_fn.y": lambda t: bv.pi_fn(0.1, t),
    "alpha_value.sigma": lambda t: bv.alpha_value(t, 0.1, 0.0),
    "alpha_value.eps": lambda t: bv.alpha_value(0.3, t, 0.1),
    "x_star.sigma": lambda t: bv.x_star(t, 0.1),
    "x_star.eps": lambda t: bv.x_star(0.3, t),
    "phi.sigma": lambda t: bv.phi(t, 0.1),
    "phi.eps": lambda t: bv.phi(0.3, t),
    "eta_p.eps": lambda t: bv.eta_p(3.0, 0.2, t),
    "eta.eps": lambda t: bv.eta(0.0, t),
    "edge_iso_min_check.sigma": lambda t: bv.edge_iso_min_check(t, 0.0),
    "pi_min_check.sigma": lambda t: bv.pi_min_check(t, 0.1),
    "pi_min_check.kappa": lambda t: bv.pi_min_check(0.3, t),
    "phi_transform_check.sigma": lambda t: bv.phi_transform_check(t, 0.1),
    "phi_transform_check.eps": lambda t: bv.phi_transform_check(0.3, t),
}
# accepted up to 1/2 + 1e-12, refused below 0
_EDGES = [
    (-1e-9, False),
    (-1e-13, False),
    (0.0, True),
    (0.5, True),
    (0.5 + 4e-13, True),
    (0.5 + 1.5e-12, False),
    (0.7, False),
    (math.inf, False),
    (math.nan, False),
]


@pytest.mark.parametrize("t, accepted", _EDGES)
@pytest.mark.parametrize("name", sorted(_GATED))
def test_domain_gate_edges(name, t, accepted):
    if accepted:
        _GATED[name](t)
    else:
        with pytest.raises(InputError):
            _GATED[name](t)


# the arguments whose domain is not [0, 1/2], each outside it: sigma = 0.3,
# so 2 sigma (1 - sigma) = 0.42; refused with InputError, not a bare
# ValueError from math.sqrt or math.log2, nor a nan or an InternalError
_REFUSED = {
    "alpha_value.x": [(lambda t: bv.alpha_value(0.3, 0.1, t)), -1e-9, 0.3 + 1e-9, 0.7, math.nan],
    "edge_iso_min_check.y": [(lambda t: bv.edge_iso_min_check(0.3, t)), -1e-9, 0.42 + 1e-8, 0.6, math.nan],
    "exponent_I.y_pt": [(lambda t: bv.exponent_I(0.3, t)), -1e-9, 0.1, math.nan],
    "inverse_entropy.y": [inverse_entropy, -1e-300, 1.0 + 1e-15, math.inf, math.nan],
    "binary_entropy.t": [binary_entropy, -1e-300, 1.0 + 1e-15, math.nan],
}


@pytest.mark.parametrize(
    "name, t",
    [pytest.param(name, t, id=f"{name}-{t!r}") for name, (_, *ts) in _REFUSED.items() for t in ts],
)
def test_refuses_arguments_outside_their_domain(name, t):
    with pytest.raises(InputError):
        _REFUSED[name][0](t)


def test_domain_gate_clamps_to_half():
    # inside the slack the argument is evaluated at 1/2 itself
    assert bv.alpha_value(0.3, 0.5 + 4e-13, 0.1) == bv.alpha_value(0.3, 0.5, 0.1)
    assert bv.tau(0.5 + 4e-13, 0.1) == bv.tau(0.5, 0.1)


# ------------------------------------------------------ minimization oracles

def _perfbench_sweep_grids():
    """perfbench's sweep grids, denser than the suite defaults, as its
    workloads module defines them."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads.SWEEP_GRIDS


_SWEEP_GRIDS = _perfbench_sweep_grids()


def _sweep_sigmas(tag):
    """The sigmas of a suite's default grid and of its perfbench sweep grid."""
    grids = (verify._SUITES[tag].axes, _SWEEP_GRIDS[tag])
    return sorted({float(sg) for grid in grids for sg in grid["sigma"]})


def _old_grid_min(oracle, cell):
    """The least value of an oracle's objective, from the public evaluators,
    over 2001 points with the ends and spacing of its 21-point scan: d
    linear on [1e-12, 1/2 - 1e-12], y linear on [0, 1/2], eps geometric on
    [1e-9, 1/2]."""
    ks = np.arange(2001)
    if oracle == "pi-min":
        sigma, kappa = cell
        grid = 1e-12 + ks * ((0.5 - 2e-12) / 2000)
        return min(
            bv.alpha_value(sigma, d, bv.x_star(sigma, d)) - kappa * math.log2(1.0 - 2.0 * d)
            for d in grid.tolist()
        )
    if oracle == "phi-transform":
        sigma, eps = cell
        c = math.log2(1.0 - 2.0 * eps)
        return min(-(y * c + H(y) + 2.0 * bv.tau(sigma, y)) for y in (ks * (0.5 / 2000)).tolist())
    sigma, y = cell
    grid = [1e-9 * (0.5 / 1e-9) ** (k / 2000) for k in range(2001)]
    return min(
        bv.phi(sigma, e) + 1.0 - H(sigma) - y * math.log2(e) - (1.0 - y) * math.log2(1.0 - e)
        for e in grid
    )


def _oracle_min(oracle, cell):
    """The oracle's minimum of the same objective."""
    if oracle == "pi-min":
        return 2.0 * bv.pi_min_check(*cell).min_over_delta
    if oracle == "phi-transform":
        return -(bv.phi_transform_check(*cell).grid_max_value + 2.0)
    return bv.edge_iso_min_check(*cell).min_over_eps


# cells at the domain corners of each oracle (sigma in {0, 1/2}, kappa = 0,
# y = 0, eps near 1/2), and its cell at each sigma of its default and
# perfbench grids
_ORACLE_CELLS = {
    "pi-min": ([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.3, 0.42)], lambda sg: (sg, sg * (1.0 - sg))),
    "phi-transform": ([(0.0, 0.01), (0.5, 0.0), (0.5, 0.5 - 1e-13), (0.3, 0.2)], lambda sg: (sg, 0.2)),
    "edge-iso-min": ([(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.3, 0.42)], lambda sg: (sg, sg * (1.0 - sg))),
}
_CORNERS = [(name, cell) for name, (cells, _) in _ORACLE_CELLS.items() for cell in cells]


@pytest.mark.parametrize(
    "oracle, cell",
    [pytest.param(name, cell, id=f"{name}-cell{i}") for i, (name, cell) in enumerate(_CORNERS)]
    + [
        pytest.param(name, cell_at(sg), id=f"{name}-sigma{sg!r}")
        for name, (_, cell_at) in _ORACLE_CELLS.items()
        for sg in _sweep_sigmas(name)
    ],
)
def test_oracle_finds_the_global_basin(oracle, cell):
    # 21 scan points and Brent's refinement miss no basin that a scan of
    # 2001 points finds
    assert _oracle_min(oracle, cell) <= _old_grid_min(oracle, cell) + 1e-12


def _sweep_cells(tag):
    """The (first, second) argument pairs of a suite's perfbench sweep grid."""
    grid = _SWEEP_GRIDS[tag]
    return [(float(a), float(b)) for a in grid[list(grid)[0]] for b in grid[list(grid)[1]]]


def _psi_tau_term(p, x):
    # psi's first representation from the gated public evaluators
    ev = bv.psi(p, x)
    y, hx = ev.y_aux, binary_entropy(x)
    return ev.value, binary_entropy(y) - 1.0 + p * bv.tau(x, y) - 0.5 * p * hx


# each ungated body, on the cells of a perfbench sweep grid, against its
# gated public form: (grid, cell -> (body's value, public form's value))
_BODIES = {
    "_entropy": ("tau-symmetry", lambda x, y: (numerics._entropy(y), binary_entropy(y))),
    "_x_star": ("phi-transform", lambda s, e: (bv._x_star(s, e), bv.x_star(s, e))),
    "_alpha": (
        "phi-transform",
        lambda s, e: (bv._alpha(s, e, 0.7 * s), bv.alpha_value(s, e, 0.7 * s)),
    ),
    "_alpha_max": (
        "pi-min",
        lambda s, k: (bv._alpha_max(s, k), bv.alpha_value(s, k, bv.x_star(s, k))),
    ),
    "_tau_at": ("tau-symmetry", lambda x, y: (bv._tau_at(x)(y, binary_entropy(y)), bv.tau(x, y))),
    "psi's tau term": ("psi-two-reps", _psi_tau_term),
}


@pytest.mark.parametrize("body", sorted(_BODIES))
def test_ungated_body_is_its_gated_form_bit_for_bit(body):
    tag, pair = _BODIES[body]
    cells = _sweep_cells(tag)
    if body == "_alpha_max":
        # every scan point of pi-min's d at each of its sigmas
        cells = [(s, d) for s in sorted({s for s, _ in cells}) for d in bv._D_GRID]
    for cell in cells:
        got, want = pair(*cell)
        assert got.hex() == want.hex(), cell


def _public_objective(oracle, cell):
    """An oracle's objective written with the gated public evaluators."""
    sigma, arg = cell
    if oracle == "pi-min":
        return lambda d: bv.alpha_value(sigma, d, bv.x_star(sigma, d)) - arg * math.log2(1.0 - 2.0 * d)
    if oracle == "phi-transform":
        c = math.log2(1.0 - 2.0 * arg)
        return lambda y: -(y * c + binary_entropy(y) + 2.0 * bv.tau(sigma, y))
    y = arg * 2.0 * sigma * (1.0 - sigma)  # arg is the sweep's yfrac
    base = 1.0 - binary_entropy(sigma)
    return lambda e: bv.phi(sigma, e) + base - (1.0 - y) * math.log2(1.0 - e) - y * math.log2(e)


_CHECKS = {
    "pi-min": bv.pi_min_check,
    "phi-transform": bv.phi_transform_check,
    "edge-iso-min": lambda sigma, yfrac: bv.edge_iso_min_check(sigma, yfrac * 2.0 * sigma * (1.0 - sigma)),
}


@pytest.mark.parametrize("oracle", sorted(_CHECKS))
def test_oracle_objective_is_its_public_form_bit_for_bit(oracle, monkeypatch):
    # the objective each oracle minimizes, with its per-sigma constants taken
    # once, equals the one written with the gated evaluators at every point
    # it evaluates, on the oracle's perfbench sweep grid
    minimize, seen = bv._minimize_1d, []

    def recorded(f, grid):
        def g(t):
            seen.append((t, f(t)))
            return seen[-1][1]

        return minimize(g, grid)

    monkeypatch.setattr(bv, "_minimize_1d", recorded)
    for cell in _sweep_cells(oracle):
        if oracle == "phi-transform" and cell[1] >= 0.5 - 1e-14:
            continue  # no minimization: log2(1 - 2 eps) = -inf kills every y > 0
        seen.clear()
        _CHECKS[oracle](*cell)
        public = _public_objective(oracle, cell)
        assert len(seen) > 21
        for t, v in seen:
            assert v.hex() == public(t).hex(), (cell, t)


_HALF = st.floats(0.0, 0.5)
_CORNERS_OF_HALF = [0.0, 1e-300, 0.5 - 1e-13, 0.5]


def _at_corner_pairs(test):
    for x in _CORNERS_OF_HALF:
        for y in _CORNERS_OF_HALF:
            test = example(x=x, y=y)(test)
    return test


@_at_corner_pairs
@given(x=_HALF, y=_HALF)
def test_tau_and_pi_are_their_forms_through_exponent_I(x, y):
    hx, hy = binary_entropy(x), binary_entropy(y)
    if y < bv.root_region_boundary(x):
        e = bv.exponent_I(x, y)
        tau, pi = hx + e + 1.0, e + 1.0 + 0.5 * (hx + hy - 1.0)
    else:
        tau, pi = 0.5 * (1.0 + hx - hy), 0.0
    assert bv.tau(x, y).hex() == tau.hex()
    assert bv.pi_fn(x, y).hex() == pi.hex()


# ------------------------------------------- finite or refused, never a crash

# x -> 0 and x -> 1/2 in each [0, 1/2] argument
_HALF_ENDS = (0.0, 5e-324, 0.5 - 2.0**-54, 0.5)


def _finite_or_refused(f, *args):
    try:
        value = f(*args)
    except InputError:
        return
    assert math.isfinite(value), args


def _at_half_ends(test):
    for a in _HALF_ENDS:
        for b in _HALF_ENDS:
            test = example(a=a, b=b)(test)
    return test


# a margin of 0.1 either side of [0, 1/2], so that the gates are drawn too
_AROUND_HALF = st.floats(-0.1, 0.6)


@_at_half_ends
@settings(max_examples=200, deadline=None)
@given(a=_AROUND_HALF, b=_AROUND_HALF)
def test_tau_finite_or_refused(a, b):
    _finite_or_refused(bv.tau, a, b)


@_at_half_ends
@settings(max_examples=200, deadline=None)
@given(a=_AROUND_HALF, b=_AROUND_HALF)
def test_phi_finite_or_refused(a, b):
    _finite_or_refused(bv.phi, a, b)


@_at_half_ends
@settings(max_examples=200, deadline=None)
@given(a=st.floats(0.0, 0.5), b=st.floats(0.0, 1.01))
def test_exponent_I_finite_or_refused(a, b):
    # y as a fraction b of the root-region boundary of x = a, up to 1% past it
    _finite_or_refused(bv.exponent_I, a, b * bv.root_region_boundary(a))


@example(p=2.0, frac=1.0, eps=0.0)
@example(p=2.0 + 1e-12, frac=5e-324, eps=0.5)
@example(p=1e6, frac=1.0, eps=0.5 - 2.0**-54)
@example(p=1e6, frac=0.0, eps=5e-324)
@example(p=1.0 + 1e-12, frac=0.5, eps=0.25)
@settings(max_examples=200, deadline=None)
@given(p=st.floats(1.0, 1e6), frac=st.floats(0.0, 1.0), eps=_AROUND_HALF)
def test_eta_p_finite_or_refused(p, frac, eps):
    # x as a fraction of its upper end (p - 1)/p, which is 1/2 at p = 2
    _finite_or_refused(bv.eta_p, p, frac * (p - 1.0) / p, eps)


@pytest.mark.parametrize("p", [1.0 + 2.3e-9, 1.7733660110664715, 2.0, 589.7319167228677, 15138.498231841553])
def test_eta_p_at_the_upper_end_of_x(p):
    # 1 - (p/(p-1)) x at x = (p-1)/p rounded to -2^-52 at these p, which
    # tilde_phi refused; its value there is tilde_phi(0, .)/2 + 1/p
    x = (p - 1.0) / p
    assert bv.eta_p(p, x, 0.1) == pytest.approx(0.5 * bv.tilde_phi(0.0, 0.18) + x / (p - 1.0), abs=1e-12)
