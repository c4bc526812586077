"""Bivariate exponent functions governing the Boolean-cube bounds.

All functions return base-2 exponents normalized per dimension n. The core
objects, with x always a degree-like ratio and y a point-like ratio in
[0, 1/2]:

- r(x,y): one-step ratio K_s(i+1)/K_s(i) in the exponential regime;
- exponent_I(x,y) = -1 + integral_0^y log2 r(x,z) dz (closed form);
- tau(x,y): log2 K_s(i)/n profile, piecewise across the root-region boundary
  y = 1/2 - sqrt(x(1-x));
- h, a: the auxiliary one-parameter families;
- psi(p,x): the lp/l2 moment-ratio exponent, two representations from one
  solve of a(p, 1/2 - t) = x, with y = r^p / (1 + r^p), r = (1-2t)/(1+2t);
- pi(x,y): spectral-projection exponent, symmetric and nonpositive;
- alpha, x*, phi, tilde_phi: noise-stability exponents for sets;
- eta, eta_p: hypercontractive exponents in terms of the lp/l1 ratio.

The three minimization oracles (pi over delta, the phi transform, the
eps-minimization of the edge-isoperimetric bound) each scan their scalar
objective at 21 points and refine by Brent's method, in the one 1-d
minimizer.

Implicit equations are solved on monotone maps only, by the one
root-bracketing solver (ITP steps inside a bisection-bounded bracket, run
to float resolution). The few removable singularities (y = 0 rows,
sigma or eps in {0, 1/2}) are evaluated by their analytic limits, noted
inline.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, NamedTuple

from .numerics import (
    LN2,
    InputError,
    InternalError,
    _entropy,
    _minimize_1d,
    _solve,
    inverse_entropy,
)

_SLACK = 1e-12
# the scan points of the three minimization oracles, before Brent's refinement:
# d and y linear, eps geometric toward eps -> 0, where the y = 0 infimum of
# edge-iso-min lives
_D_GRID = tuple(1e-12 + k * ((0.5 - 2e-12) / 20) for k in range(21))
_Y_GRID = tuple(k / 40 for k in range(21))
_EPS_GRID = tuple(1e-9 * (0.5 / 1e-9) ** (k / 20) for k in range(21))


def _gate(name: str, label: str, t: float) -> float:
    """The domain gate of every [0, 1/2] argument: InputError unless
    0 <= t <= 1/2 + _SLACK, else t clamped into [0, 1/2]. Public functions
    gate their arguments once, at entry; the underscored bodies they and
    the oracle loops call take arguments already in the domain."""
    if 0.0 <= t <= 0.5:
        return t
    if 0.5 < t <= 0.5 + _SLACK:
        return 0.5
    raise InputError(f"{name}: {label}={t} outside [0, 1/2]")


def _split_entropy(sigma: float, t: float) -> float:
    """sigma H(t/sigma) + (1-sigma) H(t/(1-sigma)) for t >= 0, each ratio
    capped at 1; 0 at sigma = 0."""
    if sigma <= 0.0:
        return 0.0
    return sigma * _entropy(min(t / sigma, 1.0)) + (1.0 - sigma) * _entropy(min(t / (1.0 - sigma), 1.0))


def root_region_boundary(x: float) -> float:
    """The point-ratio boundary y = 1/2 - sqrt(x(1-x)) of the root region, as
    (1/2 - x)^2 / (1/2 + sqrt(x(1-x))), which does not cancel as x -> 1/2."""
    return (0.5 - x) ** 2 / (0.5 + math.sqrt(x * (1.0 - x)))


def ratio_r(x: float, y: float) -> float:
    """r(x,y) = ((1-2x) + sqrt((1-2x)^2 - 4y(1-y))) / (2(1-y)).

    Defined for 0 <= x <= 1/2 and 0 <= y <= 1/2 - sqrt(x(1-x)); decreasing
    in y with r(x,0) = 1-2x and r(0,y) = 1.
    """
    x = _gate("ratio_r", "x", x)
    if y < -_SLACK or y > root_region_boundary(x) + 1e-9:
        raise InputError(f"ratio_r: y={y} outside [0, 1/2 - sqrt(x(1-x))] for x={x}")
    a = 1.0 - 2.0 * x
    # (1-2x)^2 - 4y(1-y) = (1-2y)^2 - 4x(1-x), taken as (big - c)(big + c)
    # with the smaller ratio under the root, so that neither square cancels
    small, big = (x, 1.0 - 2.0 * y) if x <= y else (y, a)
    c = 2.0 * math.sqrt(small * (1.0 - small))
    b = math.sqrt(max((big - c) * (big + c), 0.0))
    return (a + b) / (2.0 * (1.0 - y))


def _I_closed(u: float, v: float) -> float:
    """Closed-form antiderivative, u = point ratio, v = degree ratio > 0.

    With a = 1-2v, b = sqrt(a^2 - 4u(1-u)) and w = v(1-v), for v > 0 and
    u(1-u) + w <= 1/4: log2(1-u) + (a/2) log2(1-2u-b)
    + u log2((a+b)/(2(1-u))) - (1/2) log2(2(1-u) - a^2 - ab).
    As 1 - a^2 = 4w and 1 - 4u(1-u) = (1-2u)^2, the differences that cancel
    as v -> 0 or u -> 1/2 are taken exactly: b^2 = (1-2u)^2 - 4w,
    1-2u-b = 4w/(1-2u+b) and 2(1-u) - a^2 - ab = 16(1-u)^2 w/(1-2u + 4w + ab).
    """
    a = 1.0 - 2.0 * v
    w = v * (1.0 - v)
    b = math.sqrt(max((1.0 - 2.0 * u) ** 2 - 4.0 * w, 0.0))
    t1 = math.log2(1.0 - u)
    t2 = 0.5 * a * math.log2(4.0 * w / (1.0 - 2.0 * u + b))
    t3 = u * math.log2((a + b) / (2.0 * (1.0 - u)))
    q = 16.0 * (1.0 - u) ** 2 * w / (1.0 - 2.0 * u + 4.0 * w + a * b)
    return t1 + t2 + t3 - 0.5 * math.log2(q)


def _anchor(x: float) -> float:
    """_I_closed(0, x), where exponent_I's closed form is anchored, for
    0 < x < 1/2; 0 elsewhere, where _inner_I does not read it."""
    return _I_closed(0.0, x) if 0.0 < x < 0.5 else 0.0


def _inner_I(x: float, y: float, anchor: float) -> float:
    """exponent_I at y in [0, 1/2] below the root-region boundary, given
    anchor = _anchor(x): the closed form anchored at y = 0 (-1 there); -1 at
    x = 0, and at x = 1/2, which has no such y."""
    if not 0.0 < x < 0.5:
        return -1.0
    return _I_closed(y, x) - anchor - 1.0


def exponent_I(x_deg: float, y_pt: float) -> float:
    """The anchored antiderivative of log2 r along the point ratio:

    exponent_I(x, y) = -1 + integral_0^y log2 r(x, z) dz,

    so exponent_I(x, 0) = -1 for every x, and exponent_I(0, y) = -1 since
    r(0, .) = 1. Computed in closed form for x, y > 0 inside the computed
    boundary; at or past it, the seam value -(1 + H(x) + H(y))/2 that tau's
    outer branch gives.
    """
    x_deg = _gate("exponent_I", "x_deg", x_deg)
    boundary = root_region_boundary(x_deg)
    if not -_SLACK <= y_pt <= boundary + 1e-9:
        raise InputError(f"exponent_I: y_pt={y_pt} outside the root region for x_deg={x_deg}")
    if y_pt >= boundary:
        # also where the boundary rounds to 1/2 for tiny x and the closed
        # form would take log2(0); at x = 0 (boundary 1/2) the seam is -1
        return -0.5 * (1.0 + _entropy(x_deg) + _entropy(y_pt))
    return _inner_I(x_deg, max(y_pt, 0.0), _anchor(x_deg))


def tau(x: float, y: float) -> float:
    """tau(x,y): the normalized log2-magnitude profile of degree-x polynomials
    at point ratio y.

    H(x) + exponent_I(x,y) + 1 inside the root region, (1+H(x)-H(y))/2
    outside; continuous across the seam; tau(x,0) = H(x), tau(x,1/2) = H(x)/2.
    """
    x, y = _gate("tau", "x", x), _gate("tau", "y", y)
    edge = root_region_boundary(x)
    return _tau(x, _entropy(x), edge, _anchor(x) if y < edge else 0.0, y, _entropy(y))


def _tau(x: float, hx: float, edge: float, anchor: float, y: float, hy: float) -> float:
    """tau's formula for x, y already in [0, 1/2], given hx = H(x), edge =
    root_region_boundary(x), anchor = _anchor(x) (read only where y < edge)
    and hy = H(y)."""
    if y < edge:
        return hx + _inner_I(x, y, anchor) + 1.0
    return 0.5 * (1.0 + hx - hy)


def _tau_at(x: float) -> Callable[[float, float], float]:
    """(y, H(y)) -> tau(x, y) for x already in [0, 1/2], with the constants
    of x computed once for a loop over y."""
    return partial(_tau, x, _entropy(x), root_region_boundary(x), _anchor(x))


def little_h(p: float, x: float) -> float:
    """h(p,x) = x^{1/p}(1-x)^{(p-1)/p} + x^{(p-1)/p}(1-x)^{1/p};
    increases from 0 to 1 on x in [0, 1/2]."""
    if not p >= 2:
        raise InputError(f"little_h: need p >= 2, got p={p}")
    return _h(p, _gate("little_h", "x", x))


def _h(p: float, x: float) -> float:
    """little_h's formula, for x already in [0, 1/2]."""
    if x <= 0.0:
        return 0.0
    u, v = 1.0 / p, (p - 1.0) / p
    return x ** u * (1.0 - x) ** v + x ** v * (1.0 - x) ** u


def solve_h_inverse(p: float, target: float) -> float:
    """y in [0, 1/2] with h(p, y) = target; solved on the increasing h.

    Solves in log2(y): near 0 the solution is y ~ target^p, far below any
    absolute grid on [0, 1/2], while h(2^z) stays monotone in z.
    """
    if not p >= 2:
        raise InputError(f"solve_h_inverse: need p >= 2, got p={p}")
    if not (0.0 <= target <= 1.0):
        raise InputError(f"solve_h_inverse: target={target} outside [0, 1]")
    if target == 0.0:
        return 0.0
    if target == 1.0:
        return 0.5
    # h(p,y) <= 2 y^{1/p}, so z below p(log2(target) - 1) brackets from the
    # left; every 2^z of the bracket lies in [0, 1/2], so h skips its gate
    lo = p * (math.log2(target) - 1.0) - 1.0
    z = _solve(lambda z: _h(p, 2.0 ** z) - target, lo, -1.0)
    return 2.0 ** z


def a_fn(p: float, delta: float) -> float:
    """a(p,delta) = (1/2 - delta) ((1-d)^{p-1} - d^{p-1}) / ((1-d)^p + d^p)
    for finite p >= 2; decreases from 1/2 at delta = 0 to 0 at delta = 1/2."""
    if not 2 <= p < math.inf:
        raise InputError(f"a_fn: need finite p >= 2, got p={p}")
    return _a_minus(p, 0.0)(0.5 - _gate("a_fn", "delta", delta))


def _log_r(t: float) -> float:
    """ln r for r = (1-2t)/(1+2t) = delta/(1-delta), t in [0, 1/2]; -inf at t = 1/2."""
    return math.log1p(-2.0 * t) - math.log1p(2.0 * t) if t < 0.5 else -math.inf


def _a_minus(p: float, x: float) -> Callable[[float], float]:
    """t -> a(p, 1/2 - t) - x, the one body of a: at delta = 1/2 - t, with
    both powers divided by (1-delta)^p so that no float leaves its range for
    any finite p, a = 2t/(1+2t) (1 - r^(p-1)) / (1 + r^p), which increases
    from 0 at t = 0 to 1/2 at t = 1/2."""

    def residual(t: float) -> float:
        ln_r = _log_r(t)
        return 2.0 * t / (1.0 + 2.0 * t) * -math.expm1((p - 1.0) * ln_r) / (1.0 + math.exp(p * ln_r)) - x

    return residual


def _a_root(p: float, x: float) -> float:
    """t in [0, 1/2] with a(p, 1/2 - t) = x, solved on the increasing a; t = x at both ends."""
    return x if x in (0.0, 0.5) else _solve(_a_minus(p, x), 0.0, 0.5)


def solve_a_inverse(p: float, x: float) -> float:
    """delta in [0, 1/2] with a(p, delta) = x, for finite p >= 2, as 1/2 - t;
    for x below ~1e-32, t is below 2^-55 and delta rounds to 1/2."""
    if not 2 <= p < math.inf:
        raise InputError(f"solve_a_inverse: need finite p >= 2, got p={p}")
    return 0.5 - _a_root(p, _gate("solve_a_inverse", "x", x))


class PsiEval(NamedTuple):
    """psi(p,x) with both representations and the auxiliary solutions."""

    p: float
    x: float
    value: float  # first representation H(y) - 1 + p tau(x,y) - (p/2) H(x)
    second_value: float  # -1 + p log2(1+2t) + log2(1+r^p) - (p/2)H(x) - px log2(2t)
    y_aux: float  # h(p, y) = 1 - 2x, as r^p / (1 + r^p); 0 once r^p underflows
    delta_aux: float  # a(p, delta) = x, as 1/2 - t


def psi(p: float, x: float) -> PsiEval:
    """The moment-ratio exponent psi(p, x), for 2 <= p <= 10^6.

    One root solve of a(p, 1/2 - t) = x gives t and r = (1-2t)/(1+2t) =
    delta/(1-delta). Second representation: (p-1) + log2((1-d)^p + d^p)
    - (p/2) H(x) - p x log2(1-2d), taken as -1 + p log2(1+2t) + log2(1+r^p)
    - (p/2) H(x) - p x log2(2t). First: H(y) - 1 + p tau(x,y) - (p/2) H(x)
    with h(p,y) = 1-2x, where y = r^p / (1 + r^p) by the identity that links
    the two. Both are computed and reconciled; disagreement beyond 1e-6
    raises InternalError. Where r^p underflows (p >~ 50, x near 1/2) y_aux
    reads 0, no float being the true y (~1e-570); both values stay finite.
    """
    # psi grows like p, and so does the float error of its representations:
    # over x from 1e-320 to 1/2 the worst |rep1 - rep2| was 7.1e-9 at p = 10^6
    # and 7.1e-7 at 10^8, and at 10^9 the fixed 1e-6 gate failed 24 times
    if not 2 <= p <= 1e6:
        raise InputError(f"psi: need 2 <= p <= 1e6, got p={p}")
    x = _gate("psi", "x", x)
    t = _a_root(p, x)
    if x == 0.0 or p == 2.0:
        # psi(p, 0) = psi(2, x) = 0 exactly, where the representations leave
        # float noise or, at t = 0, take log2(0); y = 1/2 at x = 0, and h(2,y)
        # = 1-2x lands y on the root-region boundary, which is 1/2 at x = 0
        return PsiEval(p, x, 0.0, 0.0, root_region_boundary(x), 0.5 - t)
    rp = math.exp(p * _log_r(t))
    y = rp / (1.0 + rp)
    hx, hy = _entropy(x), _entropy(y)
    rep1 = hy - 1.0 + p * _tau(x, hx, root_region_boundary(x), _anchor(x), y, hy) - 0.5 * p * hx
    rep2 = (p * math.log1p(2.0 * t) + math.log1p(rp)) / LN2 - 1.0 - 0.5 * p * hx
    rep2 -= p * x * math.log2(2.0 * t)
    if abs(rep1 - rep2) > 1e-6:
        raise InternalError(
            f"psi: representations disagree by {abs(rep1 - rep2):.3e} at p={p}, x={x}"
        )
    return PsiEval(p, x, rep1, rep2, y, 0.5 - t)


def pi_fn(x: float, y: float) -> float:
    """pi(x,y) = tau(x,y) - (1 + H(x) - H(y))/2 inside the root region, else 0.

    Symmetric, nonpositive, strictly negative strictly inside the region.
    """
    x, y = _gate("pi_fn", "x", x), _gate("pi_fn", "y", y)
    if y >= root_region_boundary(x):
        return 0.0
    return _inner_I(x, y, _anchor(x)) + 1.0 + 0.5 * (_entropy(x) + _entropy(y) - 1.0)


class PiMinRecord(NamedTuple):
    sigma: float
    kappa: float
    min_over_delta: float
    closed_form: float
    gap: float
    delta_argmin: float


def pi_min_check(sigma: float, kappa: float) -> PiMinRecord:
    """Oracle for the delta-minimization representation of pi:

    pi(sigma,kappa) = (1/2) min_{0<=d<=1/2} { sigma H(x/sigma)
      + (1-sigma) H(x/(1-sigma)) + 2x log2(d) + (1-2x) log2(1-d)
      - kappa log2(1-2d) },  x = x_star(sigma, d).

    Minimized by a scan of _D_GRID and Brent's refinement; compared against
    the closed form.
    """
    sigma, kappa = _gate("pi_min_check", "sigma", sigma), _gate("pi_min_check", "kappa", kappa)

    def objective(d: float) -> float:
        return _alpha_max(sigma, d) - kappa * math.log2(1.0 - 2.0 * d)

    d_star, val = _minimize_1d(objective, _D_GRID)
    if 0.0 < val:
        # the d -> 0 endpoint has limit 0
        d_star, val = 0.0, 0.0
    if kappa == 0.0:
        # the d -> 1/2 endpoint is admissible when the kappa term vanishes;
        # its analytic limit is H(sigma) - 1 (x -> sigma(1-sigma))
        end = _entropy(sigma) - 1.0
        if end < val:
            d_star, val = 0.5, end
    closed = pi_fn(sigma, kappa)
    half = 0.5 * val
    return PiMinRecord(sigma, kappa, half, closed, half - closed, d_star)


def _alpha_max(sigma: float, eps: float) -> float:
    """max_x alpha_{sigma,eps}(x), attained at x = x_star(sigma, eps), for
    sigma, eps already in [0, 1/2]."""
    # x* exceeds a sigma below ~1e-20 by an ulp, where alpha_value clamps it
    return _alpha(sigma, eps, min(_x_star(sigma, eps), sigma))


def alpha_value(sigma: float, eps: float, x: float) -> float:
    """alpha_{sigma,eps}(x) = sigma H(x/sigma) + (1-sigma) H(x/(1-sigma))
    + 2x log2(eps) + (1-2x) log2(1-eps), for 0 <= x <= sigma.

    Limits: sigma = 0 forces x = 0 with value log2(1-eps); eps = 0 gives 0 at
    x = 0 and -inf for x > 0; eps = 1/2 contributes a flat -1.
    """
    sigma, eps = _gate("alpha_value", "sigma", sigma), _gate("alpha_value", "eps", eps)
    if not -_SLACK <= x <= sigma + _SLACK:
        raise InputError(f"alpha_value: x={x} outside [0, sigma={sigma}]")
    return _alpha(sigma, eps, min(max(x, 0.0), sigma))


def _alpha(sigma: float, eps: float, x: float) -> float:
    """alpha_value's formula, for sigma, eps already in [0, 1/2] and x in [0, sigma]."""
    if x > 0.0 and eps == 0.0:
        return -math.inf
    log2_e = math.log2(eps) if x > 0.0 else 0.0
    return _split_entropy(sigma, x) + 2.0 * x * log2_e + (1.0 - 2.0 * x) * math.log2(1.0 - eps)


def x_star(sigma: float, eps: float) -> float:
    """Maximizer of alpha_{sigma,eps}:
    x* = (-eps^2 + eps sqrt(eps^2 + 4(1-2eps) sigma(1-sigma))) / (2(1-2eps));
    limit sigma(1-sigma) at eps = 1/2."""
    return _x_star(_gate("x_star", "sigma", sigma), _gate("x_star", "eps", eps))


def _x_star(sigma: float, eps: float) -> float:
    """x_star's formula, for sigma, eps already in [0, 1/2]."""
    if eps <= 0.0 or sigma <= 0.0:
        return 0.0
    # the closed form times its conjugate, 2 eps q / (sqrt(eps^2 + 4(1-2eps) q)
    # + eps) with q = sigma(1-sigma): no cancellation as eps nears 1/2, where
    # it gives the limit q
    q = sigma * (1.0 - sigma)
    return 2.0 * eps * q / (math.sqrt(eps * eps + 4.0 * (1.0 - 2.0 * eps) * q) + eps)


def phi(sigma: float, eps: float) -> float:
    """phi(sigma, eps) = H(sigma) - 1 + max_x alpha_{sigma,eps}(x)."""
    sigma, eps = _gate("phi", "sigma", sigma), _gate("phi", "eps", eps)
    return _entropy(sigma) - 1.0 + _alpha_max(sigma, eps)


def tilde_phi(y: float, eps: float) -> float:
    """tilde_phi(y, eps) = phi(H^{-1}(y), eps), for y in [0, 1]."""
    if not (0.0 <= y <= 1.0 + _SLACK):
        raise InputError(f"tilde_phi: y={y} outside [0, 1]")
    return phi(inverse_entropy(min(y, 1.0)), eps)


class PhiTransformRecord(NamedTuple):
    sigma: float
    eps: float
    phi_value: float
    grid_max_value: float
    gap: float
    y_argmax: float
    y_closed_form: float


def phi_transform_check(sigma: float, eps: float) -> PhiTransformRecord:
    """Oracle for the transform identity
    phi(sigma,eps) = max_{0<=y<=1/2} { y log2(1-2eps) + H(y) + 2 tau(sigma,y) } - 2,
    with the closed-form maximizer
    y* = ((1-eps) - sqrt(eps^2 + 4(1-2eps) sigma(1-sigma))) / (2-2eps)."""
    sigma, eps = _gate("phi_transform_check", "sigma", sigma), _gate("phi_transform_check", "eps", eps)
    p_val = phi(sigma, eps)
    if eps >= 0.5 - 1e-14:
        # log2(1-2eps) = -inf kills every y > 0
        y_closed = 0.0
        best_y, best = 0.0, _entropy(0.0) + 2.0 * tau(sigma, 0.0)
    else:
        q = sigma * (1.0 - sigma)
        y_closed = ((1.0 - eps) - math.sqrt(eps * eps + 4.0 * (1.0 - 2.0 * eps) * q)) / (
            2.0 - 2.0 * eps
        )
        c = math.log2(1.0 - 2.0 * eps)
        tau_s = _tau_at(sigma)

        def neg_transform(y: float) -> float:
            hy = _entropy(y)
            return -(y * c + hy + 2.0 * tau_s(y, hy))

        best_y, neg_best = _minimize_1d(neg_transform, _Y_GRID)
        best = -neg_best
    grid_max = best - 2.0
    return PhiTransformRecord(
        sigma, eps, p_val, grid_max, p_val - grid_max, best_y, max(y_closed, 0.0)
    )


def eta_p(p: float, x: float, eps: float) -> float:
    """eta_p(x, eps) = (1/2) tilde_phi(1 - (p/(p-1)) x, 2 eps (1-eps))
    + x/(p-1), for 0 <= x <= (p-1)/p and p >= 1 + (1-2eps)^2."""
    if not 1.0 < p < math.inf:
        raise InputError(f"eta_p: need p > 1 and finite, got p={p}")
    eps = _gate("eta_p", "eps", eps)
    if not -_SLACK <= x <= (p - 1.0) / p + 1e-9:
        raise InputError(f"eta_p: x={x} outside [0, (p-1)/p] for p={p}")
    x = min(max(x, 0.0), (p - 1.0) / p)
    if x == 0.0:
        # tilde_phi(1, .) = 0 identically: the classic inequality, no gain
        return 0.0
    delta = 2.0 * eps * (1.0 - eps)
    # at x = (p-1)/p the argument rounds to 0 or to -2^-52
    return 0.5 * tilde_phi(max(1.0 - (p / (p - 1.0)) * x, 0.0), delta) + x / (p - 1.0)


def eta(x: float, eps: float) -> float:
    """eta(x, eps) = eta_p(x, eps) at p = 1 + (1-2eps)^2."""
    eps = _gate("eta", "eps", eps)
    p = 1.0 + (1.0 - 2.0 * eps) ** 2
    if p <= 1.0 + 1e-14:
        # eps = 1/2: the admissible interval degenerates to x = 0
        if abs(x) > 1e-9:
            raise InputError(f"eta: x={x} outside the degenerate domain at eps=1/2")
        return 0.0
    return eta_p(p, x, eps)


class EdgeIsoMinRecord(NamedTuple):
    sigma: float
    y: float
    min_over_eps: float
    closed_form: float
    gap: float
    eps_argmin: float


def edge_iso_min_check(sigma: float, y: float) -> EdgeIsoMinRecord:
    """Oracle for the eps-minimization behind the edge-isoperimetric bound:

    min_{0<eps<=1/2} { phi(sigma,eps) + 1 - H(sigma) - y log2(eps)
      - (1-y) log2(1-eps) } = sigma H(y/(2 sigma)) + (1-sigma) H(y/(2(1-sigma))).
    """
    sigma = _gate("edge_iso_min_check", "sigma", sigma)
    if not -_SLACK <= y <= 2.0 * sigma * (1.0 - sigma) + 1e-9:
        raise InputError(
            f"edge_iso_min_check: y={y} outside [0, 2 sigma (1-sigma)] for sigma={sigma}"
        )
    y = min(max(y, 0.0), 2.0 * sigma * (1.0 - sigma)) if sigma > 0 else 0.0
    h = _entropy(sigma)
    h1, base = h - 1.0, 1.0 - h  # phi(sigma, e) = h1 + _alpha_max(sigma, e)

    def objective(e: float) -> float:
        return h1 + _alpha_max(sigma, e) + base - (1.0 - y) * math.log2(1.0 - e) - y * math.log2(e)

    best_e, best = _minimize_1d(objective, _EPS_GRID)
    closed = _split_entropy(sigma, 0.5 * y)
    return EdgeIsoMinRecord(sigma, y, best, closed, best - closed, best_e)
