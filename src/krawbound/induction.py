"""Dimension-induction machinery: the Hanner functional F, its ingredients
P, rho, t, Phi, u*, the exact identities linking them, and near-equality
diagnostics for consecutive Krawchouk pairs under Hanner's inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bivariate import ratio_r
from .cube import SymmetricProfile
from .krawchouk import kraw_moments, solve_i0
from .numerics import InputError, InternalError, _minimize_1d, _solve, log_sum_exp2_signed

_BRACKET_DOUBLINGS = 120


def big_P(z: float, p: float) -> float:
    """P(z) = ((sqrt(z)+1)^p + |sqrt(z)-1|^p) / 2, increasing from P(0) = 1."""
    if z < 0:
        raise InputError(f"big_P: need z >= 0, got {z}")
    if not p >= 2:
        raise InputError(f"big_P: need p >= 2, got {p}")
    r = math.sqrt(z)
    return ((r + 1.0) ** p + abs(r - 1.0) ** p) / 2.0


def _log2_big_p(z: float, p: float) -> float:
    r = math.sqrt(z)
    minus = p * math.log2(abs(r - 1.0)) if r != 1.0 else -math.inf
    return float(np.logaddexp2(p * math.log2(r + 1.0), minus)) - 1.0


def der_zer_residual(u: float, rho: float, p: float) -> float:
    """Residual of the stationarity identity for the substituted objective:
    (sqrt(1-rho u)+sqrt(u))^{p-1}(sqrt(1-rho u)-rho sqrt(u))
    = (sqrt(1-rho u)-sqrt(u))^{p-1}(sqrt(1-rho u)+rho sqrt(u))."""
    a = math.sqrt(1.0 - rho * u)
    b = math.sqrt(u)
    lhs = (a + b) ** (p - 1.0) * (a - rho * b)
    rhs = (a - b) ** (p - 1.0) * (a + rho * b)
    return lhs - rhs


def cap_F(x: float, y: float, p: float) -> float:
    """F(x, y) = y sup_beta P(rho beta)/(beta+1)^{p/2} with rho = (x/y)^{2/p};
    F(x, 0) = x. 1-homogeneous, monotone in both arguments, >= max(x, y).

    The bracket [0, 4(p-1)/rho] grows geometrically until the objective is
    seen to decrease, then Brent's method pins the interior maximum.
    When 1 < rho < p-1 and the maximum lies past beta = 1/rho, the stationary
    point is also located as the sign change of the stationarity identity,
    whose residual is checked there. InputError where F, or that residual,
    leaves the float range: F(1, 1) > 2^1024 from p ~ 2050, and the
    residual's (a+b)^{p-1}, at most 2^{(p-1)/2}, can overflow from p = 2050.
    """
    if not (0.0 <= x < math.inf and 0.0 <= y < math.inf):
        raise InputError(f"cap_F: need finite x, y >= 0, got x={x}, y={y}")
    if not 2 <= p < math.inf:
        raise InputError(f"cap_F: need finite p >= 2, got {p}")
    if y == 0.0:
        return x
    rho = (x / y) ** (2.0 / p)
    if rho == 0.0:
        # x = 0, or x/y below the float range: the objective is P(0)/(beta+1)^{p/2}
        # times 1 + O(rho), which rounds to 1; maximal at beta = 0
        return y

    def log2_f(beta: float) -> float:
        return _log2_big_p(rho * beta, p) - 0.5 * p * math.log2(beta + 1.0)

    limit_log2 = 0.5 * p * math.log2(rho)
    hi = max(4.0 * (p - 1.0) / rho, 1.0)
    seen_decrease = False
    for _ in range(_BRACKET_DOUBLINGS):
        if log2_f(hi) < log2_f(hi / 2.0):
            seen_decrease = True
            break
        if rho * hi > 2.0**1000:
            break  # rho beta would soon overflow, and log2_f read inf
        hi *= 2.0
    if not seen_decrease:
        # objective climbs toward its beta -> infinity limit rho^{p/2}
        if log2_f(hi) > limit_log2 + 1e-9:
            raise InternalError(
                f"cap_F: bracket growth did not converge at x={x}, y={y}, p={p}"
            )
        return max(x, y)
    def neg(beta: float) -> float:
        return -log2_f(beta)

    beta, neg_best = _minimize_1d(neg, (0.0, hi))
    best = max(-neg_best, limit_log2)
    if 1.0 + 1e-9 < rho < p - 1.0 - 1e-9 and beta > 1.0 / rho:
        # the residual's terms grow like (a+b)^{p-1}: the minimizer's argmin
        # can leave it far above the gate, so solve for its one sign change,
        # negative at beta = 1/rho and positive as beta grows; the solver
        # never evaluates that end, where a - b rounds below 0 and the
        # fractional power of it is complex
        def residual(b: float) -> float:
            return der_zer_residual(1.0 / (rho * (b + 1.0)), rho, p)

        try:
            beta = _solve(residual, 1.0 / rho, hi)
            # the gate scales with the residual's largest product
            # (a+b)^{p-1} max(a, rho b): at p = 100 it reaches ~1e14, and the
            # float-exact stationary point leaves a residual of ~1e-16 of it
            u = 1.0 / (rho * (beta + 1.0))
            a, b = math.sqrt(1.0 - rho * u), math.sqrt(u)
            scale = (a + b) ** (p - 1.0) * max(a, rho * b)
            miss = abs(der_zer_residual(u, rho, p))
        except OverflowError:
            raise InputError(f"cap_F: the stationarity residual leaves the float range at p={p}") from None
        best = max(best, log2_f(beta))
        if miss > max(1e-5, 1e-12 * scale):
            raise InternalError(
                f"cap_F: stationary-point check failed at x={x}, y={y}, p={p}"
            )
    value = y * 2.0**best if best < 1024.0 else math.inf
    if value == math.inf:
        raise InputError(f"cap_F: F leaves the float range at x={x}, y={y}, p={p}")
    return value


@dataclass(frozen=True)  # not a NamedTuple: perfbench/workloads.py takes dataclasses.asdict of it
class InductionParams:
    n: int
    s: int
    p: float
    i0: float
    t: float
    rho: float
    phi_big: float
    u_star: float
    rho_at_boundary: bool


def induction_params(n: int, s: int, p: float) -> InductionParams:
    """i0, t, rho, Phi, u* for the dimension-step analysis at (n, s, p).

    t is the larger root of (n-s) t^2 - (n-2 i0) t + s = 0; Phi is the
    closed form n/(2(n-i0)) (s/n)^{p/2} (1 + (n-s)/s t)^p; the quadratic
    residual and the ratio identity r(s/n, i0/n) = (i0/(n-i0))^{1/p} are
    verified internally.
    """
    if not (0 < s < n / 2):
        raise InputError(f"induction_params: need 0 < s < n/2, got s={s}, n={n}")
    if not p >= 2:
        raise InputError(f"induction_params: need p >= 2, got {p}")
    i0 = solve_i0(n, s, p)
    if i0 == 0.0:
        # s < n/2 puts i0 > 0, but near s = n/2 with large p it can lie below
        # the smallest positive float
        raise InputError(
            f"induction_params: i0/n underflows the float range at n={n}, s={s}, p={p}"
        )
    # at p = 2, i0/n lies on the root-region boundary and the discriminant is
    # exactly 0; computed, its rounding error would pass through sqrt and move
    # t, rho and r(s/n, i0/n) (same discriminant) by ~1e-8
    disc = 0.0 if p == 2 else max((n - 2 * i0) ** 2 - 4.0 * s * (n - s), 0.0)
    t = ((n - 2 * i0) + math.sqrt(disc)) / (2.0 * (n - s))
    rho = (n - 2 * i0) / s * t - 1.0
    quad = ((n - s) * t * t - (n - 2 * i0) * t + s) / n
    if abs(quad) > 1e-10 * n:
        raise InternalError(f"induction_params: quadratic residual {quad:.3e}")
    ratio = (n - 2.0 * s) / (2.0 * (n - i0)) if p == 2 else ratio_r(s / n, i0 / n)
    ref = (i0 / (n - i0)) ** (1.0 / p)
    if abs(ratio - ref) > 1e-8 * max(ref, 1e-12):
        raise InternalError(
            f"induction_params: ratio identity off by {abs(ratio - ref):.3e}"
        )
    try:
        # one p-th power of (s/n)^{1/2} (1 + (n-s)/s t): (s/n)^{p/2} and
        # (1 + (n-s)/s t)^p apart leave the float range where Phi does not
        phi_big = n / (2.0 * (n - i0)) * (math.sqrt(s / n) * (1.0 + (n - s) / s * t)) ** p
    except OverflowError:
        raise InputError(
            f"induction_params: Phi exceeds the float range at n={n}, s={s}, p={p}"
        ) from None
    u_star = s / (rho * n)
    return InductionParams(n, s, p, i0, t, rho, phi_big, u_star, rho <= 1.0 + 1e-12)


@dataclass(frozen=True)  # not a NamedTuple: perfbench/workloads.py takes dataclasses.asdict of it
class HannerRecord:
    n: int
    s: int
    p: float
    lhs_log2: float
    rhs_log2: float
    log2_ratio_per_n: float


def hanner_gap_kraw(n: int, s: int, p: float) -> HannerRecord:
    """How far the consecutive pair g0 = K_s, g1 = K_{s-1} on the n-cube sits
    from equality in Hanner's inequality:
    ||g0+g1||_p^p + ||g0-g1||_p^p <= (||g0||_p+||g1||_p)^p + |...|^p.
    All norms in log domain via weight profiles; n up to 10^4."""
    if not (1 <= s <= n / 2):
        raise InputError(f"hanner_gap_kraw: need 1 <= s <= n/2, got s={s}, n={n}")
    if not p >= 2:
        raise InputError(f"hanner_gap_kraw: need p >= 2, got {p}")
    g0 = SymmetricProfile.kraw(n, s)
    g1 = SymmetricProfile.kraw(n, s - 1)
    plus_p = p * g0.plus(g1).lp_norm_log2(p)
    minus_p = p * g0.minus(g1).lp_norm_log2(p)
    lhs_log2 = float(np.logaddexp2(plus_p, minus_p))
    la = g0.lp_norm_log2(p)
    lb = g1.lp_norm_log2(p)
    _, diff = log_sum_exp2_signed([la, lb], [1, -1])
    rhs_log2 = float(np.logaddexp2(p * np.logaddexp2(la, lb), p * diff))
    return HannerRecord(n, s, p, lhs_log2, rhs_log2, (rhs_log2 - lhs_log2) / n)


@dataclass(frozen=True)  # not a NamedTuple: perfbench/workloads.py takes dataclasses.asdict of it
class RecursionRecord:
    n: int
    s: int
    p: float
    log2_r_next: float
    log2_r_prev: float
    log2_phi: float
    residual: float
    rho_residual: float
    eps_scale: float
    outside_asymptotic_range: bool


def recursion_residual(n: int, s: int, p: float) -> RecursionRecord:
    """Measured deviation of r(n+1,s,p)/r(n,s-1,p) from Phi(n,s,p), and of
    (r(n,s,p)/r(n,s-1,p))^{2/p} from rho(n,s,p). The sqrt(log n / n) scale
    the deviations are expected to live on is reported for context, with no
    pass/fail constant attached."""
    params = induction_params(n, s, p)
    r_next = kraw_moments(n + 1, s, p).log2_ratio
    r_prev = kraw_moments(n, s - 1, p).log2_ratio
    r_same = kraw_moments(n, s, p).log2_ratio
    log2_phi = math.log2(params.phi_big)
    residual = abs((r_next - r_prev) - log2_phi)
    rho_residual = abs((2.0 / p) * (r_same - r_prev) - math.log2(params.rho))
    s0 = n / math.log(n)
    outside = not (s0 <= s <= n / 2 - s0)
    return RecursionRecord(
        n,
        s,
        p,
        r_next,
        r_prev,
        log2_phi,
        residual,
        rho_residual,
        math.sqrt(math.log(n) / n),
        outside,
    )


def tensor_ratio_log2(n: int, s: int, p: float, m: int) -> float:
    """(1/(n m)) log2 r(n m, s m, p): the per-coordinate moment-ratio
    exponent of the m-fold instance, which approaches psi(p, s/n)."""
    return kraw_moments(n * m, s * m, p).log2_ratio / (n * m)
