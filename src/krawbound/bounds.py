"""Theorem-level bound evaluators.

Every bound is exposed as a base-2 exponent per n (or a full log2 where the
statement is about a single count), never as a raw 2^{cn} magnitude. Each
evaluator has a matching extremal object (Krawchouk row, Hamming sphere,
adjacent-sphere union) exercised by the tests to measure tightness factors
rather than assume them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bivariate import _alpha_max, _split_entropy, eta_p, phi, pi_fn, psi, tau
from .numerics import InputError, binary_entropy, inverse_entropy


class BoundReport(NamedTuple):
    """Comparison artifact: measured exponent vs bound exponent, per n."""

    bound_name: str
    params: dict
    lhs_log2n: float
    rhs_log2n: float
    margin: float
    tol: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "params": self.params,
            "lhs_log2n": self.lhs_log2n,
            "rhs_log2n": self.rhs_log2n,
            "margin": self.margin,
            "tol": self.tol,
            "pass": self.passed,
        }


def make_report(name: str, params: dict, lhs_log2n: float, rhs_log2n: float, tol: float = 1e-9) -> BoundReport:
    lhs, rhs, tol = float(lhs_log2n), float(rhs_log2n), float(tol)
    margin = rhs - lhs
    return BoundReport(name, dict(params), lhs, rhs, margin, tol, bool(margin >= -tol))


def moment_bound(n: int, s: int, p: float) -> float:
    """log2 of the bound on E|f|^p / (E f^2)^{p/2} for degree-s f: psi(p, s/n) n."""
    if n < 1 or not (0 <= s <= n / 2):
        raise InputError(f"moment_bound: need n >= 1 and 0 <= s <= n/2, got s={s}, n={n}")
    return psi(p, s / n).value * n


class MomentGapRecord(NamedTuple):
    n: int
    s: int
    p: float
    bound_log2: float
    kraw_log2: float
    gap_log2: float


def moment_gap(n: int, s: int, p: float) -> MomentGapRecord:
    """Bound exponent minus the Krawchouk ratio it dominates."""
    from .krawchouk import kraw_moments  # numpy, which the other bounds never load

    if not (1 <= s <= n / 2):
        raise InputError(f"moment_gap: need 1 <= s <= n/2, got s={s}, n={n}")
    bound = moment_bound(n, s, p)
    kraw = kraw_moments(n, s, p).log2_ratio
    return MomentGapRecord(n, s, p, bound, kraw, bound - kraw)


class TailRecord(NamedTuple):
    n: int
    s: int
    i: int
    threshold_exponent: float
    prob_exponent: float


def tail_bound(n: int, s: int, i: int) -> TailRecord:
    """Per-n exponents of the tail statement: |f| exceeds
    ||f||_2 2^{threshold n} with probability at most 2^{prob n}."""
    if n < 1 or not (0 <= s <= n / 2) or not (0 <= i <= n / 2):
        raise InputError(f"tail_bound: need n >= 1 and 0 <= s, i <= n/2, got n={n}, s={s}, i={i}")
    x, y = s / n, i / n
    threshold = tau(x, y) - binary_entropy(x) / 2
    prob = binary_entropy(y) - 1.0
    return TailRecord(n, s, i, threshold, prob)


def edge_iso_bound(n: int, sigma: float, i: int) -> float:
    """Per-n exponent bounding a_i(A)/|A| for sets of size <= 2^{H(sigma) n}."""
    if not (0.0 < sigma <= 0.5):
        raise InputError(f"edge_iso_bound: need 0 < sigma <= 1/2, got {sigma}")
    imax = 2.0 * sigma * (1.0 - sigma) * n
    if not (1 <= i <= imax):
        raise InputError(
            f"edge_iso_bound: i={i} outside [1, {imax:.6g}]; beyond twice the "
            "typical distance between two random points at this set density "
            "the count is already maximal"
        )
    return _split_entropy(sigma, 0.5 * (i / n))


def hypercontractive_bound(r_p: float, eps: float, p: float) -> float:
    """Per-n exponent bounding ||T_eps f||_2 / ||f||_p given
    r_p = (1/n) log2(||f||_p / ||f||_1); always <= 0."""
    return eta_p(p, r_p, eps)


def set_noise_bound(sigma: float, eps: float) -> float:
    """Per-n exponent bounding <T_eps f, f> / ||f||_2^2 for f supported on
    at most 2^{H(sigma) n} points."""
    if not (0.0 <= sigma <= 0.5) or not (0.0 <= eps <= 0.5):
        raise InputError(f"set_noise_bound: need sigma, eps in [0, 1/2]")
    return phi(sigma, eps) + 1.0 - binary_entropy(sigma)


def projection_bound(n: int, k: int, p: float, r_p: float) -> float:
    """Per-n exponent bounding ||f_k||_2 / ||f||_p given
    r_p = (1/n) log2(||f||_p / ||f||_1)."""
    if not 2 <= p < math.inf:
        raise InputError(f"projection_bound: need finite p >= 2, got {p}")
    if n < 1 or not (0 <= k <= n):
        raise InputError(f"projection_bound: need n >= 1 and 0 <= k <= n, got n={n}, k={k}")
    arg = 1.0 - (p / (p - 1.0)) * r_p
    if not (-1e-12 <= arg <= 1.0 + 1e-12):
        raise InputError(f"projection_bound: r_p={r_p} outside [0, (p-1)/p] for p={p}")
    sigma = inverse_entropy(min(max(arg, 0.0), 1.0))
    kappa = min(k, n - k) / n
    return pi_fn(sigma, kappa) - ((p - 2.0) / (2.0 * p - 2.0)) * r_p


def support_projection_bound(sigma: float, k_frac: float) -> float:
    """Per-n exponent bounding ||f_k||_2 / ||f||_2 for f supported on at
    most 2^{H(sigma) n} points; k_frac = k/n."""
    if not (0.0 <= sigma <= 0.5) or not (0.0 <= k_frac <= 1.0):
        raise InputError("support_projection_bound: need sigma in [0,1/2], k/n in [0,1]")
    return pi_fn(sigma, min(k_frac, 1.0 - k_frac))


def ue_exponent(R: float, eps: float) -> float:
    """Worst asymptotic undetected-error exponent at rate R and flip
    probability eps: the maximum of alpha_{sigma,eps} with sigma = H^{-1}(R)."""
    if not (0.0 < R <= 1.0):
        raise InputError(f"ue_exponent: need 0 < R <= 1, got {R}")
    if not (0.0 < eps <= 0.5):
        raise InputError(f"ue_exponent: need 0 < eps <= 1/2, got {eps}")
    sigma = inverse_entropy(R)
    return _alpha_max(sigma, eps)
