"""Shared numeric primitives: binary entropy, log-domain binomials, base-2 logsumexp,
and the one bisection and one 1-d minimizer every implicit equation and
minimization oracle runs on.

Everything downstream works with base-2 exponents normalized per dimension n,
so all helpers here speak log2, with -inf as the log of zero. Exact integer
binomials are kept separate from the log-domain approximations; callers
choose explicitly.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

LN2 = math.log(2.0)

EXACT_BINOMIAL_CAP = 4096
LOG2_BINOMIAL_CAP = 10**6


class InputError(ValueError):
    """Raised when arguments fall outside a documented domain."""


class InternalError(RuntimeError):
    """Raised when an internal consistency check fails (not a caller error)."""


def binary_entropy(t: float) -> float:
    """H(t) = -t log2 t - (1-t) log2(1-t), with H(0) = H(1) = 0."""
    if isinstance(t, (int, float)) is False:
        t = float(t)
    if t < 0.0 or t > 1.0:
        raise InputError(f"binary_entropy: t={t} outside [0, 1]")
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def _bisect(
    below: Callable[[float], bool], lo: float, hi: float, iterations: int
) -> float:
    """Halve [lo, hi] `iterations` times around the point where the monotone
    predicate `below` turns from true (left of it) to false; returns the
    midpoint of the final bracket."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _minimize_1d(
    f: Callable[[float], float], grid: Sequence[float]
) -> tuple[float, float]:
    """Minimize f: scan the increasing grid points, then refine by golden
    section on the two cells around the best point, stopping once the
    bracket [a, b] has b - a <= 1e-12 max(1, |a|, |b|). The relative test
    terminates on brackets far beyond 1, where an absolute width below the
    float spacing could never be reached. Returns (argmin, min)."""
    best_k, best_v = 0, math.inf
    for k, xk in enumerate(grid):
        v = f(xk)
        if v < best_v:
            best_k, best_v = k, v
    a = grid[max(0, best_k - 1)]
    b = grid[min(len(grid) - 1, best_k + 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-12 * max(1.0, abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    vm = f(xm)
    if vm <= best_v:
        return xm, vm
    return grid[best_k], best_v


def inverse_entropy(y: float, iterations: int = 60) -> float:
    """Inverse of H on [0, 1/2]: returns t with H(t) = y.

    Plain bisection; 60 iterations pin t to about 1e-18 absolute, well below
    the 1e-12 contract for the composed identity H(inverse_entropy(y)) = y.
    """
    if y < 0.0 or y > 1.0:
        raise InputError(f"inverse_entropy: y={y} outside [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return _bisect(lambda t: binary_entropy(t) < y, 0.0, 0.5, iterations)


def exact_binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer. k outside [0, n] gives 0. Capped at n <= 4096."""
    if n < 0 or n > EXACT_BINOMIAL_CAP:
        raise InputError(f"exact_binomial: n={n} outside [0, {EXACT_BINOMIAL_CAP}]")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _binomial_row(n: int) -> list[int]:
    """C(n, i) for i = 0..n by the multiplicative recurrence
    C(n, i+1) = C(n, i) (n-i) / (i+1), mirrored across n/2."""
    row = [1] * (n + 1)
    c = 1
    for i in range(n // 2):
        c = c * (n - i) // (i + 1)
        row[i + 1] = row[n - i - 1] = c
    return row


def _log2_binomial_row(n: int) -> list[float]:
    """log2 C(n, i) for i = 0..n: from the exact integers up to
    EXACT_BINOMIAL_CAP, from log-gamma above it (as log2_binomial)."""
    if n < 0 or n > LOG2_BINOMIAL_CAP:
        raise InputError(f"log2 binomial row: n={n} outside [0, {LOG2_BINOMIAL_CAP}]")
    if n <= EXACT_BINOMIAL_CAP:
        return [log2_bigint(c) for c in _binomial_row(n)]
    lg = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    return ((lg[n] - lg - lg[::-1]) / LN2).tolist()


def log2_binomial(n: int, k: int) -> float:
    """log2 C(n, k) via log-gamma; relative error ~1e-10 up to n = 10^6.

    k outside [0, n] raises instead of returning -inf.
    """
    if n < 0 or n > LOG2_BINOMIAL_CAP:
        raise InputError(f"log2_binomial: n={n} outside [0, {LOG2_BINOMIAL_CAP}]")
    if k < 0 or k > n:
        raise InputError(f"log2_binomial: k={k} outside [0, {n}]")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def log2_bigint(v: int) -> float:
    """log2 of a positive big integer, accurate to float rounding.

    Extracts the top bits so that values far beyond float range stay exact
    to ~1e-16 relative in the log.
    """
    if v <= 0:
        raise InputError("log2_bigint: argument must be positive")
    nbits = v.bit_length()
    if nbits <= 53:
        return math.log2(v)
    shift = nbits - 53
    top = v >> shift
    return math.log2(top) + shift


def log_sum_exp2(exponents: np.typing.ArrayLike) -> float | np.ndarray:
    """log2 of a sum of nonnegative terms given by their log2 exponents,
    reduced along the first axis; -inf is the exponent of a zero term.

    An empty input, or a column of zeros, gives -inf. Accurate to ~1e-15
    absolute in the exponent for up to ~10^7 terms.
    """
    arr = np.asarray(exponents, dtype=float)
    m = arr.max(axis=0, initial=-np.inf)
    # shift zero columns by 0, not by -inf, so that no -inf - -inf arises
    m = np.where(m == -np.inf, 0.0, m)
    with np.errstate(divide="ignore"):
        out = m + np.log2(np.sum(np.exp2(arr - m), axis=0))
    return float(out) if out.ndim == 0 else out


def log_sum_exp2_signed(
    exponents: np.typing.ArrayLike, signs: np.typing.ArrayLike
) -> tuple[int, float] | tuple[np.ndarray, np.ndarray]:
    """Signed base-2 logsumexp along the first axis: returns (sign, log2 of
    |sum|), arrays for 2-d input.

    Terms with sign 0 are skipped. Cancellation between the positive and the
    negative part is resolved in the exponent domain; exact cancellation to
    zero gives sign 0 and -inf.
    """
    e = np.asarray(exponents, dtype=float)
    s = np.asarray(signs)
    pos = np.asarray(log_sum_exp2(np.where(s > 0, e, -np.inf)))
    neg = np.asarray(log_sum_exp2(np.where(s < 0, e, -np.inf)))
    lo, hi = np.minimum(pos, neg), np.maximum(pos, neg)
    live = lo < hi
    hi = np.where(live, hi, 0.0)
    rest = 1.0 - np.power(2.0, np.where(live, lo - hi, -np.inf))
    live &= rest > 0.0
    sign = np.where(live, np.where(pos > neg, 1, -1), 0)
    with np.errstate(divide="ignore"):
        out = np.where(live, hi + np.log2(rest), -np.inf)
    if out.ndim == 0:
        return int(sign), float(out)
    return sign.astype(np.int8), out
