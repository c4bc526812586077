"""Shared numeric primitives: binary entropy, log-domain binomials, base-2 logsumexp,
and the one root-bracketing solver and one 1-d minimizer (a grid scan, then
Brent's method) every implicit equation and minimization oracle runs on.

Everything downstream works with base-2 exponents normalized per dimension n,
so all helpers here speak log2, with -inf as the log of zero. Exact integer
binomials are kept separate from the log-domain approximations; callers
choose explicitly. numpy is imported only inside log_sum_exp2*, so that the
scalar helpers and the log2-binomial row never load it.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:
    import numpy as np

LN2 = math.log(2.0)

EXACT_BINOMIAL_CAP = 4096
LOG2_BINOMIAL_CAP = 10**6
ROW_CACHE_SIZE = 16  # rows each cached row builder keeps, the least recently used dropped first


class InputError(ValueError):
    """Raised when arguments fall outside a documented domain."""


class InternalError(RuntimeError):
    """Raised when an internal consistency check fails (not a caller error)."""


def _integer(who: str, label: str, v) -> int:
    """v as an int; any other value, a whole float too, is an InputError
    rather than truncated. numpy integers pass, as int, so that a numpy
    uint8 cannot wrap the arithmetic done with it."""
    # int first: numbers.Integral costs ~0.4 us
    if not (type(v) is int or isinstance(v, numbers.Integral)):
        raise InputError(f"{who}: need integers, got {label}={v!r}")
    return int(v)


def binary_entropy(t: float) -> float:
    """H(t) = -t log2 t - (1-t) log2(1-t), with H(0) = H(1) = 0."""
    if isinstance(t, (int, float)) is False:
        t = float(t)
    if not 0.0 <= t <= 1.0:
        raise InputError(f"binary_entropy: t={t} outside [0, 1]")
    return _entropy(t)


def _entropy(t: float) -> float:
    """binary_entropy's formula, for t already in [0, 1]."""
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def linspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """count evenly spaced floats from lo to hi, both ends included, with
    the bits of np.linspace: i * step + lo with step = (hi - lo) / (count -
    1), the last value hi, and i / (count - 1) * (hi - lo) + lo where the
    step underflows to 0."""
    lo, hi = float(lo), float(hi)
    div, delta = count - 1, hi - lo
    if div < 1:
        return tuple(i * delta + lo for i in range(count))
    step = delta / div
    if step == 0.0:
        values = [i / div * delta + lo for i in range(count)]
    else:
        values = [i * step + lo for i in range(count)]
    values[-1] = hi
    return tuple(values)


def _solve(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Shrink [lo, hi] around the point where the residual g turns from
    negative (left of it) to nonnegative, until no float lies strictly
    between the two ends; returns the midpoint of the final bracket. The
    ends are never evaluated.

    Each step is ITP's (Oliveira & Takahashi 2021), or the midpoint while an
    end is unevaluated: the regula falsi point moved toward the midpoint by
    delta = k1 w^2, with w = hi - lo and k1 = 0.2 / (initial width), or the
    midpoint where delta reaches it; kept a float spacing or two inside the
    bracket, so that the far end moves once the near end has converged; and
    projected onto [hi - reach, lo + reach], where `reach` starts at the
    initial width and halves at every step (ITP's n0 = 1). After k steps the
    bracket is at most twice bisection's, so a solve takes at most about one
    evaluation beyond bisection's; where `g < 0` is monotone, the final
    bracket, and so the result, is bisection's.
    """
    glo = ghi = math.nan  # residuals at the ends; nan until evaluated
    width0 = reach = hi - lo
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        w = hi - lo
        t = lo + w * (glo / (glo - ghi))
        delta = 0.2 * w * (w / width0)
        t = t + math.copysign(delta, mid - t) if delta <= abs(mid - t) else mid
        nudge = abs(t) * 2.0**-52
        if t < lo + nudge:
            t = lo + nudge
        elif t > hi - nudge:
            t = hi - nudge
        if t > lo + reach:
            t = lo + reach
        elif t < hi - reach:
            t = hi - reach
        if not lo < t < hi:  # a step rounded onto an end
            t = mid
        v = g(t)
        if v < 0.0:
            lo, glo = t, v
        else:
            hi, ghi = t, v
        reach *= 0.5
        mid = 0.5 * (lo + hi)
    return mid


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0  # the golden-section fraction 2 - phi


def _minimize_1d(f: Callable[[float], float], grid: Sequence[float]) -> tuple[float, float]:
    """Minimize f: scan it at the increasing grid points, then refine the two
    cells around the first least of them by Brent's method (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5): a
    parabolic step through the three best points where it falls inside the
    bracket and moves less than half the step before last, else a golden-
    section step into the larger side. The search starts from the least grid
    point and evaluates f only inside the bracket. With w = 1e-12 max(1,
    |a|, |b|) on the bracket [a, b], it stops once the best x lies within w
    of both ends, at the latest when b - a <= w; the relative w terminates
    on brackets far beyond 1, where an absolute width below the float
    spacing could never be reached. It returns the midpoint of that bracket
    and f there, or the least grid point where f is lower: one fresh value,
    where the least of all values seen would be biased low by f's rounding
    (against 40-digit mpmath, cap_F at p near 1000 then read high at 119 of
    120 points). A NaN at a grid point raises InternalError. Returns
    (argmin, min)."""
    values = [f(t) for t in grid]
    if any(math.isnan(v) for v in values):
        raise InternalError("_minimize_1d: NaN among the grid values")
    k = values.index(min(values))
    a, b = grid[max(0, k - 1)], grid[min(len(grid) - 1, k + 1)]
    x = w = v = grid[k]
    fx = fw = fv = values[k]
    d = e = 0.0  # the last step, and the one before it
    while True:
        m = 0.5 * (a + b)
        tol2 = 1e-12 * max(1.0, abs(a), abs(b))
        tol1 = 0.5 * tol2  # no two evaluations closer than this
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            vm = f(m)
            return (m, vm) if vm <= values[k] else (grid[k], values[k])
        p = q = r = 0.0
        if abs(e) > tol1:
            # the parabola through (x, fx), (w, fw), (v, fv): its vertex is x + p/q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, e = e, d
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < tol2 or b - x - d < tol2:
                d = math.copysign(tol1, m - x)
        else:
            e = (a if x >= m else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = f(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (a, u) if u >= x else (u, b)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def inverse_entropy(y: float) -> float:
    """Inverse of H on [0, 1/2]: returns t with H(t) = y.

    Solved to float resolution, so H(inverse_entropy(y)) = y holds
    to 1e-12 relative down to the smallest y, where t is far below any
    absolute grid on [0, 1/2]. H(t) >= 2t on [0, 1/2] brackets t in
    [0, y/2], so a tiny y takes about as many steps as y = 1/2.
    """
    if not 0.0 <= y <= 1.0:
        raise InputError(f"inverse_entropy: y={y} outside [0, 1]")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 0.5
    return _solve(lambda t: _entropy(t) - y, 0.0, 0.5 * y)


def exact_binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer. k outside [0, n] gives 0. Capped at n <= 4096."""
    n, k = _integer("exact_binomial", "n", n), _integer("exact_binomial", "k", k)
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


def _log2_binomial_row(n: int) -> memoryview:
    """log2 C(n, i) for i = 0..n as a read-only memoryview of doubles (Python
    floats to index; numpy reads it without a copy): math.log2 of the exact
    integers up to EXACT_BINOMIAL_CAP (it takes a big int, rounding its top
    53 bits to nearest), from log-gamma above it (as log2_binomial). The last
    ROW_CACHE_SIZE rows are kept and shared by every caller, 8 (n + 1) bytes
    each: 128 MB at worst, at n = 10^6."""
    n = _integer("log2 binomial row", "n", n)
    if n < 0 or n > LOG2_BINOMIAL_CAP:
        raise InputError(f"log2 binomial row: n={n} outside [0, {LOG2_BINOMIAL_CAP}]")
    return _log2_binomial_row_built(n)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _log2_binomial_row_built(n: int) -> memoryview:
    from array import array  # a shared library that only this builder loads

    if n <= EXACT_BINOMIAL_CAP:
        row = array("d", map(math.log2, _binomial_row(n)))
    else:
        lg = list(map(math.lgamma, range(1, n + 2)))  # lgamma(k + 1), k = 0..n
        row = array("d", [(lg[n] - a - b) / LN2 for a, b in zip(lg, reversed(lg))])
    return memoryview(row).toreadonly()


def log2_binomial(n: int, k: int) -> float:
    """log2 C(n, k) via log-gamma; relative error ~1e-10 up to n = 10^6.

    k outside [0, n] raises instead of returning -inf.
    """
    if n < 0 or n > LOG2_BINOMIAL_CAP:
        raise InputError(f"log2_binomial: n={n} outside [0, {LOG2_BINOMIAL_CAP}]")
    if k < 0 or k > n:
        raise InputError(f"log2_binomial: k={k} outside [0, {n}]")
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / LN2


def log_sum_exp2(exponents: np.typing.ArrayLike) -> float | np.ndarray:
    """log2 of a sum of nonnegative terms given by their log2 exponents,
    reduced along the first axis; -inf is the exponent of a zero term.

    An empty input, or a column of zeros, gives -inf. Accurate to ~1e-15
    absolute in the exponent for up to ~10^7 terms.
    """
    import numpy as np

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
    import numpy as np

    e = np.asarray(exponents, dtype=float)
    s = np.asarray(signs)
    pos = np.asarray(log_sum_exp2(np.where(s > 0, e, -np.inf)))
    neg = np.asarray(log_sum_exp2(np.where(s < 0, e, -np.inf)))
    lo, hi = np.minimum(pos, neg), np.maximum(pos, neg)
    live = lo < hi
    hi = np.where(live, hi, 0.0)
    # 1 - 2^d as -expm1(d ln 2): accurate to rounding when the parts nearly cancel
    rest = -np.expm1(np.where(live, lo - hi, -np.inf) * LN2)
    live &= rest > 0.0
    sign = np.where(live, np.where(pos > neg, 1, -1), 0)
    with np.errstate(divide="ignore"):
        out = np.where(live, hi + np.log2(rest), -np.inf)
    if out.ndim == 0:
        return int(sign), float(out)
    return sign.astype(np.int8), out
