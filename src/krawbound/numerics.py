"""Shared numeric primitives: binary entropy, log-domain binomials, base-2 logsumexp,
and the one bisection and one 1-d minimizer every implicit equation and
minimization oracle runs on.

Everything downstream works with base-2 exponents normalized per dimension n,
so all helpers here speak log2. Exact integer binomials are kept separate from
the log-domain approximations; callers choose explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def binary_entropy_np(t: np.ndarray) -> np.ndarray:
    """Vectorized H for arrays with entries in [0, 1]. Endpoints map to 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inner = (t > 0.0) & (t < 1.0)
    ti = t[inner]
    out[inner] = -ti * np.log2(ti) - (1.0 - ti) * np.log2(1.0 - ti)
    return out


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

    k outside [0, n] raises: there is no -inf convention here, callers that
    need a "zero" value should use LogValue.
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


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity stored as (is_zero, log2 magnitude).

    exponent is meaningless when is_zero is set. Multiplication adds
    exponents, comparison orders zeros below everything.
    """

    exponent: float
    is_zero: bool = False

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0.0, True)

    @staticmethod
    def from_float(v: float) -> "LogValue":
        if v < 0.0:
            raise InputError("LogValue.from_float: negative value")
        if v == 0.0:
            return LogValue.zero()
        return LogValue(math.log2(v))

    @staticmethod
    def from_bigint(v: int) -> "LogValue":
        if v == 0:
            return LogValue.zero()
        if v < 0:
            raise InputError("LogValue.from_bigint: negative value")
        return LogValue(log2_bigint(v))

    def to_float(self) -> float:
        return 0.0 if self.is_zero else 2.0 ** self.exponent

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return LogValue.zero()
        return LogValue(self.exponent + other.exponent)

    def __lt__(self, other: "LogValue") -> bool:
        if self.is_zero:
            return not other.is_zero
        if other.is_zero:
            return False
        return self.exponent < other.exponent

    def __le__(self, other: "LogValue") -> bool:
        return self < other or self == other


def log_sum_exp2(terms: Iterable[LogValue | float]) -> LogValue:
    """log2 of a sum of nonnegative terms given by their log2 exponents.

    Accepts plain floats (treated as exponents of nonzero terms) or LogValue.
    An empty input, or all-zero terms, gives LogValue.zero(). Accurate to
    ~1e-15 absolute in the exponent for up to ~10^7 terms.
    """
    exps = []
    for t in terms:
        if isinstance(t, LogValue):
            if not t.is_zero:
                exps.append(t.exponent)
        else:
            exps.append(float(t))
    if not exps:
        return LogValue.zero()
    arr = np.asarray(exps, dtype=float)
    m = float(arr.max())
    s = float(np.sum(np.exp2(arr - m)))
    return LogValue(m + math.log2(s))


def log_sum_exp2_signed(
    exponents: Sequence[float], signs: Sequence[int]
) -> tuple[int, LogValue]:
    """Signed base-2 logsumexp: returns (sign, LogValue of |sum|).

    Terms with sign 0 are skipped. Cancellation between the positive and the
    negative part is resolved in the exponent domain; exact cancellation to
    zero returns (0, LogValue.zero()).
    """
    pos = [e for e, s in zip(exponents, signs) if s > 0]
    neg = [e for e, s in zip(exponents, signs) if s < 0]
    p = log_sum_exp2(pos)
    q = log_sum_exp2(neg)
    if p.is_zero and q.is_zero:
        return 0, LogValue.zero()
    if q.is_zero:
        return 1, p
    if p.is_zero:
        return -1, q
    if p.exponent == q.exponent:
        return 0, LogValue.zero()
    big, small, sign = (p, q, 1) if p.exponent > q.exponent else (q, p, -1)
    diff = small.exponent - big.exponent
    rest = 1.0 - 2.0 ** diff
    if rest <= 0.0:
        return 0, LogValue.zero()
    return sign, LogValue(big.exponent + math.log2(rest))
