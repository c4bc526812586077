"""Krawchouk polynomial engine.

K_s(x) = sum_{k=0}^s (-1)^k C(x,k) C(n-x,s-k) on the cube of dimension n.
The weight recurrence in i is the one exact engine: it gives every exact row,
table and integer value. The explicit sum and the exact degree recurrence in
s are independent oracles kept with the tests; here the degree recurrence
only evaluates K_s at real x in floats and gives the Jacobi matrix of roots.
Under the binomial measure mu(i) = C(n,i)/2^n the squared norm of K_s is
C(n,s), and its lp moments concentrate near the solution i0 of
h(p, i0/n) = 1 - 2s/n. numpy is imported inside the functions that build
arrays, so that the exact tables alone never load it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .bivariate import solve_h_inverse
from .numerics import (
    EXACT_BINOMIAL_CAP,
    LOG2_BINOMIAL_CAP,
    ROW_CACHE_SIZE,
    InputError,
    InternalError,
    _integer,
    _log2_binomial_row,
    log2_binomial,
    log_sum_exp2,
)

if TYPE_CHECKING:
    import numpy as np

KRAW_TABLE_CAP = EXACT_BINOMIAL_CAP  # 4096
KRAW_MOMENT_CAP = LOG2_BINOMIAL_CAP
KRAW_ROOT_CAP = 2048  # kraw_roots / l2_between_roots; tested up to s = n/2 at n = 2048


class KrawTable(NamedTuple):
    """Exact values K_s(i), i = 0..n."""

    n: int
    s: int
    values: tuple[int, ...]


class RootList(NamedTuple):
    """The s real roots of K_s in increasing order."""

    n: int
    s: int
    roots: tuple[float, ...]


class MomentRecord(NamedTuple):
    """log2 E|K_s|^p and the normalized ratio exponent log2 r(n,s,p)."""

    n: int
    s: int
    p: float
    log2_moment: float
    log2_ratio: float
    mode: str  # 'exact' (s = 0 or n) | 'exact-assisted' (n <= 4096) | 'log'


class IntervalRecord(NamedTuple):
    """Norm attainment on one root-delimited interval."""

    lo: float
    hi: float
    best_i: int | None
    attainment_factor: float
    empty: bool = False


class ConcentrationRecord(NamedTuple):
    n: int
    s: int
    p: float
    window: float
    window_halfwidth: float
    i0: float
    mass_in_window: float
    outside_proposition_range: bool = False


def _degree(who: str, n, s) -> tuple[int, int]:
    """(n, s) as ints, or an InputError unless both are integers with
    0 <= s <= n; numpy integers pass, a whole float does not."""
    n, s = _integer(who, "n", n), _integer(who, "s", s)
    if not 0 <= s <= n:
        raise InputError(f"{who}: need 0 <= s <= n, got n={n}, s={s}")
    return n, s


def _kraw_row_weight_recurrence(n: int, s: int) -> list[int]:
    """Exact row via the weight recurrence
    (n-i) K_s(i+1) = (n-2s) K_s(i) - i K_s(i-1), mirrored across n/2.

    Exact integer division at every step, O(n) big-integer operations.
    """
    if not (0 <= s <= n):
        raise InputError(f"need 0 <= s <= n, got n={n}, s={s}")
    mid = n // 2
    row = [0] * (n + 1)
    row[0] = math.comb(n, s)
    if n >= 1:
        prev, cur = None, row[0]
        for i in range(0, mid):
            num = (n - 2 * s) * cur - (i * prev if i > 0 else 0)
            q, r = divmod(num, n - i)
            if r:
                raise InternalError("weight recurrence: non-integer step")
            row[i + 1] = q
            prev, cur = cur, q
    sign = -1 if (s & 1) else 1
    for i in range(mid + 1):
        row[n - i] = sign * row[i]
    return row


def kraw_table(n: int, s: int) -> KrawTable:
    """Exact K_s table, i = 0..n, by the weight recurrence."""
    n, s = _degree("kraw_table", n, s)
    if n > KRAW_TABLE_CAP:
        raise InputError(f"kraw_table: n={n} exceeds cap {KRAW_TABLE_CAP}")
    return KrawTable(n, s, tuple(_kraw_row_weight_recurrence(n, s)))


def _rescale(a: float, b: float, e: int) -> tuple[float, float, int]:
    """The pair (a, b) * 2^e of a scaled-float recurrence, brought back to
    max(|a|, |b|) in [1/2, 1) once that exponent passes +-500: a shift by a
    power of two, so the values it stands for do not change."""
    k = math.frexp(max(abs(a), abs(b)))[1]
    if abs(k) > 500:
        return math.ldexp(a, -k), math.ldexp(b, -k), e + k
    return a, b, e


def kraw_log_row(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of (sign, log2|K_s(i)|) pairs, i = 0..n, as read-only int8 and
    float64 arrays.

    Exact-assisted for n <= 4096; beyond that the weight recurrence runs in
    scaled floats with mirroring across n/2. Zeros carry sign 0. The last
    ROW_CACHE_SIZE rows are kept and shared by every caller, 9 (n + 1) bytes
    each; with the log2 binomial row of the same n that every moment reads,
    about 17 (n + 1) bytes per (n, s) cached, 272 MB at worst, at n = 10^6.
    """
    n, s = _degree("kraw_log_row", n, s)
    if n > KRAW_MOMENT_CAP:
        raise InputError(f"kraw_log_row: n={n} exceeds cap {KRAW_MOMENT_CAP}")
    return _kraw_log_row_built(n, s)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _kraw_log_row_built(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    if n <= KRAW_TABLE_CAP:
        row = _kraw_row_weight_recurrence(n, s)
        signs = [(v > 0) - (v < 0) for v in row]
        logs = [math.log2(abs(v)) if v else -math.inf for v in row]
    else:
        mid = n // 2
        # scaled-float weight recurrence: the pair (K(i-1), K(i)) is (a, b) * 2^e
        # with one exponent, so an exact zero never carries a stale one
        a, b, e = 0.0, 1.0, 0
        c, lo, hi = n - 2 * s, 2.0**-501, 2.0**500
        base = log2_binomial(n, s)
        signs, logs = [1], [base]
        for i in range(0, mid):
            a, b = b, (c * b - i * a) / (n - i)
            # _rescale acts only once max(|a|, |b|) leaves [lo, hi): tested
            # inline, as a call per step costs more than the step
            if not (-hi < a < hi and -hi < b < hi) or (-lo < a < lo and -lo < b < lo):
                a, b, e = _rescale(a, b, e)
            signs.append((b > 0) - (b < 0))
            logs.append(base + math.log2(abs(b)) + e if b else -math.inf)
        if n % 2 == 0 and s % 2 == 1:
            # K_s(n/2) = -K_s(n/2) forces an exact zero the float recurrence
            # only approximates
            signs[mid], logs[mid] = 0, -math.inf
        # mirrored across n/2: K_s(n - i) = (-1)^s K_s(i)
        sgn = -1 if (s & 1) else 1
        signs += [sgn * v for v in signs[n - mid - 1 :: -1]]
        logs += logs[n - mid - 1 :: -1]
    signs, logs = np.array(signs, dtype=np.int8), np.array(logs)
    signs.flags.writeable = logs.flags.writeable = False
    return signs, logs


def _kraw_eval_scaled(n: int, s: int, x: float) -> tuple[float, int]:
    """K_s(x) for real x as (mantissa, exp2) via the degree recurrence."""
    if s == 0:
        return 1.0, 0
    a, b, e = 1.0, float(n) - 2.0 * x, 0  # K_0, K_1
    for j in range(1, s):
        a, b, e = _rescale(b, ((n - 2.0 * x) * b - (n - j + 1) * a) / (j + 1), e)
    return b, e


def kraw_eval_real(n: int, s: int, x: float) -> float:
    """K_s at a real point x.

    At integer x in [0, n] with n <= 4096 the exact integer value is used, so
    agreement with kraw_table is limited only by float rounding. Elsewhere the
    degree recurrence runs in scaled floats; a value beyond float range maps
    to +-inf, and one below it to 0.
    """
    n, s = _degree("kraw_eval_real", n, s)
    if not abs(x) <= sys.float_info.max:
        # an int beyond the float range overflows math.isfinite and may be too long for str
        shown = f"x={x}" if isinstance(x, float) else f"an x of type {type(x).__name__} beyond it"
        raise InputError(f"kraw_eval_real: need a finite x in the float range, got {shown}")
    if x == round(x) and 0 <= x <= n and n <= KRAW_TABLE_CAP:
        return float(_kraw_row_weight_recurrence(n, s)[int(round(x))])
    m, e = _kraw_eval_scaled(n, s, x)
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


@lru_cache(maxsize=ROW_CACHE_SIZE)
def _roots_and_counts(n: int, s: int) -> tuple[tuple[float, ...], tuple[int, ...], tuple[int, ...]]:
    """Roots of K_s (eigenvalues of the Jacobi matrix of the degree recurrence,
    Golub-Welsch), its exact row, and the number of roots below each integer
    i = 0..n, as tuples. Checked: every nonzero K_s(i) has sign
    (-1)^{#roots below i} and every exact zero has a root within 1e-9. The
    last ROW_CACHE_SIZE results are kept and shared by kraw_roots and
    l2_between_roots: 32 bytes a root and at most 36 a count (a slot and a
    Python number), at most about 0.31 MB each (n = 2048, s = 1024), 0.22 MB
    of it the exact row."""
    import numpy as np

    j = np.arange(1, s)
    jacobi = np.diag(np.full(s, n / 2.0))
    jacobi[j, j - 1] = jacobi[j - 1, j] = np.sqrt(j * (n - j + 1.0)) / 2.0
    roots = np.linalg.eigvalsh(jacobi)
    below = np.searchsorted(roots, np.arange(n + 1))
    row = _kraw_row_weight_recurrence(n, s)
    for i, v in enumerate(row):
        if (np.abs(roots - i).min() > 1e-9) if v == 0 else (v < 0) != bool(below[i] & 1):
            raise InternalError(
                f"kraw_roots: eigenvalues disagree with the sign of K_{s}({i}) at n={n}"
            )
    return tuple(roots.tolist()), tuple(row), tuple(below.tolist())


def kraw_roots(n: int, s: int) -> RootList:
    """All s roots of K_s, in increasing order: the eigenvalues of the Jacobi
    matrix of the degree recurrence, cross-checked against the exact signs
    of K_s at the integers 0..n."""
    n, s = _degree("kraw_roots", n, s)
    if not (1 <= s <= n / 2):
        raise InputError(f"kraw_roots: need 1 <= s <= n/2, got n={n}, s={s}")
    if n > KRAW_ROOT_CAP:
        raise InputError(f"kraw_roots: n={n} exceeds cap {KRAW_ROOT_CAP}")
    return RootList(n, s, _roots_and_counts(n, s)[0])


def kraw_moments(n: int, s: int, p: float) -> MomentRecord:
    """log2 E|K_s|^p = log2[(1/2^n) sum_i C(n,i)|K_s(i)|^p] and the
    normalized exponent log2 r(n,s,p) = log2 E|K_s|^p - (p/2) log2 C(n,s),
    summed in log2 over kraw_log_row for every finite p."""
    n, s = _degree("kraw_moments", n, s)
    if not 1 <= p < math.inf:
        raise InputError(f"kraw_moments: need finite p >= 1, got p={p}")
    if n > KRAW_MOMENT_CAP:
        raise InputError(f"kraw_moments: n={n} exceeds cap {KRAW_MOMENT_CAP}")
    if s == 0 or s == n:
        # |K_0| = 1, |K_n(i)| = 1
        return MomentRecord(n, s, p, 0.0, 0.0, "exact")
    _, logs = kraw_log_row(n, s)
    lc = _log2_binomial_row(n)
    mode = "exact-assisted" if n <= KRAW_TABLE_CAP else "log"
    log2_moment = log_sum_exp2(lc + p * logs - n)
    return MomentRecord(n, s, p, log2_moment, log2_moment - (p / 2.0) * lc[s], mode)


def solve_i0(n: float, s: float, p: float) -> float:
    """The unique i0 in [0, n/2] with h(p, i0/n) = 1 - 2s/n.

    h(p, .) increases from 0 to 1 on [0, 1/2], so s = n/2 gives i0 = 0 and
    s = 0 gives i0 = n/2. Solved in log2(i0/n) by solve_h_inverse: near
    s = n/2 with large p, i0/n falls far below any absolute grid on [0, 1/2].
    """
    if not p >= 2:
        raise InputError(f"solve_i0: need p >= 2, got p={p}")
    if not (n > 0 and 0 <= s <= n / 2):
        raise InputError(f"solve_i0: need n > 0 and 0 <= s <= n/2, got n={n}, s={s}")
    return n * solve_h_inverse(p, 1.0 - 2.0 * s / n)


def lp_concentration(
    n: int, s: int, p: float, window: float
) -> ConcentrationRecord:
    """Fraction of sum_i C(n,i)|K_s(i)|^p carried by the weights within
    window*sqrt(n ln n) of i0 and of n - i0."""
    import numpy as np

    if not 2 < p < math.inf:
        raise InputError(f"lp_concentration: need finite p > 2, got p={p}")
    n, s = _degree("lp_concentration", n, s)
    s_eff = min(s, n - s)
    i0 = solve_i0(n, s_eff, p)
    s0 = n / math.log(n) if n > 1 else 0.0
    outside = not (s0 < s_eff < n / 2 - s0)
    halfwidth = window * math.sqrt(n * math.log(n)) if n > 1 else 0.0
    _, logs = kraw_log_row(n, s)
    terms = _log2_binomial_row(n) + p * logs
    i = np.arange(n + 1)
    inside = (np.abs(i - i0) <= halfwidth) | (np.abs(i - (n - i0)) <= halfwidth)
    mass = 2.0 ** (log_sum_exp2(np.where(inside, terms, -np.inf)) - log_sum_exp2(terms))
    return ConcentrationRecord(
        n, s, p, window, halfwidth, i0, min(mass, 1.0), outside
    )


def l2_between_roots(n: int, s: int) -> list[IntervalRecord]:
    """Attainment of the l2 mass on each root-delimited interval.

    For each of the s+1 maximal intervals cut out by the roots y_1 < .. < y_s
    (including [0, y_1) and (y_s, n]), reports the best integer i and
    attainment_factor = max_i [C(n,i) K_s(i)^2 / 2^n] / C(n,s) in (0, 1].
    """
    n, s = _degree("l2_between_roots", n, s)
    if not (1 <= s <= n / 2):
        raise InputError(f"l2_between_roots: need 1 <= s <= n/2, got n={n}, s={s}")
    if n > KRAW_ROOT_CAP:
        raise InputError(f"l2_between_roots: n={n} exceeds cap {KRAW_ROOT_CAP}")
    roots, row, below = _roots_and_counts(n, s)
    lc = _log2_binomial_row(n)
    best_i: list[int | None] = [None] * (s + 1)
    best = [0.0] * (s + 1)
    for i, v in enumerate(row):
        # an integer that is not a root lies inside interval k = #roots below it
        if v == 0:
            continue
        k = below[i]
        fi = 2.0 ** (lc[i] + 2.0 * math.log2(abs(v)) - n - lc[s])
        if best_i[k] is None or fi > best[k]:
            best_i[k], best[k] = i, fi
    bounds = [0.0, *roots, float(n)]
    return [
        IntervalRecord(bounds[k], bounds[k + 1], best_i[k], best[k], empty=best_i[k] is None)
        for k in range(s + 1)
    ]
