"""Krawchouk polynomial engine.

K_s(x) = sum_{k=0}^s (-1)^k C(x,k) C(n-x,s-k) on the cube of dimension n.
Exact integer tables are the source of truth (explicit sum); a weight
recurrence and a degree recurrence serve as cross-checks and as fast paths.
Under the binomial measure mu(i) = C(n,i)/2^n the squared norm of K_s is
C(n,s), and its lp moments concentrate near the solution i0 of
h(p, i0/n) = 1 - 2s/n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bivariate import solve_h_inverse
from .numerics import (
    EXACT_BINOMIAL_CAP,
    InputError,
    InternalError,
    _binomial_row,
    _log2_binomial_row,
    log2_bigint,
    log2_binomial,
    log_sum_exp2,
)

KRAW_TABLE_CAP = EXACT_BINOMIAL_CAP  # 4096
KRAW_MOMENT_CAP = 10 ** 6
KRAW_ROOT_CAP = 2048  # kraw_roots / l2_between_roots; tested up to s = n/2 at n = 2048


@dataclass(frozen=True)
class KrawTable:
    """Exact values K_s(i), i = 0..n."""

    n: int
    s: int
    values: tuple[int, ...]


@dataclass(frozen=True)
class RootList:
    """The s real roots of K_s in increasing order."""

    n: int
    s: int
    roots: tuple[float, ...]

    @property
    def first_root(self) -> float:
        return self.roots[0]

    @property
    def min_spacing(self) -> float:
        if len(self.roots) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.roots, self.roots[1:]))


@dataclass(frozen=True)
class MomentRecord:
    """log2 E|K_s|^p and the normalized ratio exponent log2 r(n,s,p)."""

    n: int
    s: int
    p: float
    log2_moment: float
    log2_ratio: float
    mode: str  # 'exact' | 'log'


@dataclass(frozen=True)
class IntervalRecord:
    """Norm attainment on one root-delimited interval."""

    lo: float
    hi: float
    best_i: int | None
    attainment_factor: float
    empty: bool = False


@dataclass(frozen=True)
class ConcentrationRecord:
    n: int
    s: int
    p: float
    window: float
    window_halfwidth: float
    i0: float
    mass_in_window: float
    outside_proposition_range: bool = False


def _kraw_sum(n: int, s: int, i: int) -> int:
    """K_s(i) by the explicit alternating sum over k of C(i,k) C(n-i,s-k)."""
    comb = math.comb
    acc = 0
    for k in range(s + 1):
        term = comb(i, k) * comb(n - i, s - k)
        acc = acc - term if (k & 1) else acc + term
    return acc


def kraw_table(n: int, s: int) -> KrawTable:
    """Exact K_s table via the explicit alternating binomial sum."""
    if not (0 <= s <= n):
        raise InputError(f"kraw_table: need 0 <= s <= n, got n={n}, s={s}")
    if n > KRAW_TABLE_CAP:
        raise InputError(f"kraw_table: n={n} exceeds cap {KRAW_TABLE_CAP}")
    return KrawTable(n, s, tuple(_kraw_sum(n, s, i) for i in range(n + 1)))


def kraw_table_recurrence(n: int, s: int) -> KrawTable:
    """Cross-check table via the degree recurrence
    (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i), seeded by
    K_0 = 1, K_1(i) = n - 2i."""
    if not (0 <= s <= n):
        raise InputError(f"kraw_table_recurrence: need 0 <= s <= n, got n={n}, s={s}")
    if n > KRAW_TABLE_CAP:
        raise InputError(f"kraw_table_recurrence: n={n} exceeds cap {KRAW_TABLE_CAP}")
    prev = [1] * (n + 1)
    if s == 0:
        return KrawTable(n, s, tuple(prev))
    cur = [n - 2 * i for i in range(n + 1)]
    for j in range(1, s):
        nxt = []
        for i in range(n + 1):
            num = (n - 2 * i) * cur[i] - (n - j + 1) * prev[i]
            q, r = divmod(num, j + 1)
            if r:
                raise InternalError("kraw_table_recurrence: non-integer step")
            nxt.append(q)
        prev, cur = cur, nxt
    return KrawTable(n, s, tuple(cur))


def _kraw_row_weight_recurrence(n: int, s: int) -> list[int]:
    """Exact row via the weight recurrence
    (n-i) K_s(i+1) = (n-2s) K_s(i) - i K_s(i-1), mirrored across n/2.

    Exact integer division at every step; used as the fast exact path for
    moments and profiles at large n.
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


def kraw_log_row(n: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Row of (sign, log2|K_s(i)|) pairs, i = 0..n.

    Exact-assisted for n <= 4096; beyond that the weight recurrence runs in
    log magnitude + sign with mirroring across n/2. Zeros carry sign 0.
    """
    if not (0 <= s <= n):
        raise InputError(f"kraw_log_row: need 0 <= s <= n, got n={n}, s={s}")
    if n > KRAW_MOMENT_CAP:
        raise InputError(f"kraw_log_row: n={n} exceeds cap {KRAW_MOMENT_CAP}")
    signs = np.zeros(n + 1, dtype=np.int8)
    logs = np.full(n + 1, -np.inf)
    if n <= KRAW_TABLE_CAP:
        row = _kraw_row_weight_recurrence(n, s)
        for i, v in enumerate(row):
            if v > 0:
                signs[i] = 1
                logs[i] = log2_bigint(v)
            elif v < 0:
                signs[i] = -1
                logs[i] = log2_bigint(-v)
        return signs, logs
    mid = n // 2
    # scaled-float weight recurrence: track K as mantissa * 2^e
    m_prev, e_prev = 0.0, 0
    m_cur, e_cur = 1.0, 0
    base = log2_binomial(n, s)
    signs[0] = 1
    logs[0] = base
    c = n - 2 * s
    for i in range(0, mid):
        # align exponents of the two terms
        t1_m, t1_e = c * m_cur, e_cur
        t2_m, t2_e = (i * m_prev, e_prev) if i > 0 else (0.0, e_cur)
        e = max(t1_e, t2_e)
        num = t1_m * 2.0 ** (t1_e - e) - t2_m * 2.0 ** (t2_e - e)
        m_new, e_new = num / (n - i), e
        if m_new != 0.0:
            adj = math.frexp(m_new)[1]
            if abs(adj) > 500:
                m_new = math.ldexp(m_new, -adj)
                e_new += adj
        m_prev, e_prev = m_cur, e_cur
        m_cur, e_cur = m_new, e_new
        if m_cur != 0.0:
            signs[i + 1] = 1 if m_cur > 0 else -1
            logs[i + 1] = base + math.log2(abs(m_cur)) + e_cur
    sgn = -1 if (s & 1) else 1
    if n % 2 == 0 and s % 2 == 1:
        # K_s(n/2) = -K_s(n/2) forces an exact zero the float recurrence
        # only approximates
        signs[mid] = 0
        logs[mid] = -np.inf
    for i in range(mid + 1):
        signs[n - i] = sgn * signs[i]
        logs[n - i] = logs[i]
    return signs, logs


def _kraw_eval_scaled(n: int, s: int, x: float) -> tuple[float, int]:
    """K_s(x) for real x as (mantissa, exp2) via the degree recurrence."""
    if s == 0:
        return 1.0, 0
    a, b = 1.0, float(n) - 2.0 * x  # K_0, K_1
    e = 0
    for j in range(1, s):
        c = ((n - 2.0 * x) * b - (n - j + 1) * a) / (j + 1)
        a, b = b, c
        m = max(abs(a), abs(b))
        if m > 2.0 ** 500:
            a = math.ldexp(a, -500)
            b = math.ldexp(b, -500)
            e += 500
        elif 0.0 < m < 2.0 ** -500:
            a = math.ldexp(a, 500)
            b = math.ldexp(b, 500)
            e -= 500
    return b, e


def kraw_eval_real(n: int, s: int, x: float) -> float:
    """K_s at a real point x.

    At integer x in [0, n] with n <= 4096 the exact integer value is used, so
    agreement with kraw_table is limited only by float rounding. Elsewhere the
    degree recurrence runs in scaled floats (overflow maps to +-inf).
    """
    if not (0 <= s <= n):
        raise InputError(f"kraw_eval_real: need 0 <= s <= n, got n={n}, s={s}")
    if x == round(x) and 0 <= x <= n and n <= KRAW_TABLE_CAP:
        return float(_kraw_sum(n, s, int(round(x))))
    m, e = _kraw_eval_scaled(n, s, x)
    return math.ldexp(m, e) if abs(e) < 16000 else (math.inf if m > 0 else -math.inf)


def _roots_and_counts(n: int, s: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Roots of K_s (eigenvalues of the Jacobi matrix of the degree recurrence,
    Golub-Welsch), its exact row, and the number of roots below each integer
    i = 0..n. Checked: every nonzero K_s(i) has sign (-1)^{#roots below i}
    and every exact zero has a root within 1e-9."""
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
    return roots, row, below


def kraw_roots(n: int, s: int) -> RootList:
    """All s roots of K_s, in increasing order: the eigenvalues of the Jacobi
    matrix of the degree recurrence, cross-checked against the exact signs
    of K_s at the integers 0..n."""
    if not (1 <= s <= n / 2):
        raise InputError(f"kraw_roots: need 1 <= s <= n/2, got n={n}, s={s}")
    if n > KRAW_ROOT_CAP:
        raise InputError(f"kraw_roots: n={n} exceeds cap {KRAW_ROOT_CAP}")
    roots, _, _ = _roots_and_counts(n, s)
    return RootList(n, s, tuple(roots.tolist()))


def kraw_moments(n: int, s: int, p: float) -> MomentRecord:
    """log2 E|K_s|^p = log2[(1/2^n) sum_i C(n,i)|K_s(i)|^p] and the
    normalized exponent log2 r(n,s,p) = log2 E|K_s|^p - (p/2) log2 C(n,s)."""
    if not (0 <= s <= n):
        raise InputError(f"kraw_moments: need 0 <= s <= n, got n={n}, s={s}")
    if p < 1:
        raise InputError(f"kraw_moments: need p >= 1, got p={p}")
    if n > KRAW_MOMENT_CAP:
        raise InputError(f"kraw_moments: n={n} exceeds cap {KRAW_MOMENT_CAP}")
    if s == 0 or s == n:
        # |K_0| = 1, |K_n(i)| = 1
        return MomentRecord(n, s, p, 0.0, 0.0, "exact")
    if n <= KRAW_TABLE_CAP and float(p).is_integer() and p <= 8:
        # exact big-integer sum
        row = _kraw_row_weight_recurrence(n, s)
        binom = _binomial_row(n)
        ip = int(p)
        total = 0
        for c, v in zip(binom, row):
            if v:
                total += c * abs(v) ** ip
        log2_moment = log2_bigint(total) - n
        log2_ratio = log2_moment - (p / 2.0) * log2_bigint(binom[s])
        return MomentRecord(n, s, p, log2_moment, log2_ratio, "exact")
    _, logs = kraw_log_row(n, s)
    lc = _log2_binomial_row(n)
    mode = "exact-assisted" if n <= KRAW_TABLE_CAP else "log"
    log2_moment = log_sum_exp2(np.asarray(lc) + p * logs - n)
    return MomentRecord(n, s, p, log2_moment, log2_moment - (p / 2.0) * lc[s], mode)


def solve_i0(n: float, s: float, p: float) -> float:
    """The unique i0 in [0, n/2] with h(p, i0/n) = 1 - 2s/n.

    h(p, .) increases from 0 to 1 on [0, 1/2], so s = n/2 gives i0 = 0 and
    s = 0 gives i0 = n/2. Solved in log2(i0/n) by solve_h_inverse: near
    s = n/2 with large p, i0/n falls far below any absolute grid on [0, 1/2].
    """
    if p < 2:
        raise InputError(f"solve_i0: need p >= 2, got p={p}")
    if not (0 <= s <= n / 2):
        raise InputError(f"solve_i0: need 0 <= s <= n/2, got n={n}, s={s}")
    return n * solve_h_inverse(p, 1.0 - 2.0 * s / n)


def lp_concentration(
    n: int, s: int, p: float, window: float
) -> ConcentrationRecord:
    """Fraction of sum_i C(n,i)|K_s(i)|^p carried by the weights within
    window*sqrt(n ln n) of i0 and of n - i0."""
    if p <= 2:
        raise InputError(f"lp_concentration: need p > 2, got p={p}")
    if not (0 <= s <= n):
        raise InputError(f"lp_concentration: need 0 <= s <= n, got n={n}, s={s}")
    s_eff = min(s, n - s)
    i0 = solve_i0(n, s_eff, p)
    s0 = n / math.log(n) if n > 1 else 0.0
    outside = not (s0 < s_eff < n / 2 - s0)
    halfwidth = window * math.sqrt(n * math.log(n)) if n > 1 else 0.0
    _, logs = kraw_log_row(n, s)
    terms = np.asarray(_log2_binomial_row(n)) + p * logs
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
        fi = 2.0 ** (lc[i] + 2.0 * log2_bigint(abs(v)) - n - lc[s])
        if best_i[k] is None or fi > best[k]:
            best_i[k], best[k] = i, fi
    bounds = [0.0, *roots.tolist(), float(n)]
    return [
        IntervalRecord(bounds[k], bounds[k + 1], best_i[k], best[k], empty=best_i[k] is None)
        for k in range(s + 1)
    ]
