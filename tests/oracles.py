"""Independent exact oracles for the tests.

`krawbound` computes every exact Krawchouk value by the weight recurrence in
i. Two definitions here share nothing with it: the explicit alternating sum,
and the three-term recurrence in the degree s. The exact moment sums the
exact row in big integers, where `krawbound` sums its log row in floats, and
the distance distribution is counted pair by pair, where `krawbound` uses
the spectral identity. The scaled log row is rebuilt with its rescale called
at every step, where `kraw_log_row` calls it only outside the range in which
it does nothing.
"""

import math

import numpy as np

from krawbound.krawchouk import _rescale, kraw_table
from krawbound.numerics import log2_binomial


def kraw_sum(n, s, i):
    """K_s(i) by the explicit alternating sum over k of C(i,k) C(n-i,s-k);
    the terms outside max(0, s-n+i) <= k <= min(i, s) are zero."""
    acc = 0
    for k in range(max(0, s - n + i), min(i, s) + 1):
        term = math.comb(i, k) * math.comb(n - i, s - k)
        acc = acc - term if (k & 1) else acc + term
    return acc


def kraw_table_sum(n, s):
    """The row K_s(i), i = 0..n, by the explicit sum."""
    return tuple(kraw_sum(n, s, i) for i in range(n + 1))


def kraw_table_recurrence(n, s):
    """The row K_s(i), i = 0..n, by the degree recurrence
    (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i), seeded by
    K_0 = 1 and K_1(i) = n - 2i; every division is exact."""
    prev = [1] * (n + 1)
    if s == 0:
        return tuple(prev)
    cur = [n - 2 * i for i in range(n + 1)]
    for j in range(1, s):
        nxt = []
        for i in range(n + 1):
            q, r = divmod((n - 2 * i) * cur[i] - (n - j + 1) * prev[i], j + 1)
            assert r == 0, f"degree recurrence: non-integer step at n={n}, j={j}, i={i}"
            nxt.append(q)
        prev, cur = cur, nxt
    return tuple(cur)


def kraw_moment_exact(n, s, p):
    """log2 E|K_s|^p for integer p, from the big-integer sum
    sum_i C(n,i) |K_s(i)|^p over the exact row (n <= 4096)."""
    total = sum(math.comb(n, i) * abs(v) ** p for i, v in enumerate(kraw_table(n, s).values))
    return math.log2(total) - n


def distance_distribution_scan(A):
    """a_i = #{(x,y) in A x A : |x - y| = i}: a bincount of the popcounts of
    x XOR y over every ordered pair, one row of pairs at a time."""
    idx = np.flatnonzero(A.membership)
    a = np.zeros(A.n + 1, dtype=np.int64)
    for x in idx:
        a += np.bincount(np.bitwise_count(idx ^ x), minlength=A.n + 1)
    return tuple(int(v) for v in a)


def kraw_log_row_rescaled_every_step(n, s):
    """kraw_log_row's signs and logs for n > 4096 by the scaled-float weight
    recurrence, with `_rescale` called at every step and the row mirrored
    across n/2; also returns how many steps moved the exponent down and up."""
    mid = n // 2
    a, b, e = 0.0, 1.0, 0
    base = log2_binomial(n, s)
    signs, logs, down, up = [1], [base], 0, 0
    for i in range(mid):
        a, b, e_next = _rescale(b, ((n - 2 * s) * b - i * a) / (n - i), e)
        down, up, e = down + (e_next < e), up + (e_next > e), e_next
        signs.append((b > 0) - (b < 0))
        logs.append(base + math.log2(abs(b)) + e if b else -math.inf)
    if n % 2 == 0 and s % 2 == 1:
        signs[mid], logs[mid] = 0, -math.inf
    sgn = -1 if (s & 1) else 1
    signs += [sgn * v for v in signs[n - mid - 1 :: -1]]
    logs += logs[n - mid - 1 :: -1]
    return np.array(signs, dtype=np.int8), np.array(logs), down, up
