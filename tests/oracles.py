"""Independent exact Krawchouk oracles.

`krawbound` computes every exact Krawchouk value by the weight recurrence in
i. These two definitions share nothing with it, so the tests compare against
them: the explicit alternating sum, and the three-term recurrence in the
degree s.
"""

import math


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
