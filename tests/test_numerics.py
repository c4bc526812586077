"""Oracle-backed tests for the numeric primitives.

Oracles: mpmath high-precision arithmetic for entropy and logsumexp, a Pascal
triangle built by addition for exact binomials.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from krawbound.numerics import (
    EXACT_BINOMIAL_CAP,
    InputError,
    _binomial_row,
    _log2_binomial_row,
    _minimize_1d,
    binary_entropy,
    exact_binomial,
    inverse_entropy,
    log2_bigint,
    log2_binomial,
    log_sum_exp2,
    log_sum_exp2_signed,
)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    want = float(-mpmath.mpf("0.11") * mpmath.log(mpmath.mpf("0.11"), 2)
                 - mpmath.mpf("0.89") * mpmath.log(mpmath.mpf("0.89"), 2))
    assert abs(binary_entropy(0.11) - want) < 1e-14
    for t in np.linspace(0.0, 1.0, 101):
        assert abs(binary_entropy(float(t)) - binary_entropy(float(1.0 - t))) < 1e-15


def test_binary_entropy_domain():
    with pytest.raises(InputError):
        binary_entropy(-0.01)
    with pytest.raises(InputError):
        binary_entropy(1.01)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=300)
def test_inverse_entropy_identity(y):
    t = inverse_entropy(y)
    assert 0.0 <= t <= 0.5
    assert abs(binary_entropy(t) - y) < 1e-12


@given(st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
@settings(max_examples=300)
@example(0.49998476174194095)
def test_inverse_entropy_roundtrip(t):
    # near t = 1/2, H' = log2((1-t)/t) tends to 0 and one float value of H
    # covers more than 1e-12 in t; up to t = 0.49 (H' >= 0.057) t itself is
    # recovered, everywhere H(t) is, as inverse_entropy documents
    y = binary_entropy(t)
    back = inverse_entropy(y)
    assert abs(binary_entropy(back) - y) <= 1e-12
    if t <= 0.49:
        assert abs(back - t) < 1e-12


def test_exact_binomial_pascal_triangle():
    # independent oracle: Pascal triangle by addition
    rows = [[1]]
    for n in range(1, 65):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    for n in range(65):
        assert sum(rows[n]) == 2 ** n
        assert _binomial_row(n) == rows[n]
        for k in range(n + 1):
            assert exact_binomial(n, k) == rows[n][k]
    assert exact_binomial(10, -1) == 0
    assert exact_binomial(10, 11) == 0
    with pytest.raises(InputError):
        exact_binomial(4097, 1)


def test_log2_binomial_against_exact():
    for n, k in [(0, 0), (1, 0), (4, 2), (64, 30), (1000, 500), (4096, 123)]:
        want = math.log2(math.comb(n, k)) if math.comb(n, k) < 2 ** 50 else log2_bigint(math.comb(n, k))
        got = log2_binomial(n, k)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    with pytest.raises(InputError):
        log2_binomial(100, 101)
    for bad in (-1, 10 ** 6 + 1):
        with pytest.raises(InputError):
            log2_binomial(bad, 0)
        with pytest.raises(InputError):
            _log2_binomial_row(bad)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 1001, 2048, EXACT_BINOMIAL_CAP])
def test_log2_binomial_row_exact_up_to_cap(n):
    want = [log2_bigint(math.comb(n, i)) for i in range(n + 1)]
    assert _log2_binomial_row(n) == want


def test_log2_binomial_row_above_cap_against_mpmath():
    n = 10 ** 6
    row = _log2_binomial_row(n)
    assert len(row) == n + 1 and row[0] == 0.0
    # the smallest i carry the largest relative error (cancellation between
    # log-gamma values near 1.3e7), so all of them are checked
    idx = list(range(64)) + list(range(64, n + 1, 9973)) + [n // 2, n - 1]
    with mpmath.workdps(50):
        lg = mpmath.loggamma
        for i in idx:
            want = (lg(n + 1) - lg(i + 1) - lg(n - i + 1)) / mpmath.log(2)
            assert abs(row[i] - float(want)) <= 1e-10 * max(abs(float(want)), 1e-300)


def test_minimize_1d_relative_stop():
    # on [0, 1e15] an absolute width of 1e-12 is below the float spacing
    x, _ = _minimize_1d(lambda t: (t - 6.0e14) ** 2, (0.0, 1.0e15))
    assert abs(x - 6.0e14) <= 1e-12 * 1.0e15
    # within [0, 1] the cells around the best grid point are refined to 1e-12
    x, v = _minimize_1d(lambda t: abs(t - 0.33), [k / 10 for k in range(11)])
    assert abs(x - 0.33) <= 1e-12 and v <= 1e-12


def test_log2_binomial_large_n_sanity():
    # log2 C(10^6, 5*10^5) ~ 10^6 - (1/2) log2(pi * 5 * 10^5) by Stirling
    n = 10 ** 6
    got = log2_binomial(n, n // 2)
    want = n - 0.5 * math.log2(math.pi * (n // 2))
    assert abs(got - want) < 1e-3


def test_entropy_binomial_sandwich():
    # 2^{nH(k/n)} / O(sqrt(..)) <= C(n,k) <= 2^{nH(k/n)}
    for n in [10, 100, 1000, 10 ** 5]:
        for k in [1, n // 8, n // 3, n // 2]:
            ub = n * binary_entropy(k / n)
            lb = ub - 0.5 * math.log2(8.0 * k)
            got = log2_binomial(n, k)
            assert got <= ub + 1e-9
            assert got >= lb - 1e-9


def test_log2_bigint():
    assert log2_bigint(1) == 0.0
    assert log2_bigint(2 ** 600) == 600.0
    v = math.comb(4096, 2048)
    assert abs(log2_bigint(v) - log2_binomial(4096, 2048)) < 1e-8


def test_log_sum_exp2_basics():
    assert log_sum_exp2([]) == -math.inf
    assert log_sum_exp2([-math.inf, -math.inf]) == -math.inf
    assert log_sum_exp2([0.0, 0.0]) == 1.0
    assert log_sum_exp2([math.log2(7.0), -math.inf]) == math.log2(7.0)
    assert isinstance(log_sum_exp2([1.0]), float)


def _mp_signed_sum(exponents, signs):
    """(sign, log2 |sum|) of sum_k signs[k] 2^exponents[k] at 80 digits."""
    with mpmath.workdps(80):
        s = mpmath.fsum(
            [sg * mpmath.power(2, mpmath.mpf(float(e))) for e, sg in zip(exponents, signs) if sg]
        )
        if s == 0:
            return 0, -math.inf
        return (1 if s > 0 else -1), float(mpmath.log(abs(s), 2))


def test_log_sum_exp2_against_mpmath():
    rng = np.random.default_rng(12345)
    exponents = rng.uniform(-300.0, 300.0, size=100)
    _, want = _mp_signed_sum(exponents, [1] * 100)
    assert abs(log_sum_exp2(list(exponents)) - want) < 1e-12


def test_log_sum_exp2_columns_against_mpmath():
    # columns reduce independently; a column of zeros gives -inf, not nan
    rng = np.random.default_rng(7)
    e = rng.uniform(-60.0, 60.0, size=(9, 5))
    e[rng.random((9, 5)) < 0.3] = -np.inf
    e[:, 2] = -np.inf
    got = log_sum_exp2(e)
    assert got.shape == (5,)
    for j in range(5):
        _, want = _mp_signed_sum(e[:, j], [int(v > -np.inf) for v in e[:, j]])
        if want == -math.inf:
            assert got[j] == -math.inf
        else:
            assert abs(got[j] - want) < 1e-12
    assert log_sum_exp2(np.empty((0, 3))).tolist() == [-math.inf] * 3


def test_log_sum_exp2_signed():
    sign, v = log_sum_exp2_signed([3.0, 1.0], [1, -1])
    # 8 - 2 = 6
    assert sign == 1 and abs(v - math.log2(6.0)) < 1e-12
    sign, v = log_sum_exp2_signed([1.0, 3.0], [1, -1])
    assert sign == -1 and abs(v - math.log2(6.0)) < 1e-12
    assert log_sum_exp2_signed([2.0, 2.0], [1, -1]) == (0, -math.inf)
    assert log_sum_exp2_signed([5.0], [0]) == (0, -math.inf)
    assert log_sum_exp2_signed([], []) == (0, -math.inf)


def test_log_sum_exp2_signed_columns_against_mpmath():
    # mixed signs, zero terms, and two columns that cancel exactly
    rng = np.random.default_rng(11)
    e = rng.uniform(-40.0, 40.0, size=(6, 8))
    sg = rng.choice([-1, 0, 1], size=(6, 8))
    e[sg == 0] = -np.inf
    e[:, 0], sg[:, 0] = [3.0, 3.0, -np.inf, 1.0, 1.0, -np.inf], [1, -1, 0, -1, 1, 0]
    e[:, 1], sg[:, 1] = -np.inf, 0
    signs, logs = log_sum_exp2_signed(e, sg)
    assert signs.dtype == np.int8 and logs.shape == (8,)
    for j in range(8):
        want_sign, want = _mp_signed_sum(e[:, j], sg[:, j])
        assert signs[j] == want_sign
        if want_sign == 0:
            assert logs[j] == -math.inf
        else:
            assert abs(logs[j] - want) < 1e-12 * max(1.0, abs(want))
