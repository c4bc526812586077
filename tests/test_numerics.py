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

from krawbound import bivariate, numerics, verify
from krawbound.krawchouk import kraw_log_row
from krawbound.numerics import (
    EXACT_BINOMIAL_CAP,
    InputError,
    InternalError,
    _binomial_row,
    _log2_binomial_row,
    _minimize_1d,
    _solve,
    binary_entropy,
    inverse_entropy,
    linspace,
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


def test_bisect_runs_to_float_resolution():
    root = _solve(lambda t: t * t - 2.0, 1.0, 2.0)
    assert abs(root - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))
    # a residual nonnegative everywhere shrinks the bracket onto its left end
    assert _solve(lambda t: 1.0, 0.0, 0.5) == 0.0


def _bisection(g, lo, hi):
    """Plain bisection on the sign of g to float resolution, the reference
    the solver is held to: (result, evaluations)."""
    count = 0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        count += 1
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid, count


@pytest.fixture
def solves(monkeypatch):
    """Every solve the library makes, as (evaluations, bisection's
    evaluations on the same residual)."""
    rows = []

    def paired(g, lo, hi):
        calls = [0]

        def counted(t):
            calls[0] += 1
            return g(t)

        out = _solve(counted, lo, hi)
        rows.append((calls[0], _bisection(g, lo, hi)[1]))
        return out

    monkeypatch.setattr(numerics, "_solve", paired)
    monkeypatch.setattr(bivariate, "_solve", paired)
    return rows


_MONOTONE = [
    (lambda t: t * t - 2.0, 1.0, 2.0),
    (lambda t: t * t * t - 1e-3, 0.0, 0.5),
    (lambda t: math.sqrt(t) - 1e-150, 0.0, 0.5),
    (lambda t: t - 1e-300, 0.0, 0.5),
    (lambda t: t + 3.3, -5.0, -1.0),
    (lambda t: 1.0, 0.0, 0.5),
    (lambda t: -1.0, 0.0, 0.5),
    (lambda t: t * t - 2.0 if t < 1.4 else 7.0, 1.0, 2.0),
]


@pytest.mark.parametrize("g, lo, hi", _MONOTONE)
def test_solve_never_evaluates_the_ends(g, lo, hi):
    # cap_F's stationarity residual is complex at its left end
    def guarded(t):
        assert lo < t < hi, f"evaluated at {t!r}, an end of [{lo!r}, {hi!r}]"
        return g(t)

    _solve(guarded, lo, hi)


@pytest.mark.parametrize("g, lo, hi", _MONOTONE)
def test_solve_matches_bisection_on_monotone_residuals(g, lo, hi):
    # where g < 0 is monotone, the final bracket is the one bisection reaches
    calls = []
    out = _solve(lambda t: calls.append(t) or g(t), lo, hi)
    want, count = _bisection(g, lo, hi)
    assert out == want
    assert len(calls) <= count + 1


def test_solve_corner_inputs_within_two_of_bisection(solves):
    for p in (2.0 + 1e-9, 2.5, 50.0, 100.0):
        for x in (1e-300, 1e-12, 1e-6, 0.25, 0.5 - 1e-12):
            bivariate.solve_h_inverse(p, 1.0 - 2.0 * x)
            bivariate.solve_a_inverse(p, x)
    for y in np.logspace(-300.0, 0.0, 300, endpoint=False):
        inverse_entropy(float(y))
    assert len(solves) > 300
    for calls, count in solves:
        assert calls <= count + 2


def test_solve_mean_evaluations_on_criterion_02_grid(solves):
    for p in np.linspace(2.1, 10.0, 101):
        for x in np.linspace(0.01, 0.49, 101):
            bivariate.psi(float(p), float(x))
    # one solve per psi: y comes from delta in closed form
    assert len(solves) == 101 * 101
    assert sum(calls for calls, _ in solves) <= 12 * len(solves)


def test_inverse_entropy_mean_evaluations(solves):
    # a tiny y bisects until the unevaluated left end 0 moves: about
    # log2(log2(1/y)) midpoints before the first interpolated step
    for y in np.logspace(-300.0, 0.0):
        inverse_entropy(float(y))
    assert len(solves) == 49
    assert sum(calls for calls, _ in solves) <= 15 * len(solves)


def test_solve_zero_width_bracket():
    # 5e-324 / 2 rounds to 0, so inverse_entropy brackets t in [0, 0]
    calls = []
    assert _solve(lambda t: calls.append(t) or 1.0, 0.0, 0.0) == 0.0
    assert _solve(lambda t: calls.append(t) or 1.0, 1.0, math.nextafter(1.0, 2.0)) == 1.0
    assert calls == []
    assert inverse_entropy(5e-324) == 0.0


@pytest.mark.parametrize("y", [1e-300, 1e-100, 1e-20, 1e-12])
def test_inverse_entropy_tiny_y(y):
    # the root lies far below any absolute grid on [0, 1/2]
    assert abs(binary_entropy(inverse_entropy(y)) - y) <= 1e-12 * y


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


# (lo, hi, count) of the benchmark's sweep grids and of criterion 02's psi
# grid and boundary lines
BENCH_GRIDS = [
    (0.02, 0.48, 36),
    (2.1, 10.0, 25),
    (0.01, 0.49, 25),
    (0.05, 0.5, 12),
    (0.0, 0.45, 12),
    (0.02, 0.5, 10),
    (0.01, 0.5, 10),
    (0.05, 0.5, 10),
    (0.05, 0.95, 10),
    (0.1, 0.4, 5),
    (0.05, 0.45, 5),
    (2.1, 10.0, 101),
    (0.01, 0.49, 101),
    (2.0, 10.0, 41),
    (0.0, 0.5, 41),
]


@pytest.mark.parametrize(
    "lo, hi, count",
    BENCH_GRIDS
    + [
        (0.3, 0.7, 1),
        (-0.0, -1.0, 1),
        (2.0, 2.0, 5),
        (0.7, -0.3, 9),
        # (hi - lo) / (count - 1) underflows to 0: numpy scales i / (count - 1)
        (0.0, 5e-324, 7),
        (-1e-323, 1e-323, 9),
    ],
)
def test_linspace_has_the_bits_of_np_linspace(lo, hi, count):
    assert _bits(linspace(lo, hi, count)) == _bits(np.linspace(lo, hi, count))


def test_linspace_bits_on_random_draws():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        lo, hi = rng.standard_normal(2) * 10.0 ** rng.integers(-8, 9, 2)
        count = int(rng.integers(1, 200))
        assert _bits(linspace(lo, hi, count)) == _bits(np.linspace(lo, hi, count)), (lo, hi, count)


def test_linspace_bits_on_the_suite_table_axes():
    # every default float axis of verify's table is an evenly spaced grid
    checked = 0
    for tag, row in verify._SUITES.items():
        for name, values in row.axes.items():
            if isinstance(values, tuple) and all(type(v) is float for v in values):
                want = np.linspace(values[0], values[-1], len(values))
                assert _bits(values) == _bits(want), (tag, name)
                checked += 1
    assert checked == 12


def test_exact_binomial_pascal_triangle():
    # independent oracle: Pascal triangle by addition
    rows = [[1]]
    for n in range(1, 65):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    for n in range(65):
        assert sum(rows[n]) == 2 ** n
        assert _binomial_row(n) == rows[n]


def test_log2_binomial_against_exact():
    for n, k in [(0, 0), (1, 0), (4, 2), (64, 30), (1000, 500), (4096, 123)]:
        want = math.log2(math.comb(n, k))
        got = _log2_binomial_row(n)[k]
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
    for bad in (-1, 10 ** 6 + 1):
        with pytest.raises(InputError):
            _log2_binomial_row(bad)
    for bad in (10.0, 10.5):
        with pytest.raises(InputError, match="integer"):
            _log2_binomial_row(bad)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 1001, 2048, EXACT_BINOMIAL_CAP])
def test_log2_binomial_row_exact_up_to_cap(n):
    # math.log2 of the exact integers: within an ulp of the true log at any size
    row = _log2_binomial_row(n)
    assert len(row) == n + 1
    with mpmath.workdps(50):
        for k in sorted({*range(min(n, 40) + 1), *range(0, n + 1, max(1, n // 50)), n // 2, n}):
            want = mpmath.log(mpmath.binomial(n, k), 2)
            assert abs(row[k] - want) <= 2.3e-16 * abs(want), (n, k)


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


@pytest.mark.parametrize("n", [10, 4096, 4097, 10 ** 5, 10 ** 6])
def test_log2_binomial_against_mpmath(n):
    # the documented 1e-10 relative, on both sides of the exact-row cap
    row = _log2_binomial_row(n)
    with mpmath.workdps(50):
        for k in sorted({*range(min(n, 64) + 1), n // 2, n - 1}):
            want = float(mpmath.log(mpmath.binomial(n, k), 2))
            tol = 1e-10 * abs(want)
            assert abs(row[k] - want) <= tol, (n, k)


def test_minimize_1d_relative_stop():
    # on [0, 1e15] an absolute width of 1e-12 is below the float spacing
    def far(t):
        return (t - 6.0e14) ** 2

    x, _ = _minimize_1d(far, (0.0, 1.0e15))
    assert abs(x - 6.0e14) <= 1e-12 * 1.0e15
    # within [0, 1] the cells around the best grid point are refined to 1e-12
    grid = [k / 10 for k in range(11)]
    x, v = _minimize_1d(lambda t: abs(t - 0.33), grid)
    assert abs(x - 0.33) <= 1e-12 and v <= 1e-12


def test_minimize_1d_refuses_nan_values():
    # a NaN grid value is a bug of the objective, not a point to skip
    values = {0.0: 1.0, 1.0: math.nan, 2.0: 0.5}
    with pytest.raises(InternalError):
        _minimize_1d(values.__getitem__, [0.0, 1.0, 2.0])


@pytest.mark.parametrize(
    "f, argmin",
    [(lambda t: (t - 0.3) ** 2 + 0.1 * t ** 4, 0.29487219576), (lambda t: math.cosh(3.0 * (t - 0.71)), 0.71)],
    ids=["quartic", "cosh"],
)
def test_minimize_1d_takes_brent_steps(f, argmin):
    # parabolic steps converge superlinearly on a smooth minimum: golden
    # section alone takes 58 calls to reach the stopping width here
    grid = [k / 10 for k in range(11)]
    calls = []

    def counted(t):
        calls.append(t)
        return f(t)

    x, v = _minimize_1d(counted, grid)
    assert len(calls) - len(grid) <= 30
    assert abs(x - argmin) <= 1e-8 and v == f(x)


def test_inverse_entropy_tiny_y_bisects_a_short_bracket(solves):
    # H(t) >= 2t brackets t in [0, y/2]: y = 1e-300 needs no more halvings
    # than float resolution at t itself, not the ~1000 from [0, 1/2]
    t = inverse_entropy(1e-300)
    assert len(solves) == 1
    assert 0 < solves[0][0] <= 64
    assert abs(binary_entropy(t) - 1e-300) <= 1e-12 * 1e-300


def test_log2_binomial_large_n_sanity():
    # log2 C(10^6, 5*10^5) ~ 10^6 - (1/2) log2(pi * 5 * 10^5) by Stirling
    n = 10 ** 6
    got = _log2_binomial_row(n)[n // 2]
    want = n - 0.5 * math.log2(math.pi * (n // 2))
    assert abs(got - want) < 1e-3


def test_entropy_binomial_sandwich():
    # 2^{nH(k/n)} / O(sqrt(..)) <= C(n,k) <= 2^{nH(k/n)}
    for n in [10, 100, 1000, 10 ** 5]:
        for k in [1, n // 8, n // 3, n // 2]:
            ub = n * binary_entropy(k / n)
            lb = ub - 0.5 * math.log2(8.0 * k)
            got = _log2_binomial_row(n)[k]
            assert got <= ub + 1e-9
            assert got >= lb - 1e-9


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


def test_log_sum_exp2_signed_near_cancellation_against_mpmath():
    # the sign-changing entries of K_s +- K_{s-1}: the two parts nearly
    # cancel, and 1 - 2^d formed directly loses up to 2.8e-15 relative at
    # n = 1024 and 3.4e-9 at n = 5000
    checked = 0
    for n, s in ((64, 16), (300, 40), (1024, 256), (5000, 1250)):
        top, below = kraw_log_row(n, s), kraw_log_row(n, s - 1)
        for coeff in (1, -1):
            e = np.array([top[1], below[1]])
            sg = np.array([top[0], coeff * below[0]])
            sign, got = log_sum_exp2_signed(e, sg)
            for i in np.flatnonzero(sg[0] * sg[1] < 0):
                want_sign, want = _mp_signed_sum(e[:, i], sg[:, i])
                assert sign[i] == want_sign
                if want_sign == 0:
                    assert got[i] == -math.inf
                else:
                    assert abs(got[i] - want) <= 1e-15 * abs(want), (n, s, coeff, i)
                    checked += 1
    assert checked > 6000
