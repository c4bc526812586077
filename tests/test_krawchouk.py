"""Krawchouk engine: exact tables, log rows, roots, moments, concentration."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import krawbound.krawchouk as kw
from krawbound import numerics
from krawbound.bivariate import exponent_I, tau
from krawbound.cube import SymmetricProfile, sphere_union_distance_distribution
from krawbound.induction import hanner_gap_kraw, tensor_ratio_log2
from krawbound.numerics import InputError, _log2_binomial_row, exact_binomial
from oracles import (
    kraw_log_row_rescaled_every_step,
    kraw_moment_exact,
    kraw_sum,
    kraw_table_recurrence,
    kraw_table_sum,
)


# ---------------------------------------------------------------- tables


def test_table_examples():
    assert list(kw.kraw_table(4, 2).values) == [6, 0, -2, 0, 6]
    assert list(kw.kraw_table(4, 1).values) == [4, 2, 0, -2, -4]
    for n in [1, 5, 9]:
        assert list(kw.kraw_table(n, 0).values) == [1] * (n + 1)


def test_table_invariants_small():
    for n in range(1, 25):
        for s in range(n + 1):
            v = kw.kraw_table(n, s).values
            assert v[0] == exact_binomial(n, s)
            assert all(v[n - i] == (-1) ** s * v[i] for i in range(n + 1))
            parseval = sum(exact_binomial(n, i) * v[i] ** 2 for i in range(n + 1))
            assert parseval == 2**n * exact_binomial(n, s)
        rows = [kw.kraw_table(n, s).values for s in range(n + 1)]
        for s in range(n + 1):
            for i in range(n + 1):
                assert (
                    exact_binomial(n, i) * rows[s][i]
                    == exact_binomial(n, s) * rows[i][s]
                )


def test_table_vs_recurrence():
    # the weight recurrence against both independent oracles
    for n in range(1, 25):
        for s in range(n + 1):
            v = kw.kraw_table(n, s).values
            assert v == kraw_table_recurrence(n, s)
            assert v == kraw_table_sum(n, s)


@pytest.mark.parametrize("s", [1, 1024, 2048])
def test_table_at_cap(s):
    n = kw.KRAW_TABLE_CAP
    v = kw.kraw_table(n, s).values
    binom = [1]
    for i in range(n):
        binom.append(binom[-1] * (n - i) // (i + 1))
    assert v[0] == binom[s]
    assert all(v[n - i] == (-1) ** s * v[i] for i in range(n + 1))
    assert sum(c * k * k for c, k in zip(binom, v)) == 2**n * binom[s]
    # entries near either end keep the explicit sum short
    for i in (1, 2, 37, n - 37, n - 1):
        assert v[i] == kraw_sum(n, s, i)


def test_dimension_recursion():
    # K_s on the (n+1)-cube restricted to i <= n equals the sum of the
    # degree-s and degree-(s-1) rows on the n-cube
    for n in range(1, 25):
        for s in range(1, n + 1):
            big = kw.kraw_table(n + 1, s).values
            a = kw.kraw_table(n, s).values
            b = kw.kraw_table(n, s - 1).values
            assert all(big[i] == a[i] + b[i] for i in range(n + 1))


def test_table_cap_error():
    with pytest.raises(InputError):
        kw.kraw_table(4097, 3)
    with pytest.raises(InputError):
        kw.kraw_table(10, 11)


NON_INTEGER_SIZES = {
    "kraw_table(10, 2.5)": lambda: kw.kraw_table(10, 2.5),
    "kraw_moments(10, 2.5, 4)": lambda: kw.kraw_moments(10, 2.5, 4),
    "kraw_eval_real(10, 2.5, 1)": lambda: kw.kraw_eval_real(10, 2.5, 1.0),
    "SymmetricProfile.kraw(10, 2.5)": lambda: SymmetricProfile.kraw(10, 2.5),
    "sphere_union_distance_distribution(10, 2.5)": lambda: sphere_union_distance_distribution(10, 2.5),
    "hanner_gap_kraw(10, 2.5, 4)": lambda: hanner_gap_kraw(10, 2.5, 4),
    "lp_concentration(512, 64.5, 4, 4)": lambda: kw.lp_concentration(512, 64.5, 4, 4),
    "kraw_log_row(10.5, 2)": lambda: kw.kraw_log_row(10.5, 2),
    "kraw_roots(10, 2.5)": lambda: kw.kraw_roots(10, 2.5),
    "l2_between_roots(10, 2.5)": lambda: kw.l2_between_roots(10, 2.5),
    "tensor_ratio_log2(4, 1, 4, 2.5)": lambda: tensor_ratio_log2(4, 1, 4, 2.5),
    "SymmetricProfile.sphere_union(10.0, [1])": lambda: SymmetricProfile.sphere_union(10.0, [1]),
    "SymmetricProfile.sphere_union(10, [1.5])": lambda: SymmetricProfile.sphere_union(10, [1.5]),
    "SymmetricProfile.from_weight_values(10.0, ...)": lambda: SymmetricProfile.from_weight_values(
        10.0, [1.0] * 11
    ),
}


@pytest.mark.parametrize("call", NON_INTEGER_SIZES.values(), ids=NON_INTEGER_SIZES)
def test_non_integer_sizes_are_input_errors(call):
    with pytest.raises(InputError, match="integer"):
        call()


def test_numpy_integer_sizes_agree_with_ints():
    # stored as int, so a numpy uint8 wraps neither n - 2s nor n + 1
    u8 = np.uint8
    assert kw.kraw_table(u8(10), u8(6)) == kw.kraw_table(10, 6)
    assert kw.kraw_moments(u8(10), u8(6), 4.0) == kw.kraw_moments(10, 6, 4.0)
    assert kw.kraw_roots(u8(20), u8(6)) == kw.kraw_roots(20, 6)
    for got, want in zip(kw.kraw_log_row(np.int64(5000), np.int64(7)), kw.kraw_log_row(5000, 7)):
        assert np.array_equal(got, want)
    assert sphere_union_distance_distribution(u8(10), u8(6)) == sphere_union_distance_distribution(10, 6)
    union = SymmetricProfile.sphere_union(u8(255), [u8(3)])
    assert union.n == 255 and np.flatnonzero(union.signs).tolist() == [3]


# ---------------------------------------------------------------- log rows


def test_log_row_matches_exact_table():
    n, s = 100, 30
    signs, logs = kw.kraw_log_row(n, s)
    tab = kw.kraw_table(n, s).values
    for i in range(n + 1):
        v = tab[i]
        if v == 0:
            assert signs[i] == 0
        else:
            assert signs[i] == (1 if v > 0 else -1)
            assert logs[i] == pytest.approx(math.log2(abs(v)), abs=1e-9)


def test_log_row_zero_flags():
    signs, _ = kw.kraw_log_row(4, 2)
    assert list(signs) == [1, 0, -1, 0, 1]


def test_log_row_large_mode_consistent_with_eval():
    n, s = 6000, 37
    signs, logs = kw.kraw_log_row(n, s)
    for i in [0, 1, 100, 2500, 3000, 5000, 6000]:
        m, e = kw._kraw_eval_scaled(n, s, float(i))
        if m == 0.0:
            assert signs[i] == 0
            continue
        assert signs[i] == (1 if m > 0.0 else -1)
        ref = math.log2(abs(m)) + e
        assert logs[i] == pytest.approx(ref, abs=1e-6 * max(1.0, abs(ref)))


@pytest.mark.parametrize(
    "n,s", [(4098, 2049), (6000, 3000), (6000, 2999), (5001, 2500), (5000, 4999), (6000, 37)]
)
def test_log_row_above_table_cap_matches_exact_row(n, s):
    # at s = n/2 every odd entry is an exact zero of the scaled-float
    # recurrence, and it must not lend its scale to the entry after it
    row = kw._kraw_row_weight_recurrence(n, s)
    signs, logs = kw.kraw_log_row(n, s)
    assert signs.tolist() == [(v > 0) - (v < 0) for v in row]
    err = max(abs(logs[i] - math.log2(abs(v))) for i, v in enumerate(row) if v)
    assert err <= 1e-9


@pytest.mark.parametrize("n,s", [(4098, 2049), (6000, 3000), (8192, 2048), (12001, 6000), (20000, 5000)])
def test_log_row_range_test_matches_rescale_at_every_step(n, s):
    # every cell here scales its pair down past 2^-500 several times, and
    # none up: |K_s(i)| <= C(n, s) falls toward n/2, so the upward side of
    # the range test is checked on _rescale alone below
    signs, logs = kw.kraw_log_row(n, s)
    want_signs, want_logs, down, up = kraw_log_row_rescaled_every_step(n, s)
    assert down >= 4 and up == 0
    assert signs.tobytes() == want_signs.tobytes() and logs.tobytes() == want_logs.tobytes()


def test_rescale_is_a_no_op_exactly_inside_the_log_rows_range():
    # kraw_log_row skips _rescale while max(|a|, |b|) lies in [2^-501, 2^500)
    lo, hi = 2.0**-501, 2.0**500
    inside = [lo, math.nextafter(hi, 0.0), 1.0, -lo, -math.nextafter(hi, 0.0)]
    outside = [math.nextafter(lo, 0.0), hi, -hi, 2.0**-1074, 1e308, -1e-300]
    for m in inside:
        for a, b in ((m, 0.0), (0.5 * m, m), (m, -0.25 * m)):
            assert kw._rescale(a, b, 7) == (a, b, 7)
    for m in outside:
        for a, b in ((m, 0.0), (0.5 * m, m), (m, -0.25 * m)):
            ra, rb, e = kw._rescale(a, b, 7)
            assert e != 7 and 0.5 <= max(abs(ra), abs(rb)) < 1
            assert (math.ldexp(ra, e - 7), math.ldexp(rb, e - 7)) == (a, b)


def test_cached_rows_are_read_only_and_shared():
    for row in (*kw.kraw_log_row(10, 3), *kw.kraw_log_row(5000, 7)):
        assert not row.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1
    for row in (_log2_binomial_row(10), _log2_binomial_row(5000)):
        assert row.readonly and type(row[0]) is float
        assert not np.asarray(row).flags.writeable  # numpy reads the cached buffer itself
        with pytest.raises(TypeError, match="read-only"):
            row[0] = 1.0
    signs, logs = kw.kraw_log_row(5000, 7)
    for got, want in zip(kw.kraw_log_row(np.int64(5000), np.uint16(7)), (signs, logs)):
        assert got is want
    assert _log2_binomial_row(np.uint16(5000)) is _log2_binomial_row(5000)


def test_root_sets_built_once_per_key_and_read_only():
    # kraw_roots and l2_between_roots share one checked build of each (n, s)
    kw._roots_and_counts.cache_clear()
    roots, row, below = kw._roots_and_counts(40, 10)
    assert kw.kraw_roots(40, 10).roots is roots
    assert len(kw.l2_between_roots(np.int64(40), np.uint8(10))) == 11
    info = kw._roots_and_counts.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert row == tuple(kw.kraw_table(40, 10).values)
    assert type(roots[0]) is float and type(below[0]) is int
    for seq in (roots, row, below):
        with pytest.raises(TypeError):
            seq[0] = 1


def test_whole_float_sizes_refused_after_the_int_row_is_cached():
    kw.kraw_log_row(10, 2)
    _log2_binomial_row(10)
    with pytest.raises(InputError, match="integer"):
        kw.kraw_log_row(10.0, 2)
    with pytest.raises(InputError, match="integer"):
        kw.kraw_log_row(10, 2.0)
    with pytest.raises(InputError, match="integer"):
        _log2_binomial_row(10.0)


@pytest.mark.parametrize("n,s", [(10, 3), (4096, 2048), (5001, 2500), (8192, 2048)])
def test_rows_rebuilt_after_cache_clear_are_bit_identical(n, s):
    before = [r.tobytes() for r in (*kw.kraw_log_row(n, s), _log2_binomial_row(n))]
    kw._kraw_log_row_built.cache_clear()
    numerics._log2_binomial_row_built.cache_clear()
    after = [r.tobytes() for r in (*kw.kraw_log_row(n, s), _log2_binomial_row(n))]
    assert after == before


# ---------------------------------------------------------------- eval real


def test_eval_real_examples():
    assert kw.kraw_eval_real(4, 2, 1.0) == 0.0
    assert kw.kraw_eval_real(4, 2, 2.0) == -2.0
    for n, s in [(7, 3), (20, 8), (64, 5)]:
        assert kw.kraw_eval_real(n, s, 0.0) == float(exact_binomial(n, s))


def test_eval_real_matches_table():
    for n in [8, 33, 128]:
        for s in range(0, n + 1, max(1, n // 7)):
            tab = kw.kraw_table(n, s).values
            for i in range(0, n + 1, max(1, n // 11)):
                got = kw.kraw_eval_real(n, s, float(i))
                ref = float(tab[i])
                if ref == 0.0:
                    assert got == 0.0
                else:
                    assert got == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n,s,x", [(1100, 550, 0.5), (2000, 1000, 0.5), (5000, 2500, 0.5), (3000, 1500, -1.5)])
def test_eval_real_overflow_maps_to_inf(n, s, x):
    m, _ = kw._kraw_eval_scaled(n, s, x)
    assert kw.kraw_eval_real(n, s, x) == math.copysign(math.inf, m)


def test_eval_scaled_rescales_both_ways_against_mpmath():
    # near x = n/2 the values rise to about 2^(n/2) at s = n/2 and fall
    # back by s = n, so the pair is scaled down twice and up once
    n, s, x = 2400, 2399, 1200.25
    m, e = kw._kraw_eval_scaled(n, s, x)
    assert e > 500 and abs(m) < 2.0**-400
    with mpmath.workdps(50):
        a, b = mpmath.mpf(1), n - 2 * mpmath.mpf(x)
        for j in range(1, s):
            a, b = b, ((n - 2 * mpmath.mpf(x)) * b - (n - j + 1) * a) / (j + 1)
        assert abs(mpmath.ldexp(m, e) / b - 1) < 1e-13


@pytest.mark.parametrize(
    "x",
    # then two ints beyond the float range, which overflow any float conversion
    [math.nan, math.inf, -math.inf, pytest.param(10**400, id="1e400"), pytest.param(-(10**5000), id="-1e5000")],
)
def test_eval_real_refuses_non_finite_x(x):
    with pytest.raises(InputError, match="finite"):
        kw.kraw_eval_real(10, 3, x)


def test_eval_real_continuity():
    # small steps produce small relative changes away from roots
    n, s = 64, 6
    for x in [3.7, 10.2, 50.9]:
        a = kw.kraw_eval_real(n, s, x)
        b = kw.kraw_eval_real(n, s, x + 1e-8)
        assert b == pytest.approx(a, rel=1e-5)


# ---------------------------------------------------------------- roots


def test_roots_examples():
    r42 = kw.kraw_roots(4, 2).roots
    assert r42 == pytest.approx([1.0, 3.0], abs=1e-10)
    assert kw.kraw_roots(4, 1).roots == pytest.approx([2.0], abs=1e-10)


def test_roots_invariants_sample():
    for n, s in [(16, 3), (64, 6), (128, 17), (256, 128), (512, 40), (512, 256)]:
        rl = kw.kraw_roots(n, s)
        assert len(rl.roots) == s
        c, w = n / 2.0, math.sqrt(s * (n - s))
        assert all(c - w - 1e-9 <= r <= c + w + 1e-9 for r in rl.roots)
        assert rl.roots[0] >= 1.0 - 2e-11
        if s >= 2:
            assert min(b - a for a, b in zip(rl.roots, rl.roots[1:])) >= 2.0 - 1e-9
        assert all(a < b for a, b in zip(rl.roots, rl.roots[1:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 48).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n // 2))))
def test_roots_window_property(ns):
    n, s = ns
    rl = kw.kraw_roots(n, s)
    assert len(rl.roots) == s
    c, w = n / 2.0, math.sqrt(s * (n - s))
    assert all(c - w - 1e-9 <= r <= c + w + 1e-9 for r in rl.roots)
    assert rl.roots[0] >= 1.0 - 2e-11


def test_first_root_upper_bound():
    # x_s <= n/2 - sqrt(s(n-s)) + c n^{2/3}; measured c is about 0.50
    worst = 0.0
    for n in [64, 128, 256, 512]:
        for s in range(1, n // 2 + 1, max(1, n // 16)):
            rl = kw.kraw_roots(n, s)
            base = n / 2.0 - math.sqrt(s * (n - s))
            worst = max(worst, (rl.roots[0] - base) / n ** (2.0 / 3.0))
    assert worst <= 0.6
    print(f"\n  measured first-root constant: {worst:.4f}")


def _mp_root(n, s, x, halfwidth=1e-9):
    """50-digit root of K_s near x: bisection on the sign of the degree
    recurrence (j+1) K_{j+1} = (n-2x) K_j - (n-j+1) K_{j-1} in mpmath."""
    import mpmath

    def k(y):
        a, b = mpmath.mpf(1), n - 2 * y
        for j in range(1, s):
            a, b = b, ((n - 2 * y) * b - (n - j + 1) * a) / (j + 1)
        return b

    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(x) - halfwidth, mpmath.mpf(x) + halfwidth
        flo, fhi = k(lo), k(hi)
        assert flo * fhi < 0, f"no sign change around {x}"
        while hi - lo > mpmath.mpf(10) ** -20:
            mid = (lo + hi) / 2
            fm = k(mid)
            if fm == 0:
                return mid
            if (fm < 0) == (flo < 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return (lo + hi) / 2


def test_roots_against_mpmath():
    # every root of K_45 at n = 136, including the integer root 68
    roots = kw.kraw_roots(136, 45).roots
    assert roots[22] == pytest.approx(68.0, abs=1e-12)
    for r in roots:
        assert abs(r - float(_mp_root(136, 45, r))) <= 1e-12
    # sampled roots at larger n
    for n, s in [(512, 128), (2048, 512)]:
        roots = kw.kraw_roots(n, s).roots
        for idx in [0, 1, s // 3, s // 2, s - 1]:
            assert abs(roots[idx] - float(_mp_root(n, s, roots[idx]))) <= 1e-11


# ---------------------------------------------------------------- moments


def test_moments_examples():
    assert kw.kraw_moments(4, 1, 2.0).log2_ratio == pytest.approx(0.0, abs=1e-12)
    rec = kw.kraw_moments(4, 2, 4.0)
    assert rec.log2_moment == pytest.approx(math.log2(168.0), abs=1e-12)
    assert rec.log2_ratio == pytest.approx(math.log2(168.0 / 36.0), abs=1e-12)
    assert kw.kraw_moments(30, 0, 3.0).log2_ratio == 0.0
    assert kw.kraw_moments(30, 30, 5.0).log2_ratio == 0.0


def test_moments_p2_normalization():
    for n, s in [(10, 3), (60, 12), (200, 77), (513, 100)]:
        assert abs(kw.kraw_moments(n, s, 2.0).log2_ratio) <= 1e-12


def test_moments_ratio_nondecreasing_in_p():
    for n, s in [(40, 9), (60, 12)]:
        ps = [2.0 + 0.5 * k for k in range(13)]
        vals = [kw.kraw_moments(n, s, p).log2_ratio for p in ps]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


def test_moments_modes():
    assert kw.kraw_moments(60, 0, 4.0).mode == "exact"
    assert kw.kraw_moments(60, 60, 4.0).mode == "exact"
    assert kw.kraw_moments(60, 12, 4.0).mode == "exact-assisted"
    assert kw.kraw_moments(60, 12, 3.3).mode == "exact-assisted"
    assert kw.kraw_moments(6000, 17, 4.0).mode == "log"


def _assert_matches_exact_moment(n, s, p):
    # the summed exponents reach about n bits, so their rounding is a few
    # ulps of n even where the moment itself is near 1
    want = kraw_moment_exact(n, s, p)
    got = kw.kraw_moments(n, s, p).log2_moment
    assert abs(got - want) <= 1e-15 * max(1.0, abs(want), n), (n, s, p, got - want)


def test_moments_match_exact_sum_small_n():
    for n in range(2, 41):
        for s in range(1, n):
            for p in range(1, 9):
                _assert_matches_exact_moment(n, s, p)


@pytest.mark.parametrize(
    "n,s,p", [(2048, 512, 2), (2048, 512, 4), (2048, 512, 8), (2048, 897, 7), (4096, 769, 2)]
)
def test_moments_match_exact_sum_large_n(n, s, p):
    _assert_matches_exact_moment(n, s, p)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_moments_refuse_non_finite_p(p):
    with pytest.raises(InputError):
        kw.kraw_moments(10, 3, p)
    with pytest.raises(InputError):
        kw.kraw_moments(6000, 3, p)
    with pytest.raises(InputError):
        kw.lp_concentration(10, 3, p, 1.0)


def test_concentration_refuses_the_empty_cube():
    # i0 solves h(p, i0/n) = 1 - 2s/n, which has no n = 0
    with pytest.raises(InputError, match="n > 0"):
        kw.lp_concentration(0, 0, 4, 1)
    with pytest.raises(InputError, match="n > 0"):
        kw.solve_i0(0.0, 0.0, 4.0)


def test_moments_vs_float_bruteforce():
    n, s, p = 30, 7, 3.5
    tab = kw.kraw_table(n, s).values
    direct = sum(exact_binomial(n, i) * abs(tab[i]) ** p for i in range(n + 1)) / 2.0**n
    rec = kw.kraw_moments(n, s, p)
    assert 2.0**rec.log2_moment == pytest.approx(direct, rel=1e-10)


# ---------------------------------------------------------------- i0 solver


def test_solve_i0_refuses_nan_p():
    with pytest.raises(InputError):
        kw.solve_i0(10.0, 3.0, math.nan)


def test_solve_i0_endpoints():
    for p in [2.0, 3.0, 6.0]:
        assert kw.solve_i0(100.0, 50.0, p) == pytest.approx(0.0, abs=1e-9)
        assert kw.solve_i0(100.0, 0.0, p) == pytest.approx(50.0, abs=1e-9)


def test_solve_i0_p2_closed_form():
    assert kw.solve_i0(4.0, 1.0, 2.0) == pytest.approx(
        4.0 * (0.5 - math.sqrt(3.0) / 4.0), abs=1e-12
    )
    for n, s in [(100.0, 20.0), (512.0, 77.0)]:
        sig = s / n
        assert kw.solve_i0(n, s, 2.0) == pytest.approx(
            n * (0.5 - math.sqrt(sig * (1.0 - sig))), abs=1e-9
        )


def test_solve_i0_residual_and_monotonicity():
    from krawbound.bivariate import little_h

    n, p = 240.0, 4.0
    prev = None
    for s in [0.0, 30.0, 60.0, 90.0, 120.0]:
        i0 = kw.solve_i0(n, s, p)
        assert 0.0 <= i0 <= n / 2.0
        assert little_h(p, i0 / n) == pytest.approx(1.0 - 2.0 * s / n, abs=1e-12)
        if prev is not None:
            assert i0 < prev
        prev = i0


# ---------------------------------------------------------------- concentration


def test_concentration_window_saturates():
    rec = kw.lp_concentration(128, 40, 4.0, window=100.0)
    assert rec.mass_in_window == pytest.approx(1.0, abs=1e-12)


def test_concentration_monotone_in_window():
    masses = [
        kw.lp_concentration(256, 64, 4.0, window=w).mass_in_window
        for w in [0.25, 0.5, 1.0, 2.0, 4.0]
    ]
    assert all(b >= a - 1e-12 for a, b in zip(masses, masses[1:]))


def test_concentration_range_flag():
    # s0 = n/ln n is about 82 at n = 512
    assert kw.lp_concentration(512, 12, 4.0, window=2.0).outside_proposition_range
    assert not kw.lp_concentration(512, 128, 4.0, window=2.0).outside_proposition_range


def test_concentration_mass_at_512():
    rec = kw.lp_concentration(512, 128, 4.0, window=4.0)
    assert rec.mass_in_window >= 0.99


# ---------------------------------------------------------------- between roots


def test_between_roots_example():
    recs = kw.l2_between_roots(4, 2)
    assert len(recs) == 3
    first = recs[0]
    assert first.best_i == 0
    assert first.attainment_factor == pytest.approx(0.375, abs=1e-12)


def test_between_roots_factors_bounded():
    for n, s in [(64, 6), (128, 30), (256, 64)]:
        recs = kw.l2_between_roots(n, s)
        assert len(recs) == s + 1
        for r in recs:
            assert not r.empty
            assert 0.0 < r.attainment_factor <= 1.0


def test_between_roots_interior_scaling():
    # interior intervals attain the l2 norm within a factor n^{5/2}
    n, s = 256, 64
    recs = kw.l2_between_roots(n, s)
    interior = recs[1:-1]
    scaled = min(r.attainment_factor * n**2.5 for r in interior)
    assert scaled > 1.0
    print(f"\n  measured interior attainment constant at (256, 64): {scaled:.3f}")


# ---------------------------------------------------------------- asymptotics


def test_tail_sandwich_at_512():
    # for i below the root region, log2 K_s(i)/n sits between the
    # integral lower bound and tau, with o(1) slack at most (5 log2 n)/n
    n = 512
    budget = 5.0 * math.log2(n) / n
    for s in [8, 64, 255]:
        row = kw._kraw_row_weight_recurrence(n, s)
        lc = math.log2(math.comb(n, s))
        x = s / n
        imax = int(n / 2 - math.sqrt(s * (n - s)))
        for i in range(imax + 1):
            lk = math.log2(row[i]) / n
            lower = lc / n + exponent_I(x, i / n) + 1.0
            upper = tau(x, i / n)
            assert lk >= lower - 1e-9
            assert lk <= upper + budget


def test_ratio_estimate_at_512():
    # K_s(i+1)/K_s(i) within (1 +- 4s/D^2) of the algebraic ratio, D the
    # distance to the first root
    n = 512
    for s in [8, 32, 128]:
        row = kw._kraw_row_weight_recurrence(n, s)
        xs = kw.kraw_roots(n, s).roots[0]
        # the algebraic form is real only below n/2 - sqrt(s(n-s))
        imax = min(int(xs) - 3, int(n / 2 - math.sqrt(s * (n - s))) - 1)
        for i in range(0, imax + 1):
            d = xs - (i + 1)
            ratio = row[i + 1] / row[i]
            expr = ((n - 2 * s) + math.sqrt((n - 2 * s) ** 2 - 4 * i * (n - i))) / (
                2 * (n - i)
            )
            assert abs(ratio / expr - 1.0) <= 4.0 * s / d**2
