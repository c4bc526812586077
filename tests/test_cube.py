"""Dense cube operations against independent oracles, plus the
weight-symmetric profile paths that replace 2^n storage at large n."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krawbound.cube import (
    FOURIER,
    POINT,
    CubeFunction,
    CubeSubset,
    SymmetricProfile,
    _walsh_hadamard,
    apply_noise,
    distance_distribution,
    inner_product,
    lp_norm,
    random_homogeneous,
    spectral_project,
    sphere_indicator,
    sphere_union_distance_distribution,
    sphere_union_ue_log2,
    subset_from_bitstrings,
    subset_to_bitstrings,
    tensor_power,
    to_fourier,
    to_points,
    undetected_error_probability,
    weight_table,
    wht,
)
from krawbound.krawchouk import kraw_moments, kraw_table
from krawbound.numerics import InputError


def random_function(n, seed, domain=POINT):
    rng = np.random.default_rng(seed)
    return CubeFunction(n, domain, rng.standard_normal(1 << n))


# ------------------------------------------------------------------- wht


def test_wht_constant():
    f = CubeFunction.from_points(4, np.ones(16))
    g = wht(f)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(g.data, expected, atol=0)


def test_wht_single_character():
    n = 5
    alpha = 0b10110
    parity = np.array([bin(alpha & x).count("1") % 2 for x in range(32)])
    vals = np.where(parity == 0, 1.0, -1.0)
    g = wht(CubeFunction.from_points(n, vals))
    expected = np.zeros(32)
    expected[alpha] = 1.0
    assert np.allclose(g.data, expected, atol=1e-15)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_wht_roundtrip_and_parseval(n, seed):
    f = random_function(n, seed)
    g = wht(f)
    back = wht(g)
    assert np.max(np.abs(back.data - f.data)) < 1e-12
    # Parseval against the direct double sum
    lhs = float(np.mean(f.data**2))
    rhs = float(np.sum(g.data**2))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, lhs)


def test_walsh_hadamard_against_dense_matrix():
    # the oracle builds (-1)^{popcount(i & j)} bit by bit, a column block at
    # a time so that n = 12 stays at a few MB
    rng = np.random.default_rng(2024)
    for n in range(13):
        m = 1 << n
        idx = np.arange(m, dtype=np.uint16)
        inputs = [rng.standard_normal(shape) for shape in ((m,), (3, m), (2, 3, m))]
        want = [np.empty_like(x) for x in inputs]
        for c0 in range(0, m, 256):
            both = idx[:, None] & idx[None, c0 : c0 + 256]
            parity = np.zeros(both.shape, dtype=np.uint8)
            for b in range(n):
                parity ^= ((both >> b) & 1).astype(np.uint8)
            block = 1.0 - 2.0 * parity
            for x, w in zip(inputs, want):
                w[..., c0 : c0 + 256] = x @ block
        for x, w in zip(inputs, want):
            got = _walsh_hadamard(x)
            assert got.shape == x.shape
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [16, 20])
def test_walsh_hadamard_exact_on_integers(n):
    # integer data keeps every partial sum exact in float64, so H H = 2^n I
    # and the batch rows must match the 1-d transform bit for bit
    rng = np.random.default_rng(n)
    x = rng.integers(-8, 9, size=(2, 1 << n)).astype(np.float64)
    once = _walsh_hadamard(x)
    assert np.array_equal(_walsh_hadamard(once), x * (1 << n))
    for row, out in zip(x, once):
        assert np.array_equal(_walsh_hadamard(row), out)


def test_wht_size_cap():
    with pytest.raises(InputError):
        CubeFunction(25, POINT, np.zeros(2))


def test_wht_tag_validation():
    with pytest.raises(InputError):
        CubeFunction(2, "frequency", np.zeros(4))


# ----------------------------------------------------------- apply_noise


def test_noise_eps_zero_identity():
    f = random_function(6, 1)
    g = apply_noise(f, 0.0)
    assert np.allclose(g.data, f.data, atol=1e-13)


def test_noise_eps_half_mean():
    f = random_function(6, 2)
    g = apply_noise(f, 0.5)
    assert np.allclose(g.data, np.mean(f.data), atol=1e-13)


def test_noise_semigroup():
    f = random_function(9, 3)
    for e1, e2 in [(0.1, 0.3), (0.05, 0.45), (0.2, 0.2)]:
        a = apply_noise(apply_noise(f, e1), e2)
        b = apply_noise(f, e1 + e2 - 2 * e1 * e2)
        assert np.max(np.abs(a.data - b.data)) < 1e-10


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_noise_matches_direct_kernel(n):
    f = random_function(n, 100 + n)
    eps = 0.17
    w = weight_table(n)
    direct = np.zeros(1 << n)
    for x in range(1 << n):
        d = w[np.bitwise_xor(np.arange(1 << n), x)].astype(float)
        direct[x] = np.sum(eps**d * (1 - eps) ** (n - d) * f.data)
    got = apply_noise(f, eps)
    assert np.max(np.abs(direct - got.data)) < 1e-10


def test_noise_eps_range():
    f = random_function(3, 4)
    with pytest.raises(InputError):
        apply_noise(f, -0.01)
    with pytest.raises(InputError):
        apply_noise(f, 0.51)


def test_noise_preserves_domain_tag():
    f = random_function(5, 5, domain=FOURIER)
    assert apply_noise(f, 0.2).domain_tag == FOURIER
    g = random_function(5, 5, domain=POINT)
    assert apply_noise(g, 0.2).domain_tag == POINT


# ------------------------------------------------------ spectral_project


def test_project_single_character():
    n = 6
    alpha = 0b101001
    coeffs = np.zeros(64)
    coeffs[alpha] = 1.0
    f = to_points(CubeFunction.from_fourier(n, coeffs))
    keep = spectral_project(f, 3)
    assert np.max(np.abs(keep.data - f.data)) < 1e-12
    for k in (0, 1, 2, 4, 5, 6):
        other = spectral_project(f, k)
        assert np.max(np.abs(other.data)) < 1e-12


def test_project_idempotent_sum_orthogonal():
    n = 8
    f = random_function(n, 6)
    parts = [spectral_project(f, k) for k in range(n + 1)]
    total = np.sum([p.data for p in parts], axis=0)
    assert np.max(np.abs(total - f.data)) < 1e-10
    for k, p in enumerate(parts):
        again = spectral_project(p, k)
        assert np.max(np.abs(again.data - p.data)) < 1e-10
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            assert abs(inner_product(parts[j], parts[k])) < 1e-10


def test_project_parseval_split():
    f = random_function(7, 7)
    total = sum(lp_norm(spectral_project(f, k), 2) ** 2 for k in range(8))
    assert abs(total - lp_norm(f, 2) ** 2) < 1e-10


@pytest.mark.parametrize("n,s", [(12, 4), (16, 5)])
def test_project_sphere_norm(n, s):
    _, ind = sphere_indicator(n, s)
    K = kraw_table(n, s).values
    for k in range(n + 1):
        got = lp_norm(spectral_project(ind, k), 2)
        want = math.sqrt(math.comb(n, k)) * abs(K[k]) / 2**n
        assert abs(got - want) < 1e-10


def test_project_k_range():
    f = random_function(3, 8)
    with pytest.raises(InputError):
        spectral_project(f, 4)


# --------------------------------------------------------------- lp_norm


def test_lp_constant():
    f = CubeFunction.from_points(5, np.full(32, -2.5))
    for p in (1, 2, 3.7, math.inf):
        assert abs(lp_norm(f, p) - 2.5) < 1e-14


def test_lp_monotone_and_homogeneous():
    f = random_function(8, 9)
    ps = [1, 1.5, 2, 3, 5, 10, math.inf]
    vals = [lp_norm(f, p) for p in ps]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    g = CubeFunction(f.n, POINT, 3.0 * f.data)
    assert abs(lp_norm(g, 3) - 3.0 * lp_norm(f, 3)) < 1e-12


def test_lp_infinity_is_max():
    f = random_function(6, 10)
    assert lp_norm(f, math.inf) == np.max(np.abs(f.data))


@pytest.mark.parametrize("p", [2, 3, 4, 6.5])
def test_lp_of_krawchouk_matches_moments(p):
    n, s = 14, 5
    K = kraw_table(n, s).values
    w = weight_table(n)
    f = CubeFunction.from_points(n, np.array([float(K[i]) for i in w]))
    rec = kraw_moments(n, s, p)
    got = math.log2(lp_norm(f, p)) * p
    assert abs(got - rec.log2_moment) < 1e-10


def test_lp_p_validation():
    f = random_function(3, 11)
    with pytest.raises(InputError):
        lp_norm(f, 0.5)


# -------------------------------------------------- distance distribution


def test_distance_full_cube():
    A = CubeSubset(2, np.ones(4, dtype=bool))
    assert distance_distribution(A).a == (4, 8, 4)


def test_distance_single_point():
    A = CubeSubset.from_indices(5, [19])
    assert distance_distribution(A).a == (1, 0, 0, 0, 0, 0)


def test_distance_sphere_formula():
    # |S_3| = 120 takes the pair scan, |S_5| = 2002 the spectral path
    for n, s in ((10, 3), (14, 5)):
        sub, _ = sphere_indicator(n, s)
        dist = distance_distribution(sub)
        size = math.comb(n, s)
        for j in range(n // 2 + 1):
            i = 2 * j
            if i <= n:
                assert dist.a[i] == size * math.comb(s, j) * math.comb(n - s, j)
        for i in range(1, n + 1, 2):
            assert dist.a[i] == 0
        assert sum(dist.a) == size**2


@pytest.mark.parametrize("n", [6, 9, 12])
def test_distance_fast_path_matches_scan(n):
    rng = np.random.default_rng(n)
    A = CubeSubset(n, rng.random(1 << n) < 0.6)
    slow = distance_distribution(A, force_scan=True)
    fast = distance_distribution(A)
    assert slow.a == fast.a
    assert sum(slow.a) == A.size**2
    assert all(v % 2 == 0 for v in slow.a[1:])


# ------------------------------------------- undetected error probability


def test_ue_single_point_and_eps_zero():
    A = CubeSubset.from_indices(4, [7])
    assert undetected_error_probability(A, 0.3) == 0.0
    B = CubeSubset.from_indices(4, [1, 2, 12])
    assert undetected_error_probability(B, 0.0) == 0.0


def test_ue_full_cube():
    A = CubeSubset(2, np.ones(4, dtype=bool))
    assert abs(undetected_error_probability(A, 0.1) - 0.19) < 1e-14


def test_ue_matches_noise_inner_identity():
    rng = np.random.default_rng(21)
    for n in (4, 6, 8):
        A = CubeSubset(n, rng.random(1 << n) < 0.4)
        if A.size == 0:
            continue
        f = A.indicator()
        for eps in (0.05, 0.2, 0.5):
            lhs = undetected_error_probability(A, eps)
            rhs = (2**n / A.size) * inner_product(apply_noise(f, eps), f) - (
                1 - eps
            ) ** n
            assert abs(lhs - rhs) < 1e-10


def test_ue_empty_set():
    A = CubeSubset(3, np.zeros(8, dtype=bool))
    with pytest.raises(InputError):
        undetected_error_probability(A, 0.1)


# ------------------------------------------------------ random homogeneous


def test_random_homogeneous_constant_at_degree_zero():
    f = to_points(random_homogeneous(5, 0, seed=1))
    assert np.allclose(f.data, f.data[0])


def test_random_homogeneous_deterministic():
    a = random_homogeneous(8, 3, seed=42)
    b = random_homogeneous(8, 3, seed=42)
    c = random_homogeneous(8, 3, seed=43)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


def test_random_homogeneous_support_exact():
    f = random_homogeneous(9, 4, seed=5)
    w = weight_table(9)
    off = f.data[w != 4]
    assert np.count_nonzero(off) == 0
    assert lp_norm(f, 2) > 0


def test_random_homogeneous_cap():
    with pytest.raises(InputError):
        random_homogeneous(21, 3, seed=0)


# -------------------------------------------------------- sphere indicator


def test_sphere_zero_radius():
    sub, ind = sphere_indicator(6, 0)
    assert sub.size == 1 and sub.membership[0]
    fh = wht(ind)
    assert np.allclose(fh.data, 2.0**-6, atol=0)


def test_sphere_size():
    sub, _ = sphere_indicator(4, 2)
    assert sub.size == 6


def test_sphere_fourier_is_krawchouk():
    n, s = 12, 4
    _, ind = sphere_indicator(n, s)
    fh = wht(ind)
    K = kraw_table(n, s).values
    w = weight_table(n)
    for a in range(1 << n):
        assert abs(fh.data[a] - K[w[a]] / 2**n) < 1e-12


# ------------------------------------------------------------ tensor power


def test_tensor_identity():
    f = random_function(6, 30)
    g = tensor_power(f, 1)
    assert np.array_equal(g.data, f.data)


def test_tensor_second_moment_multiplies():
    f = to_points(random_homogeneous(6, 2, seed=3))
    F = tensor_power(f, 2)
    assert abs(lp_norm(F, 2) ** 2 - (lp_norm(f, 2) ** 2) ** 2) < 1e-10


def test_tensor_moments_product_rule():
    f = random_function(4, 31)
    F = tensor_power(f, 3)
    for q in (1, 2, 3, 4.5):
        lhs = lp_norm(F, q) ** q
        rhs = (lp_norm(f, q) ** q) ** 3
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_tensor_degree_multiplies():
    f = random_homogeneous(4, 2, seed=9)
    F = to_fourier(tensor_power(f, 3))
    w = weight_table(12)
    live = np.abs(F.data) > 1e-12
    assert set(w[live].tolist()) == {6}


def test_tensor_cap_and_bookkeeping():
    f = random_function(7, 32)
    with pytest.raises(InputError):
        tensor_power(f, 4)


# ------------------------------------------------------- module invariants


def test_noise_inner_spectral_identity():
    rng = np.random.default_rng(40)
    for n in (3, 7, 12):
        f = CubeFunction.from_points(n, rng.standard_normal(1 << n))
        for eps in (0.08, 0.31):
            lhs = inner_product(apply_noise(f, eps), f)
            rhs = sum(
                (1 - 2 * eps) ** k * lp_norm(spectral_project(f, k), 2) ** 2
                for k in range(n + 1)
            )
            assert abs(lhs - rhs) < 1e-10


def test_classic_hypercontractivity_random():
    rng = np.random.default_rng(41)
    for n in range(1, 11):
        for _ in range(1000):
            vals = rng.standard_normal(1 << n)
            if rng.random() < 0.5:
                vals = np.abs(vals)
            f = CubeFunction.from_points(n, vals)
            eps = rng.uniform(0.0, 0.5)
            lhs = lp_norm(apply_noise(f, eps), 2)
            rhs = lp_norm(f, 1 + (1 - 2 * eps) ** 2)
            assert rhs - lhs >= -1e-10


@pytest.mark.parametrize("n,s", [(10, 3), (16, 6)])
def test_sphere_noise_closed_form(n, s):
    _, ind = sphere_indicator(n, s)
    for eps in (0.1, 0.37, 0.5):
        lhs = inner_product(apply_noise(ind, eps), ind)
        rhs = (
            math.comb(n, s)
            / 2**n
            * sum(
                math.comb(s, i) * math.comb(n - s, i) * eps ** (2 * i) * (1 - eps) ** (n - 2 * i)
                for i in range(s + 1)
            )
        )
        assert abs(lhs - rhs) < 1e-10


# ------------------------------------------------------ symmetric profiles


def test_profile_dense_round_trip():
    prof = SymmetricProfile.from_weight_values(8, [0.0, 2.0, -1.5, 0.0, 3.25, 0.0, -0.125, 1.0, 0.0])
    dense = prof.to_dense()
    w = weight_table(8)
    vals = np.array([0.0, 2.0, -1.5, 0.0, 3.25, 0.0, -0.125, 1.0, 0.0])
    assert np.array_equal(dense.data, vals[w])


@pytest.mark.parametrize("p", [1, 2, 3.5, math.inf])
def test_profile_lp_matches_dense(p):
    prof = SymmetricProfile.kraw(10, 3)
    dense = prof.to_dense()
    assert abs(2.0 ** prof.lp_norm_log2(p) - lp_norm(dense, p)) < 1e-12 * lp_norm(dense, p) + 1e-14


@pytest.mark.parametrize("n,s,p", [(60, 12, 2), (60, 12, 3), (60, 12, 4), (60, 12, 6.5)])
def test_profile_lp_of_krawchouk_matches_moments(n, s, p):
    prof = SymmetricProfile.kraw(n, s)
    rec = kraw_moments(n, s, p)
    assert abs(p * prof.lp_norm_log2(p) - rec.log2_moment) < 1e-10


def test_profile_fourier_matches_dense_wht():
    prof = SymmetricProfile.sphere_union(9, [2, 3])
    g = prof.fourier()
    dense = wht(prof.to_dense())
    w = weight_table(9)
    for a in range(1 << 9):
        k = w[a]
        val = float(g.signs[k]) * 2.0 ** float(g.logs[k]) if g.signs[k] else 0.0
        assert abs(val - dense.data[a]) < 1e-14


def test_profile_noise_inner_matches_dense():
    prof = SymmetricProfile.sphere_union(11, [3, 4])
    dense = prof.to_dense()
    for eps in (0.06, 0.25, 0.5):
        lhs = 2.0 ** prof.noise_inner_log2(eps)
        rhs = inner_product(apply_noise(dense, eps), dense)
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_profile_plus_minus_match_dense_sums():
    a = SymmetricProfile.from_weight_values(8, [1.0, -2.0, 0.5, 3.0, 0.0, -1.25, 4.0, 0.0, 2.0])
    b = SymmetricProfile.from_weight_values(8, [1.0, 2.0, -0.5, 0.0, 0.0, 1.25, -4.0, 0.75, 2.0])
    for op, dense in ((a.plus, a.to_dense().data + b.to_dense().data),
                      (a.minus, a.to_dense().data - b.to_dense().data)):
        c = op(b)
        assert c.signs.dtype == np.int8
        assert np.allclose(c.to_dense().data, dense, rtol=1e-15, atol=0.0)
        # weights that cancel exactly carry sign 0 and log -inf
        zero = dense[[(1 << k) - 1 for k in range(9)]] == 0.0
        assert zero.any()
        assert np.array_equal(c.signs == 0, zero)
        assert np.all(c.logs[zero] == -np.inf)


def test_profile_size():
    prof = SymmetricProfile.sphere_union(12, [5, 6])
    assert abs(2.0 ** prof.size_log2() - (math.comb(12, 5) + math.comb(12, 6))) < 1e-6


def test_profile_weight_values_length():
    with pytest.raises(InputError):
        SymmetricProfile.from_weight_values(4, [1.0, 2.0])


# ------------------------------------------------- adjacent sphere unions


@pytest.mark.parametrize("n,s", [(9, 3), (11, 4), (12, 1)])
def test_union_distance_distribution_matches_scan(n, s):
    a = sphere_union_distance_distribution(n, s)
    w = weight_table(n)
    sub = CubeSubset(n, (w == s - 1) | (w == s))
    ref = distance_distribution(sub, force_scan=True)
    assert tuple(a) == ref.a
    assert sum(a) == sub.size**2
    assert all(v % 2 == 0 for v in a[1:])


def test_union_ue_matches_dense():
    n, s = 12, 5
    w = weight_table(n)
    sub = CubeSubset(n, (w == s - 1) | (w == s))
    for eps in (0.04, 0.18, 0.5):
        lhs = 2.0 ** sphere_union_ue_log2(n, s, eps)
        rhs = undetected_error_probability(sub, eps)
        assert abs(lhs - rhs) < 1e-12 * rhs


def test_union_ue_large_n_runs():
    val = sphere_union_ue_log2(199, 60, 0.11)
    assert -200.0 < val < 0.0


# ----------------------------------------------------------- serialization


def test_bitstring_round_trip():
    A = CubeSubset.from_indices(6, [0, 5, 17, 63])
    B = subset_from_bitstrings(6, subset_to_bitstrings(A))
    assert np.array_equal(A.membership, B.membership)


def test_bitstring_validation():
    with pytest.raises(InputError):
        subset_from_bitstrings(4, "0101\n012")
