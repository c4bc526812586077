"""Dense cube operations against independent oracles, plus the
weight-symmetric profile paths that replace 2^n storage at large n."""

import math
import re

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
    apply_noise,
    distance_distribution,
    inner_product,
    lp_norm,
    random_homogeneous,
    spectral_project,
    sphere_indicator,
    sphere_union_distance_distribution,
    sphere_union_ue_log2,
    tensor_power,
    to_fourier,
    to_points,
    undetected_error_probability,
    walsh_hadamard,
    weight_table,
    wht,
)
from krawbound.krawchouk import kraw_moments, kraw_table
from krawbound.numerics import InputError
from oracles import distance_distribution_scan


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
            got = walsh_hadamard(x)
            assert got.shape == x.shape
            assert np.max(np.abs(got - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [16, 20])
def test_walsh_hadamard_exact_on_integers(n):
    # integer data keeps every partial sum exact in float64, so H H = 2^n I
    # and the batch rows must match the 1-d transform bit for bit
    rng = np.random.default_rng(n)
    x = rng.integers(-8, 9, size=(2, 1 << n)).astype(np.float64)
    once = walsh_hadamard(x)
    assert np.array_equal(walsh_hadamard(once), x * (1 << n))
    for row, out in zip(x, once):
        assert np.array_equal(walsh_hadamard(row), out)


def test_walsh_hadamard_factors_at_most_32(monkeypatch):
    # every Sylvester factor the transform builds is at most 32 x 32, and the
    # factors of one transform cover its n bits, 1-d and batched alike
    import krawbound.cube as cube

    built, sylvester = [], cube._sylvester

    def recording(k):
        built.append(k)
        return sylvester(k)

    monkeypatch.setattr(cube, "_sylvester", recording)
    for n in range(21):
        for shape in ((1 << n,), (2, 1 << n)):
            built.clear()
            walsh_hadamard(np.ones(shape))
            assert max(built) <= 5 and sum(built) == n, (n, shape, built)


def test_noise_factors_at_most_32(monkeypatch):
    # the point-domain noise runs through the same factor loop: each factor
    # is at most 32 x 32 and the factors of one call cover its n bits
    import krawbound.cube as cube

    shapes, kron_apply = [], cube._kron_apply

    def recording(data, factor):
        def seen(k):
            h = factor(k)
            shapes.append(h.shape)
            return h

        return kron_apply(data, seen)

    monkeypatch.setattr(cube, "_kron_apply", recording)
    for n in range(21):
        shapes.clear()
        apply_noise(CubeFunction(n, POINT, np.ones(1 << n)), 0.1)
        assert all(a == b <= 32 for a, b in shapes), (n, shapes)
        assert sum(a.bit_length() - 1 for a, _ in shapes) == n, (n, shapes)


def test_wht_size_cap():
    with pytest.raises(InputError):
        CubeFunction(25, POINT, np.zeros(2))


BAD_DIMENSIONS = {
    "function-float-n": lambda: CubeFunction(2.0, POINT, np.zeros(4)),
    "function-negative-n": lambda: CubeFunction(-1, POINT, np.zeros(1)),
    "subset-negative-n": lambda: CubeSubset(-1, np.zeros(1, dtype=bool)),
    "from-indices-float-n": lambda: CubeSubset.from_indices(2.5, [0]),
    "from-indices-negative-n": lambda: CubeSubset.from_indices(-1, []),
    "homogeneous-float-n": lambda: random_homogeneous(4.0, 2, 0),
    "homogeneous-float-s": lambda: random_homogeneous(4, 2.0, 0),
    "sphere-float-n": lambda: sphere_indicator(4.0, 2),
    "sphere-float-s": lambda: sphere_indicator(4, 1.5),
    "tensor-float-m": lambda: tensor_power(CubeFunction(2, POINT, np.ones(4)), 2.0),
}


@pytest.mark.parametrize("bad", BAD_DIMENSIONS, ids=list(BAD_DIMENSIONS))
def test_bad_dimension_is_input_error(bad):
    with pytest.raises(InputError):
        BAD_DIMENSIONS[bad]()


def test_numpy_integer_dimensions_accepted():
    i = np.int64
    assert CubeFunction(i(2), POINT, np.zeros(4)).n == 2
    assert CubeSubset.from_indices(i(3), [i(5)]).size == 1
    assert random_homogeneous(i(4), i(2), 0).n == 4
    assert sphere_indicator(i(4), i(2))[0].size == 6
    assert tensor_power(CubeFunction(2, POINT, np.ones(4)), i(2)).n == 4
    # a uint8 n of 8 or more wraps 1 << n to 0 unless it becomes an int
    u = np.uint8(10)
    f = CubeFunction(u, POINT, np.ones(1 << 10))
    assert type(f.n) is int and wht(f).data[0] == 1.0
    assert type(CubeSubset(u, np.zeros(1 << 10, dtype=bool)).n) is int
    assert CubeSubset.from_indices(u, [1023]).size == 1
    assert random_homogeneous(u, 2, 0).data.size == 1 << 10
    assert sphere_indicator(u, 2)[0].size == 45
    assert np.array_equal(weight_table(u), weight_table(10))


def test_wht_tag_validation():
    with pytest.raises(InputError):
        CubeFunction(2, "frequency", np.zeros(4))


# ----------------------------------------------------------- apply_noise


def test_noise_eps_zero_identity():
    f = random_function(6, 1)
    g = apply_noise(f, 0.0)
    assert np.array_equal(g.data, f.data)


def test_noise_on_zero_bits_is_identity():
    f = CubeFunction(0, POINT, np.array([-2.75]))
    for eps in (0.0, 0.1, 0.5):
        assert np.array_equal(apply_noise(f, eps).data, f.data)


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


@pytest.mark.parametrize("domain", [FOURIER])
def test_noise_multiplier_bit_identical_to_pointwise_power(domain):
    # the n+1 gathered powers are the same pow(rho, k) as one power per point
    for n in range(15):
        for eps in (0.0, 0.1, 0.25, 0.5):
            f = random_function(n, 200 + n, domain=domain)
            mult = (1.0 - 2.0 * eps) ** weight_table(n).astype(np.float64)
            want = CubeFunction(n, FOURIER, to_fourier(f).data * mult)
            assert np.array_equal(apply_noise(f, eps).data, want.data)


def direct_noise(data, eps):
    """sum_y eps^|x xor y| (1-eps)^(n-|x xor y|) data[y] for every x, in the
    dtype of data, a column block at a time; O(4^n)."""
    m = data.size
    n = m.bit_length() - 1
    eps = data.dtype.type(eps)
    row = eps ** np.arange(n + 1) * (1 - eps) ** np.arange(n, -1, -1)
    idx = np.arange(m)
    out = np.empty_like(data)
    for c0 in range(0, m, 256):
        out[c0 : c0 + 256] = data @ row[weight_table(n)[idx[:, None] ^ idx[None, c0 : c0 + 256]]]
    return out


def test_noise_dyadic_eps_exact_on_integers():
    # with eps in {0, 1/4, 1/2} and small integer data, every product and
    # partial sum is an integer below 2^53 times 4^-n, so both sums are exact
    rng = np.random.default_rng(31)
    for n in range(13):
        data = rng.integers(-8, 9, size=1 << n).astype(np.float64)
        for eps in (0.0, 0.25, 0.5):
            got = apply_noise(CubeFunction(n, POINT, data), eps).data
            assert np.array_equal(got, direct_noise(data, eps)), (n, eps)


def test_noise_points_against_long_double_kernel():
    for n in range(10):
        f = random_function(n, 300 + n)
        for eps in (0.03, 0.1, 0.17, 0.3, 0.45):
            got = apply_noise(f, eps).data
            want = direct_noise(f.data.astype(np.longdouble), eps)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 4e-15, (n, eps, err)


def test_weight_table_cached_and_read_only():
    w = weight_table(10)
    assert weight_table(10) is w
    assert np.array_equal(w, [bin(x).count("1") for x in range(1 << 10)])
    with pytest.raises(ValueError):
        w[3] = 0


# ------------------------------------------------------ spectral_project


def test_project_single_character():
    n = 6
    alpha = 0b101001
    coeffs = np.zeros(64)
    coeffs[alpha] = 1.0
    f = to_points(CubeFunction(n, FOURIER, coeffs))
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


def test_project_k_must_be_integer():
    f = random_function(4, 8)
    # 1.5 lies inside [0, n] but names no level
    with pytest.raises(InputError):
        spectral_project(f, 1.5)
    assert np.array_equal(spectral_project(f, np.int64(2)).data, spectral_project(f, 2).data)


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
    with pytest.raises(InputError):
        lp_norm(f, math.nan)
    with pytest.raises(InputError):
        SymmetricProfile.kraw(10, 3).lp_norm_log2(math.nan)


def test_lp_and_inner_product_bit_identical_to_np_mean():
    for n in range(0, 15, 2):
        f, g = random_function(n, 300 + n), random_function(n, 400 + n)
        for p in (1, 1.3, 2, 3.7, 6):
            assert lp_norm(f, p) == float(np.mean(np.abs(f.data) ** p) ** (1.0 / p))
        assert inner_product(f, g) == float(np.mean(f.data * g.data))


@pytest.mark.parametrize(
    "values, p",
    [
        ((3.0, 0.0, 0.0, 0.0), 1000.0),  # the plain mean overflows
        ((3.0, -1.0, 2.5, 0.5), 1e6),
        ((1e-300, -2e-300, 0.0, 5e-301), 3.0),  # the plain mean underflows to 0
        ((1e-200, 3e-201, -7e-201, 0.0), 2.0),
    ],
)
def test_lp_outside_the_float_range_against_mpmath(values, p):
    import mpmath

    with mpmath.workdps(50):
        want = mpmath.power(
            mpmath.fsum(mpmath.power(abs(mpmath.mpf(v)), p) for v in values) / len(values), 1 / mpmath.mpf(p)
        )
    got = lp_norm(CubeFunction.from_points(2, values), p)
    assert abs(got - float(want)) <= 1e-14 * float(want)


def test_lp_of_infinite_or_nan_values():
    assert lp_norm(CubeFunction.from_points(1, (math.inf, 1.0)), 3.0) == math.inf
    assert math.isnan(lp_norm(CubeFunction.from_points(1, (math.nan, 1.0)), 3.0))


def test_integer_point_values_taken_as_floats():
    # lp_norm powers its |f| in place, so integer data must not stay integer
    ints = CubeFunction(3, "point-values", np.arange(-4, 4))
    floats = CubeFunction(3, "point-values", np.arange(-4.0, 4.0))
    for p in (1, 2.5, math.inf):
        assert lp_norm(ints, p) == lp_norm(floats, p)
    assert np.array_equal(apply_noise(ints, 0.1).data, apply_noise(floats, 0.1).data)


# ------------------------------------------------------------- subsets


def _membership_by_loop(n, indices):
    m = np.zeros(1 << n, dtype=bool)
    for i in indices:
        m[i] = True
    return m


@pytest.mark.parametrize("n", [0, 1, 5, 12])
def test_from_indices_matches_loop(n):
    rng = np.random.default_rng(n)
    lists = [
        [],
        [int(v) for v in rng.choice(1 << n, size=(1 << n) // 2 + 1, replace=False)],
        [int(v) for v in rng.integers(0, 1 << n, size=20)],  # with duplicates
        list(rng.integers(0, 1 << n, size=5)),  # numpy ints
    ]
    for indices in lists:
        A = CubeSubset.from_indices(n, indices)
        assert np.array_equal(A.membership, _membership_by_loop(n, indices))


@pytest.mark.parametrize("bad", [[-1], [0, 16], [2.0], [1.5], ["3"], [True]])
def test_from_indices_rejects_index_outside_cube_or_non_integer(bad):
    with pytest.raises(InputError):
        CubeSubset.from_indices(4, bad)


# -------------------------------------------------- distance distribution


def test_distance_full_cube():
    A = CubeSubset(2, np.ones(4, dtype=bool))
    assert distance_distribution(A).a == (4, 8, 4)
    for n in (0, 1, 7):
        A = CubeSubset(n, np.ones(1 << n, dtype=bool))
        assert distance_distribution(A).a == tuple(2**n * math.comb(n, i) for i in range(n + 1))


def test_distance_single_point():
    A = CubeSubset.from_indices(5, [19])
    assert distance_distribution(A).a == (1, 0, 0, 0, 0, 0)
    assert distance_distribution(CubeSubset.from_indices(0, [0])).a == (1,)


def test_distance_empty_set():
    for n in (0, 3, 10):
        A = CubeSubset.from_indices(n, [])
        assert distance_distribution(A).a == (0,) * (n + 1) == distance_distribution_scan(A)


def test_distance_sphere_formula():
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
    slow = distance_distribution_scan(A)
    assert distance_distribution(A).a == slow
    assert sum(slow) == A.size**2
    assert all(v % 2 == 0 for v in slow[1:])


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


@pytest.mark.parametrize("n,s", [(9, 3), (11, 4), (12, 1), (1, 1), (5, 5), (10, 10)])
def test_union_distance_distribution_matches_scan(n, s):
    a = sphere_union_distance_distribution(n, s)
    w = weight_table(n)
    sub = CubeSubset(n, (w == s - 1) | (w == s))
    assert tuple(a) == distance_distribution_scan(sub)
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


# -------------------------------------------------------------- refusals

# each call is refused by the check its message names, before any work
REFUSALS = {
    "CubeFunction length": (lambda: CubeFunction(3, POINT, np.zeros(4)), "CubeFunction: data length (4,) != 2^3"),
    "CubeSubset length": (
        lambda: CubeSubset(3, np.zeros(4, dtype=bool)),
        "CubeSubset: membership length mismatch",
    ),
    "inner_product": (
        lambda: inner_product(CubeFunction(2, POINT, np.ones(4)), CubeFunction(3, POINT, np.ones(8))),
        "inner_product: dimension mismatch",
    ),
    "random_homogeneous s": (lambda: random_homogeneous(4, 5, 0), "random_homogeneous: need 0 <= s <= n, got n=4, s=5"),
    "sphere_indicator s": (lambda: sphere_indicator(4, -1), "sphere_indicator: need 0 <= s <= n, got n=4, s=-1"),
    "undetected_error_probability eps": (
        lambda: undetected_error_probability(CubeSubset.from_indices(3, [0]), 0.6),
        "undetected_error_probability: eps=0.6 outside [0, 1/2]",
    ),
    "noise_inner_log2 eps": (
        lambda: SymmetricProfile.sphere(10, 3).noise_inner_log2(-0.1),
        "noise_inner_log2: eps=-0.1 outside [0, 1/2]",
    ),
    "sphere_union_ue_log2 eps": (
        lambda: sphere_union_ue_log2(10, 3, 0.0),
        "sphere_union_ue_log2: eps=0.0 outside (0, 1/2]",
    ),
    "sphere_union radius": (
        lambda: SymmetricProfile.sphere_union(10, [2, 11]),
        "sphere_union: radius 11 outside [0, 10]",
    ),
    "SymmetricProfile mismatch": (
        lambda: SymmetricProfile.sphere(10, 3).plus(SymmetricProfile.sphere(11, 3)),
        "SymmetricProfile: dimension mismatch",
    ),
    "to_dense cap": (lambda: SymmetricProfile.sphere(25, 3).to_dense(), "to_dense: n=25 exceeds dense cap 24"),
    "sphere_union_distance_distribution s": (
        lambda: sphere_union_distance_distribution(10, 0),
        "sphere_union_distance_distribution: need 1 <= s <= n <= 4096, got n=10, s=0",
    ),
    "sphere_union_distance_distribution cap": (
        lambda: sphere_union_distance_distribution(4097, 3),
        "sphere_union_distance_distribution: need 1 <= s <= n <= 4096, got n=4097, s=3",
    ),
    # the gate of the distance distribution covers the union's P_ue too
    "sphere_union_ue_log2 cap": (
        lambda: sphere_union_ue_log2(4097, 3, 0.1),
        "sphere_union_distance_distribution: need 1 <= s <= n <= 4096, got n=4097, s=3",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, message = REFUSALS[case]
    with pytest.raises(InputError, match=re.escape(message)):
        call()
