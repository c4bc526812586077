"""Brute-force ground truth on small Boolean cubes.

Dense functions live as 2^n arrays indexed by bitmask, with an explicit
domain tag (point values vs Fourier coefficients) so transforms cannot be
applied twice silently. The Walsh-Hadamard transform and the point-domain
noise operator are Kronecker products of small factors over bit ranges, run
by one loop. Weight-symmetric objects (Krawchouk rows, spheres, sphere
unions) get a per-weight log-domain profile instead, which scales to n in
the thousands where 2^n storage is impossible.

Conventions: W_alpha(x) = (-1)^{|alpha & x|}; the point -> Fourier direction
divides by 2^n, the inverse does not; ||f||_p averages over the cube.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .krawchouk import _degree, kraw_log_row
from .numerics import (
    LOG2_BINOMIAL_CAP,
    InputError,
    _integer,
    _log2_binomial_row,
    exact_binomial,
    log_sum_exp2,
    log_sum_exp2_signed,
)

DENSE_CAP = 24

POINT = "point-values"
FOURIER = "fourier-coefficients"


@lru_cache(maxsize=None)
def weight_table(n: int) -> np.ndarray:
    """Hamming weights of 0..2^n-1 (uint8), built by doubling; read-only
    because every caller shares the cached array."""
    w = np.zeros(1 << int(n), dtype=np.uint8)  # a numpy uint8 n would wrap
    for b in range(n):
        w[1 << b : 2 << b] = w[: 1 << b] + 1
    w.flags.writeable = False
    return w


def _dimension(who: str, n, cap: int = DENSE_CAP) -> int:
    # int first: numbers.Integral costs ~0.4 us; int(n) stops a numpy uint8 n wrapping 1 << n
    if not ((type(n) is int or isinstance(n, numbers.Integral)) and 0 <= n <= cap):
        raise InputError(f"{who}: need an integer n in [0, {cap}], got {n!r}")
    return int(n)


@dataclass(frozen=True)  # not a NamedTuple: __post_init__ validates the inputs
class CubeFunction:
    """Dense real function on {0,1}^n in either domain."""

    n: int
    domain_tag: str
    data: np.ndarray

    def __post_init__(self):
        if _dimension("CubeFunction", self.n) is not self.n:  # a numpy integer
            object.__setattr__(self, "n", int(self.n))
        if self.domain_tag not in (POINT, FOURIER):
            raise InputError(f"CubeFunction: unknown domain tag {self.domain_tag!r}")
        if self.data.shape != (1 << self.n,):
            raise InputError(
                f"CubeFunction: data length {self.data.shape} != 2^{self.n}"
            )

    @classmethod
    def from_points(cls, n: int, values: Sequence[float]) -> "CubeFunction":
        return cls(n, POINT, np.asarray(values, dtype=np.float64))


@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """H_k[i, j] = (-1)^{popcount(i & j)}, 2^k x 2^k, built by doubling;
    read-only because every caller shares the cached array."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


@lru_cache(maxsize=None)
def _xor_weights(k: int) -> np.ndarray:
    """|i xor j| for i, j < 2^k, 2^k x 2^k; read-only and shared."""
    d = weight_table(k)[np.arange(1 << k)[:, None] ^ np.arange(1 << k)]
    d.flags.writeable = False
    return d


def _kron_apply(data: np.ndarray, factor) -> np.ndarray:
    """data (last axis 2^n, leading axes a batch) times the Kronecker product
    of the symmetric factors factor(k), one per range of k bits: ceil(n/5)
    ranges of nearly equal size keep each factor at most 32 x 32. A range
    costs 2^k multiply-adds per entry, so at n = 12 three 16 x 16 factors
    cost 48 where two 64 x 64 would cost 128. Range [lo, lo + k) acts on the
    middle axis of the (-1, 2^k, 2^lo) view, the lowest by a 2-d product."""
    m = data.shape[-1]
    n = m.bit_length() - 1
    parts = max(1, -(-n // 5))
    out = data
    lo = 0
    for r in range(parts):
        k = (n - lo) // (parts - r)
        h = factor(k)
        if lo == 0:
            out = out.reshape(-1, 1 << k) @ h
        else:
            out = h @ out.reshape(-1, 1 << k, 1 << lo)
        lo += k
    return out.reshape(data.shape)


def walsh_hadamard(data: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length
    2^n); leading axes are a batch. H_n is the Kronecker product of the
    Sylvester matrices of consecutive bit ranges (Fino & Algazi 1976), one
    small matrix product per range."""
    return _kron_apply(data, _sylvester)


def wht(f: CubeFunction) -> CubeFunction:
    """Walsh-Hadamard transform; point -> Fourier divides by 2^n."""
    out = walsh_hadamard(f.data)
    if f.domain_tag == POINT:
        return CubeFunction(f.n, FOURIER, out / (1 << f.n))
    return CubeFunction(f.n, POINT, out)


def to_points(f: CubeFunction) -> CubeFunction:
    return f if f.domain_tag == POINT else wht(f)


def to_fourier(f: CubeFunction) -> CubeFunction:
    return f if f.domain_tag == FOURIER else wht(f)


def apply_noise(f: CubeFunction, eps: float) -> CubeFunction:
    """T_eps in the domain the input came in: on Fourier coefficients the
    multiplier (1-2 eps)^{|alpha|}, gathered from its n+1 powers; on points
    the Kronecker product of 2 x 2 kernels [[1-eps, eps], [eps, 1-eps]]
    (O'Donnell 2014, sec. 2.4) in one factored pass, with k-bit factors
    N_k[i, j] = eps^{|i xor j|} (1-eps)^{k-|i xor j|}; eps = 0 is exact."""
    if not (0.0 <= eps <= 0.5):
        raise InputError(f"apply_noise: eps={eps} outside [0, 1/2]")
    if f.domain_tag == FOURIER:
        powers = (1.0 - 2.0 * eps) ** np.arange(f.n + 1, dtype=np.float64)
        return CubeFunction(f.n, FOURIER, f.data * powers[weight_table(f.n)])
    kernels = {}  # N_k once per distinct k of this call

    def factor(k: int) -> np.ndarray:
        if k not in kernels:
            kernels[k] = np.array([eps**d * (1.0 - eps) ** (k - d) for d in range(k + 1)]).take(_xor_weights(k))
        return kernels[k]

    return CubeFunction(f.n, POINT, _kron_apply(f.data, factor))


def spectral_project(f: CubeFunction, k: int) -> CubeFunction:
    """Pi_k: keep only weight-k Fourier coefficients."""
    if not isinstance(k, numbers.Integral):
        raise InputError(f"spectral_project: k={k!r} is not an integer")
    if not (0 <= k <= f.n):
        raise InputError(f"spectral_project: k={k} outside [0, {f.n}]")
    g = to_fourier(f)
    masked = np.where(weight_table(f.n) == k, g.data, 0.0)
    proj = CubeFunction(f.n, FOURIER, masked)
    return to_points(proj) if f.domain_tag == POINT else proj


@np.errstate(over="ignore")  # per call, a decorator costs half what a `with` costs
def lp_norm(f: CubeFunction, p: float) -> float:
    """||f||_p = ((1/2^n) sum |f|^p)^{1/p}; p = inf gives max |f|. A mean of
    |f|^p outside the float range is taken relative to max |f| instead, so
    overflow warnings are off."""
    g = to_points(f)
    if p == math.inf:
        return float(np.max(np.abs(g.data)))
    if not p >= 1:
        raise InputError(f"lp_norm: need p >= 1 or inf, got p={p}")
    x = np.abs(g.data.astype(np.float64, copy=False))
    x **= p  # in place; then np.mean's own reduction, without its wrapper
    mean = float(x.sum()) / x.size
    if 0.0 < mean < math.inf or not np.any(g.data):
        return mean ** (1.0 / p)
    # an infinite or NaN max |f| is the norm itself
    top = float(np.max(np.abs(g.data)))
    if not top < math.inf:
        return top
    x = np.abs(g.data) / top
    x **= p
    return top * (float(x.sum()) / x.size) ** (1.0 / p)


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """<f, g> = (1/2^n) sum f(x) g(x)."""
    if f.n != g.n:
        raise InputError("inner_product: dimension mismatch")
    x = to_points(f).data * to_points(g).data
    return float(x.sum() / x.size)


def random_homogeneous(n: int, s: int, seed: int) -> CubeFunction:
    """Standard-normal coefficients on exactly the weight-s characters,
    deterministically derived from the seed (counter-based generator)."""
    n = _dimension("random_homogeneous", n, 20)
    if not (isinstance(s, numbers.Integral) and 0 <= s <= n):
        raise InputError(f"random_homogeneous: need an integer s in [0, {n}], got {s!r}")
    # Philox takes an integer key in [0, 2^128) and raises ValueError past it
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 1 << 128:
        raise InputError(f"random_homogeneous: need an integer seed in [0, 2^128), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = weight_table(n)
    coeffs = np.zeros(1 << n)
    idx = np.nonzero(w == s)[0]
    coeffs[idx] = rng.standard_normal(len(idx))
    return CubeFunction(n, FOURIER, coeffs)


def tensor_power(f: CubeFunction, m: int) -> CubeFunction:
    """F(x_1..x_m) = f(x_1) ... f(x_m), dense; n*m capped at 24."""
    if not (isinstance(m, numbers.Integral) and m >= 1):
        raise InputError(f"tensor_power: need an integer m >= 1, got {m!r}")
    if f.n * m > DENSE_CAP:
        raise InputError(f"tensor_power: n*m = {f.n * m} exceeds dense cap {DENSE_CAP}")
    pts = to_points(f).data
    out = reduce(np.kron, [pts] * m)
    res = CubeFunction(f.n * m, POINT, out)
    return res if f.domain_tag == POINT else to_fourier(res)


# ---------------------------------------------------------------- subsets


@dataclass(frozen=True)  # not a NamedTuple: __post_init__ validates the inputs
class CubeSubset:
    n: int
    membership: np.ndarray  # bool, length 2^n

    def __post_init__(self):
        if _dimension("CubeSubset", self.n) is not self.n:  # a numpy integer
            object.__setattr__(self, "n", int(self.n))
        if self.membership.shape != (1 << self.n,):
            raise InputError("CubeSubset: membership length mismatch")

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.membership))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "CubeSubset":
        n = _dimension("CubeSubset.from_indices", n)
        idx = np.asarray(list(indices))
        if idx.size and (
            idx.dtype.kind not in "iu" or idx.ndim != 1 or idx.min() < 0 or idx.max() >= 1 << n
        ):
            raise InputError(f"CubeSubset.from_indices: need integer indices in [0, 2^{n})")
        m = np.zeros(1 << n, dtype=bool)
        m[idx.astype(np.intp)] = True
        return cls(n, m)

    def indicator(self) -> CubeFunction:
        return CubeFunction(self.n, POINT, self.membership.astype(np.float64))


class DistanceDistribution(NamedTuple):
    n: int
    a: tuple  # n+1 nonnegative ints, ordered pairs


def distance_distribution(A: CubeSubset) -> DistanceDistribution:
    """a_i = #{(x,y) in A x A : |x - y| = i}, ordered pairs, by the spectral
    identity a = 2^n . IWHT((WHT 1_A)^2) bucketed by weight.

    Two transforms of all 2^n points, whatever |A| is: three points at
    n = 20 took 0.8-1.1 s and about 40 MB on a 2-core x86_64 host."""
    n = A.n
    f = to_fourier(A.indicator())
    conv = walsh_hadamard(f.data**2) * (1 << n)
    # float sums of rounded counts are exact: the total |A|^2 <= 2^48 < 2^53
    a = np.bincount(weight_table(n), weights=np.rint(conv), minlength=n + 1)
    return DistanceDistribution(n, tuple(int(v) for v in a))


def undetected_error_probability(A: CubeSubset, eps: float) -> float:
    """P_ue(A, eps) = (1/|A|) sum_{i>=1} a_i eps^i (1-eps)^{n-i}, with a from
    distance_distribution: two transforms of all 2^n points, whatever |A| is."""
    if A.size == 0:
        raise InputError("undetected_error_probability: empty set")
    if not (0.0 <= eps <= 0.5):
        raise InputError(f"undetected_error_probability: eps={eps} outside [0, 1/2]")
    dist = distance_distribution(A)
    n = A.n
    total = 0.0
    for i in range(1, n + 1):
        if dist.a[i]:
            total += dist.a[i] * eps**i * (1.0 - eps) ** (n - i)
    return total / A.size


def sphere_indicator(n: int, s: int) -> tuple[CubeSubset, CubeFunction]:
    """The Hamming sphere of radius s: subset and dense indicator."""
    n = _dimension("sphere_indicator", n)
    if not (isinstance(s, numbers.Integral) and 0 <= s <= n):
        raise InputError(f"sphere_indicator: need an integer s in [0, {n}], got {s!r}")
    mask = weight_table(n) == s
    sub = CubeSubset(n, mask)
    return sub, CubeFunction(n, POINT, mask.astype(np.float64))


# ------------------------------------------------------- symmetric profiles


class SymmetricProfile(NamedTuple):
    """Weight-symmetric function stored per Hamming weight in log domain:
    f(x) = sign[|x|] * 2^{logs[|x|]}. Sidesteps 2^n storage entirely."""

    n: int
    signs: np.ndarray  # int8, length n+1
    logs: np.ndarray  # float64, length n+1, -inf where sign is 0

    @classmethod
    def from_weight_values(cls, n: int, values: Sequence[float]) -> "SymmetricProfile":
        n = _integer("SymmetricProfile.from_weight_values", "n", n)
        if len(values) != n + 1:
            raise InputError("SymmetricProfile: need n+1 weight values")
        v = np.asarray(values, dtype=float)
        with np.errstate(divide="ignore"):
            return cls(n, np.sign(v).astype(np.int8), np.log2(np.abs(v)))

    @classmethod
    def kraw(cls, n: int, s: int) -> "SymmetricProfile":
        signs, logs = kraw_log_row(n, s)
        return cls(n, signs, logs)

    @classmethod
    def sphere(cls, n: int, s: int) -> "SymmetricProfile":
        return cls.sphere_union(n, [s])

    @classmethod
    def sphere_union(cls, n: int, radii: Iterable[int]) -> "SymmetricProfile":
        # every norm of a profile needs the log2 binomial row, capped in n
        n = _dimension("sphere_union", n, LOG2_BINOMIAL_CAP)
        signs = np.zeros(n + 1, dtype=np.int8)
        logs = np.full(n + 1, -np.inf)
        for s in radii:
            s = _integer("sphere_union", "radius", s)
            if not 0 <= s <= n:
                raise InputError(f"sphere_union: radius {s} outside [0, {n}]")
            signs[s] = 1
            logs[s] = 0.0
        return cls(n, signs, logs)

    def plus(self, other: "SymmetricProfile") -> "SymmetricProfile":
        return self._combine(other, 1)

    def minus(self, other: "SymmetricProfile") -> "SymmetricProfile":
        return self._combine(other, -1)

    def _combine(self, other: "SymmetricProfile", coeff: int) -> "SymmetricProfile":
        if self.n != other.n:
            raise InputError("SymmetricProfile: dimension mismatch")
        signs, logs = log_sum_exp2_signed(
            [self.logs, other.logs], [self.signs, coeff * other.signs]
        )
        return SymmetricProfile(self.n, signs, logs)

    def lp_norm_log2(self, p: float) -> float:
        """log2 ||f||_p under the uniform cube measure."""
        if p == math.inf:
            return float(self.logs.max())
        if not p >= 1:
            raise InputError(f"lp_norm_log2: need p >= 1 or inf, got p={p}")
        lc = _log2_binomial_row(self.n)
        return log_sum_exp2(lc + p * self.logs - self.n) / p

    def size_log2(self) -> float:
        """log2 of the support size in points, sum of C(n,i) over the support."""
        lc = _log2_binomial_row(self.n)
        return log_sum_exp2(np.where(self.signs != 0, lc, -np.inf))

    def fourier(self) -> "SymmetricProfile":
        """Coefficient profile g(k) = (1/2^n) sum_i v_i K_i(k); one row of
        n+1 terms per support weight, so intended for sparse supports or
        moderate n."""
        sup = np.flatnonzero(self.signs)
        rows = [kraw_log_row(self.n, int(i)) for i in sup]
        rs = np.array([r[0] for r in rows], dtype=np.int8).reshape(len(sup), self.n + 1)
        rl = np.array([r[1] for r in rows]).reshape(len(sup), self.n + 1)
        signs, logs = log_sum_exp2_signed(
            self.logs[sup, None] + rl - self.n, self.signs[sup, None] * rs
        )
        return SymmetricProfile(self.n, signs, logs)

    def noise_inner_log2(self, eps: float) -> float:
        """log2 <T_eps f, f> = log2 sum_k C(n,k) (1-2 eps)^k g(k)^2."""
        if not (0.0 <= eps <= 0.5):
            raise InputError(f"noise_inner_log2: eps={eps} outside [0, 1/2]")
        g = self.fourier()
        rho = 1.0 - 2.0 * eps
        if rho == 0.0:
            # only k = 0 survives, with C(n, 0) = 1
            return 2.0 * float(g.logs[0])
        lc = _log2_binomial_row(self.n)
        k = np.arange(self.n + 1)
        return log_sum_exp2(lc + k * math.log2(rho) + 2.0 * g.logs)

    def to_dense(self) -> CubeFunction:
        if self.n > DENSE_CAP:
            raise InputError(f"to_dense: n={self.n} exceeds dense cap {DENSE_CAP}")
        w = weight_table(self.n)
        vals = np.array(
            [float(s) * 2.0 ** float(l) if s != 0 else 0.0 for s, l in zip(self.signs, self.logs)]
        )
        return CubeFunction(self.n, POINT, vals[w])


def sphere_union_distance_distribution(n: int, s: int) -> list:
    """Exact ordered-pair distance distribution of S_{s-1} union S_s in
    {0,1}^n, by one overlap sum.

    A point x of weight a and a point y of weight b that share w ones are
    at distance a + b - 2w, and there are C(n,a) C(a,w) C(n-a,b-w) such
    ordered pairs; sum over a, b in {s-1, s} and max(0, a+b-n) <= w <= min(a, b).
    """
    n, s = _degree("sphere_union_distance_distribution", n, s)
    if s < 1:
        raise InputError(f"sphere_union_distance_distribution: need 1 <= s <= n, got n={n}, s={s}")
    a = [0] * (n + 1)
    for ra in (s - 1, s):
        for rb in (s - 1, s):
            for w in range(max(0, ra + rb - n), min(ra, rb) + 1):
                a[ra + rb - 2 * w] += (
                    exact_binomial(n, ra) * exact_binomial(ra, w) * exact_binomial(n - ra, rb - w)
                )
    return a


def sphere_union_ue_log2(n: int, s: int, eps: float) -> float:
    """log2 P_ue of the adjacent-sphere union, exact counts + log-domain sum."""
    if not (0.0 < eps <= 0.5):
        raise InputError(f"sphere_union_ue_log2: eps={eps} outside (0, 1/2]")
    a = sphere_union_distance_distribution(n, s)
    size = exact_binomial(n, s - 1) + exact_binomial(n, s)
    le, l1e = math.log2(eps), math.log2(1.0 - eps)
    la = np.array([math.log2(v) if v else -math.inf for v in a[1:]])
    i = np.arange(1, n + 1)
    return log_sum_exp2(la + i * le + (n - i) * l1e) - math.log2(size)
