"""Brute-force ground truth on small Boolean cubes.

Dense functions live as 2^n arrays indexed by bitmask, with an explicit
domain tag (point values vs Fourier coefficients) so transforms cannot be
applied twice silently. Weight-symmetric objects (Krawchouk rows, spheres,
sphere unions) get a per-weight log-domain profile instead, which scales to
n in the thousands where 2^n storage is impossible.

Conventions: W_alpha(x) = (-1)^{|alpha & x|}; the point -> Fourier direction
divides by 2^n, the inverse does not; ||f||_p averages over the cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from .krawchouk import kraw_log_row, kraw_table
from .numerics import (
    LOG2_BINOMIAL_CAP,
    InputError,
    _log2_binomial_row,
    exact_binomial,
    log2_bigint,
    log_sum_exp2,
    log_sum_exp2_signed,
)

DENSE_CAP = 24

POINT = "point-values"
FOURIER = "fourier-coefficients"


def weight_table(n: int) -> np.ndarray:
    """Hamming weights of 0..2^n-1 (uint8), built by doubling."""
    w = np.zeros(1 << n, dtype=np.uint8)
    for b in range(n):
        w[1 << b : 2 << b] = w[: 1 << b] + 1
    return w


@dataclass(frozen=True)
class CubeFunction:
    """Dense real function on {0,1}^n in either domain."""

    n: int
    domain_tag: str
    data: np.ndarray

    def __post_init__(self):
        if self.n > DENSE_CAP:
            raise InputError(f"CubeFunction: n={self.n} exceeds dense cap {DENSE_CAP}")
        if self.domain_tag not in (POINT, FOURIER):
            raise InputError(f"CubeFunction: unknown domain tag {self.domain_tag!r}")
        if self.data.shape != (1 << self.n,):
            raise InputError(
                f"CubeFunction: data length {self.data.shape} != 2^{self.n}"
            )

    @classmethod
    def from_points(cls, n: int, values: Sequence[float]) -> "CubeFunction":
        return cls(n, POINT, np.asarray(values, dtype=np.float64))

    @classmethod
    def from_fourier(cls, n: int, coeffs: Sequence[float]) -> "CubeFunction":
        return cls(n, FOURIER, np.asarray(coeffs, dtype=np.float64))


@lru_cache(maxsize=None)
def _sylvester(k: int) -> np.ndarray:
    """H_k[i, j] = (-1)^{popcount(i & j)}, 2^k x 2^k, built by doubling;
    read-only because every caller shares the cached array."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _walsh_hadamard(data: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis (length
    2^n); leading axes are a batch.

    H_n is the Kronecker product of the Sylvester matrices of consecutive
    bit ranges (Fino & Algazi 1976), so the transform is one small matrix
    product per range: ceil(n/6) ranges of nearly equal size keep every
    factor at most 64 x 64. Range [lo, lo + k) acts on the middle axis of
    the (-1, 2^k, 2^lo) view; the lowest range is one 2-d product.
    """
    m = data.shape[-1]
    n = m.bit_length() - 1
    parts = max(1, -(-n // 6))
    out = data
    lo = 0
    for r in range(parts):
        k = (n - lo) // (parts - r)
        h = _sylvester(k)
        if lo == 0:
            out = out.reshape(-1, 1 << k) @ h
        else:
            out = h @ out.reshape(-1, 1 << k, 1 << lo)
        lo += k
    return out.reshape(data.shape)


def wht(f: CubeFunction) -> CubeFunction:
    """Walsh-Hadamard transform; point -> Fourier divides by 2^n."""
    out = _walsh_hadamard(f.data)
    if f.domain_tag == POINT:
        return CubeFunction(f.n, FOURIER, out / (1 << f.n))
    return CubeFunction(f.n, POINT, out)


def to_points(f: CubeFunction) -> CubeFunction:
    return f if f.domain_tag == POINT else wht(f)


def to_fourier(f: CubeFunction) -> CubeFunction:
    return f if f.domain_tag == FOURIER else wht(f)


def apply_noise(f: CubeFunction, eps: float) -> CubeFunction:
    """T_eps as the Fourier multiplier (1-2 eps)^{|alpha|}; returns the same
    domain the input came in."""
    if not (0.0 <= eps <= 0.5):
        raise InputError(f"apply_noise: eps={eps} outside [0, 1/2]")
    g = to_fourier(f)
    mult = (1.0 - 2.0 * eps) ** weight_table(f.n).astype(np.float64)
    noisy = CubeFunction(f.n, FOURIER, g.data * mult)
    return to_points(noisy) if f.domain_tag == POINT else noisy


def spectral_project(f: CubeFunction, k: int) -> CubeFunction:
    """Pi_k: keep only weight-k Fourier coefficients."""
    if not (0 <= k <= f.n):
        raise InputError(f"spectral_project: k={k} outside [0, {f.n}]")
    g = to_fourier(f)
    masked = np.where(weight_table(f.n) == k, g.data, 0.0)
    proj = CubeFunction(f.n, FOURIER, masked)
    return to_points(proj) if f.domain_tag == POINT else proj


def lp_norm(f: CubeFunction, p: float) -> float:
    """||f||_p = ((1/2^n) sum |f|^p)^{1/p}; p = inf gives max |f|."""
    g = to_points(f)
    if p == math.inf:
        return float(np.max(np.abs(g.data)))
    if p < 1:
        raise InputError(f"lp_norm: need p >= 1 or inf, got p={p}")
    return float(np.mean(np.abs(g.data) ** p) ** (1.0 / p))


def inner_product(f: CubeFunction, g: CubeFunction) -> float:
    """<f, g> = (1/2^n) sum f(x) g(x)."""
    if f.n != g.n:
        raise InputError("inner_product: dimension mismatch")
    return float(np.mean(to_points(f).data * to_points(g).data))


def random_homogeneous(n: int, s: int, seed: int) -> CubeFunction:
    """Standard-normal coefficients on exactly the weight-s characters,
    deterministically derived from the seed (counter-based generator)."""
    if not (0 <= s <= n <= 20):
        raise InputError(f"random_homogeneous: need 0 <= s <= n <= 20, got {n}, {s}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    w = weight_table(n)
    coeffs = np.zeros(1 << n)
    idx = np.nonzero(w == s)[0]
    coeffs[idx] = rng.standard_normal(len(idx))
    return CubeFunction(n, FOURIER, coeffs)


def tensor_power(f: CubeFunction, m: int) -> CubeFunction:
    """F(x_1..x_m) = f(x_1) ... f(x_m), dense; n*m capped at 24."""
    if m < 1:
        raise InputError(f"tensor_power: need m >= 1, got {m}")
    if f.n * m > DENSE_CAP:
        raise InputError(f"tensor_power: n*m = {f.n * m} exceeds dense cap {DENSE_CAP}")
    pts = to_points(f).data
    out = reduce(np.kron, [pts] * m)
    res = CubeFunction(f.n * m, POINT, out)
    return res if f.domain_tag == POINT else to_fourier(res)


# ---------------------------------------------------------------- subsets


@dataclass(frozen=True)
class CubeSubset:
    n: int
    membership: np.ndarray  # bool, length 2^n

    def __post_init__(self):
        if self.n > DENSE_CAP:
            raise InputError(f"CubeSubset: n={self.n} exceeds dense cap {DENSE_CAP}")
        if self.membership.shape != (1 << self.n,):
            raise InputError("CubeSubset: membership length mismatch")

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.membership))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "CubeSubset":
        m = np.zeros(1 << n, dtype=bool)
        for i in indices:
            m[i] = True
        return cls(n, m)

    def indicator(self) -> CubeFunction:
        return CubeFunction(self.n, POINT, self.membership.astype(np.float64))


@dataclass(frozen=True)
class DistanceDistribution:
    n: int
    a: tuple  # n+1 nonnegative ints, ordered pairs


def distance_distribution(A: CubeSubset, force_scan: bool = False) -> DistanceDistribution:
    """a_i = #{(x,y) in A x A : |x - y| = i}, ordered pairs.

    Pair scan is the oracle for small sets; larger sets go through the
    spectral identity a = 2^n . IWHT((WHT 1_A)^2) bucketed by weight.
    """
    n = A.n
    size = A.size
    w = weight_table(n)
    if force_scan or size <= 1 << 9:
        idx = np.nonzero(A.membership)[0]
        a = [0] * (n + 1)
        for x in idx:
            d = w[np.bitwise_xor(idx, x)]
            for i in d:
                a[i] += 1
        return DistanceDistribution(n, tuple(a))
    f = to_fourier(A.indicator())
    conv = _walsh_hadamard(f.data**2) * (1 << n)
    # float sums of rounded counts are exact: the total |A|^2 <= 2^48 < 2^53
    a = np.bincount(w, weights=np.rint(conv), minlength=n + 1)
    return DistanceDistribution(n, tuple(int(v) for v in a))


def undetected_error_probability(A: CubeSubset, eps: float) -> float:
    """P_ue(A, eps) = (1/|A|) sum_{i>=1} a_i eps^i (1-eps)^{n-i}."""
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
    if not (0 <= s <= n <= DENSE_CAP):
        raise InputError(f"sphere_indicator: need 0 <= s <= n <= {DENSE_CAP}")
    mask = weight_table(n) == s
    sub = CubeSubset(n, mask)
    return sub, CubeFunction(n, POINT, mask.astype(np.float64))


# ------------------------------------------------------- symmetric profiles


@dataclass(frozen=True)
class SymmetricProfile:
    """Weight-symmetric function stored per Hamming weight in log domain:
    f(x) = sign[|x|] * 2^{logs[|x|]}. Sidesteps 2^n storage entirely."""

    n: int
    signs: np.ndarray  # int8, length n+1
    logs: np.ndarray  # float64, length n+1, -inf where sign is 0

    @classmethod
    def from_weight_values(cls, n: int, values: Sequence[float]) -> "SymmetricProfile":
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
        if not (0 <= n <= LOG2_BINOMIAL_CAP):
            raise InputError(f"sphere_union: n={n} outside [0, {LOG2_BINOMIAL_CAP}]")
        signs = np.zeros(n + 1, dtype=np.int8)
        logs = np.full(n + 1, -np.inf)
        for s in radii:
            if not (0 <= s <= n):
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
        if p < 1:
            raise InputError(f"lp_norm_log2: need p >= 1 or inf, got p={p}")
        lc = np.asarray(_log2_binomial_row(self.n))
        return log_sum_exp2(lc + p * self.logs - self.n) / p

    def size_log2(self) -> float:
        """log2 of the support size in points, sum of C(n,i) over the support."""
        lc = np.asarray(_log2_binomial_row(self.n))
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
        lc = np.asarray(_log2_binomial_row(self.n))
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


# ----------------------------------------------------------- serialization


def subset_from_bitstrings(n: int, text: str) -> CubeSubset:
    """Newline-separated bitstrings of length n, leftmost bit = coordinate 0."""
    members = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if len(line) != n or set(line) - {"0", "1"}:
            raise InputError(f"subset_from_bitstrings: bad line {line!r}")
        members.append(sum(1 << i for i, c in enumerate(line) if c == "1"))
    return CubeSubset.from_indices(n, members)


def subset_to_bitstrings(A: CubeSubset) -> str:
    lines = []
    for x in np.nonzero(A.membership)[0]:
        lines.append("".join("1" if (int(x) >> i) & 1 else "0" for i in range(A.n)))
    return "\n".join(lines)


def sphere_union_distance_distribution(n: int, s: int) -> list:
    """Exact ordered-pair distance distribution of S_{s-1} union S_s in
    {0,1}^n, via hypergeometric cross-section counts.

    Within radius a at even distance 2j: |S_a| C(a,j) C(n-a,j) pairs; across
    the two radii at odd distance i with overlap w = (s-1+s-i)/2:
    2 |S_{s-1}| C(s-1,w) C(n-s+1, s-w) pairs.
    """
    if not (1 <= s <= n):
        raise InputError(f"sphere_union_distance_distribution: need 1 <= s <= n")
    a = [0] * (n + 1)
    for rad in (s - 1, s):
        size = exact_binomial(n, rad)
        for j in range(0, n // 2 + 1):
            cnt = exact_binomial(rad, j) * exact_binomial(n - rad, j)
            if cnt and 2 * j <= n:
                a[2 * j] += size * cnt
    size_lo = exact_binomial(n, s - 1)
    for i in range(1, n + 1, 2):
        w2 = 2 * s - 1 - i
        if w2 < 0 or w2 % 2 != 0:
            continue
        w = w2 // 2
        cnt = exact_binomial(s - 1, w) * exact_binomial(n - s + 1, s - w)
        if cnt:
            a[i] += 2 * size_lo * cnt
    return a


def sphere_union_ue_log2(n: int, s: int, eps: float) -> float:
    """log2 P_ue of the adjacent-sphere union, exact counts + log-domain sum."""
    if not (0.0 < eps <= 0.5):
        raise InputError(f"sphere_union_ue_log2: eps={eps} outside (0, 1/2]")
    a = sphere_union_distance_distribution(n, s)
    size = exact_binomial(n, s - 1) + exact_binomial(n, s)
    le, l1e = math.log2(eps), math.log2(1.0 - eps)
    la = np.array([log2_bigint(v) if v else -math.inf for v in a[1:]])
    i = np.arange(1, n + 1)
    return log_sum_exp2(la + i * le + (n - i) * l1e) - log2_bigint(size)
