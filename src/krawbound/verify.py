"""Orchestrated verification suites.

Every suite is one row of a table keyed by its tag, and `run_suite` is the
only dispatcher. Three families share the table: identity sweeps drive the
closed-form cross-checks over grids (a row gives its cells and a residual
checked against a tolerance), tightness sweeps measure how close the extremal
objects come to the bounds, and seeded searches look for counterexamples to
the moment inequality (the power method for l_p norms over homogeneous
polynomials, after D. W. Boyd 1974 and N. J. Higham 1992). Every suite
consumes a SuiteConfig and emits a SuiteReport whose payload is a pure
function of the config: replays are bit-for-bit identical, wall time lives
outside the payload. The array layers (cube, krawchouk, induction) and
numpy are imported inside the functions that use them, so that a sweep of
the scalar formulas alone never loads them.
"""

from __future__ import annotations

import math
import numbers
import time
from collections.abc import Callable
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

from .bivariate import _gate, _tau_at, edge_iso_min_check, phi, phi_transform_check, pi_min_check, psi, tau
from .bounds import (
    edge_iso_bound,
    hypercontractive_bound,
    make_report,
    moment_bound,
    support_projection_bound,
    ue_exponent,
)
from .numerics import (
    InputError,
    _entropy,
    _integer,
    _log2_binomial_row,
    binary_entropy,
    inverse_entropy,
    linspace,
)

if TYPE_CHECKING:
    import numpy as np


class SuiteConfig(NamedTuple):
    # no defaults: a `{}` default would be one dict shared by every config
    suite: str
    grid: dict
    tolerances: dict
    seed: int
    budget: dict


class SuiteReport(NamedTuple):
    config: SuiteConfig
    cases: tuple
    worst_margin: float
    measured_constants: dict
    counterexamples: tuple
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases) and not self.counterexamples

    def payload(self) -> dict:
        """Everything except wall time: the deterministic replay target."""
        return {
            "config": self.config._asdict(),
            "cases": [c.to_dict() for c in self.cases],
            "worst_margin": self.worst_margin,
            "measured_constants": self.measured_constants,
            "counterexamples": list(self.counterexamples),
            "pass": self.passed,
        }


# ------------------------------------------------------- extremal search

_SEARCH_ITERATIONS = 500  # power-method steps per row at most
_SEARCH_N_CAP = 14  # largest n of the dense searches and mixtures


def _philox_streams(seed: int) -> Callable[[int], np.random.Generator]:
    """r -> the stream of np.random.Generator(np.random.Philox(key=[seed, r])).

    One generator is re-keyed in place for each r, at counter 0 with an
    empty buffer, because each fresh Philox also draws OS entropy for a
    seed sequence it never uses."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(key=0))
    state = rng.bit_generator.state

    def stream(r: int) -> np.random.Generator:
        # Philox's own conversion of a key list, which wraps a negative seed
        state["state"]["key"] = np.asarray([seed, r]).astype(np.uint64)
        rng.bit_generator.state = state
        return rng

    return stream


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """x with each row scaled to unit l2 norm, in place; einsum takes the
    row norms without the squared copy np.linalg.norm makes. A row whose
    sum of squares leaves the float range (a gradient at large p) is first
    divided by its largest entry."""
    import numpy as np

    sq = np.einsum("ij,ij->i", x, x)
    big = np.isinf(sq)
    if big.any():
        x[big] /= np.abs(x[big]).max(axis=1, keepdims=True)
        sq[big] = np.einsum("ij,ij->i", x[big], x[big])
    x /= np.sqrt(sq)[:, None]
    return x


class SearchRecord(NamedTuple):
    """One extremal-search cell; `converged_starts` counts the rows that
    stopped rising before the iteration cap."""

    n: int
    s: int
    p: float
    budget: int
    seed: int
    best_log2_ratio: float
    best_fourier_coeffs: tuple
    kraw_log2_ratio: float
    bound_log2: float
    converged_starts: int
    counterexample: dict | None


def search_extremal_ratio(
    n: int,
    s: int,
    p: float,
    budget: int = 200,
    seed: int = 0,
) -> SearchRecord:
    """Maximize E|f|^p / (E f^2)^{p/2} over homogeneous degree-s f by the
    power method for l_p norms (D. W. Boyd, Linear Algebra Appl. 9, 1974;
    N. J. Higham, Numer. Math. 62, 1992), from `budget` random starts plus
    the uniform-coefficient (Krawchouk) start as row 0.

    On the unit coefficient sphere c -> E|WHT c|^p is convex, so the
    normalized weight-s projection d of its gradient WHT(f |f|^{p-2}) never
    lowers it and needs no step size. A row whose rise is more than half its
    previous one also tries the over-relaxed e = normalize(c + omega (d - c))
    (Salakhutdinov & Roweis, ICML 2003), valued by its own transform, and
    moves to the better of d and e; its own omega starts at 2, doubles while
    e wins and falls back to 2 when e loses. A row takes each step whose
    value does not fall, and is transformed only while it rises by more
    than 1e-14, for at most _SEARCH_ITERATIONS = 500 steps.

    The rows live on the half cube {x : top bit 0} of n - 1 bits (Fino &
    Algazi, IEEE Trans. Comput. 25, 1976). Complementing every bit maps
    chi_alpha to (-1)^|alpha| chi_alpha, so f and g both change by (-1)^s,
    and the mean of |f|^p over the half cube is that over the cube. There
    chi_alpha is the (n - 1)-bit character of alpha' = alpha mod 2^(n-1),
    of weight s or s - 1; alpha -> alpha' is one to one on level s, since
    alpha and alpha + 2^(n-1) differ in weight. So f is the (n - 1)-bit
    transform of the coefficients put at alpha', and the gradient WHT(g)
    at a level-s alpha is twice the (n - 1)-bit transform of g at alpha'
    (the two halves of the sum agree), a factor the normalization drops.
    Coefficients go in and come out in the order of level s. The reported
    coefficients are those of the lowest-index row within 1e-12 relative of
    the best ratio. A best ratio above the proven exponent is returned as a
    serializable counterexample artifact, not raised. A cell whose sums of
    |f|^p could leave the float range, 2^n C(n, s)^(p/2) >= 2^1024, is
    refused.
    """
    import numpy as np

    from .cube import walsh_hadamard, weight_table
    from .krawchouk import kraw_moments

    if not all(isinstance(v, numbers.Integral) for v in (n, s, budget)):
        raise InputError(f"search_extremal_ratio: need integers n={n!r}, s={s!r}, budget={budget!r}")
    seed = _seed("search_extremal_ratio", seed)
    if n > _SEARCH_N_CAP:
        raise InputError(f"search_extremal_ratio: n={n} exceeds search cap {_SEARCH_N_CAP}")
    if not (0 <= s <= n / 2):
        raise InputError(f"search_extremal_ratio: need 0 <= s <= n/2")
    if not p >= 2:
        raise InputError(f"search_extremal_ratio: need p >= 2, got {p}")
    if budget < 0:
        raise InputError(f"search_extremal_ratio: need budget >= 0 restarts, got {budget}")
    bound = moment_bound(n, s, p)
    if s == 0:
        return SearchRecord(n, s, p, budget, seed, 0.0, (1.0,), 0.0, bound, budget + 1, None)
    level = np.flatnonzero(weight_table(n) == s)
    m = 1 << (n - 1)
    pos = level & (m - 1)  # alpha' of each level-s alpha, in level-s order
    mask = np.isin(weight_table(n - 1), (s - 1, s))
    live = level.size
    # |f| <= sqrt(C(n, s)) on unit coefficients, so no sum of |f|^p over the
    # cube exceeds 2^n C(n, s)^(p/2)
    reach = n + 0.5 * p * math.log2(live)
    if reach >= 1024:
        raise InputError(
            f"search_extremal_ratio: sums of |f|^p may reach 2^{reach:.0f}, "
            f"outside the float range (below 2^1024); need a smaller p"
        )
    rows = budget + 1
    # `cur` holds the batch of rows still rising, `kept` every row's live
    # coefficients at its best value once the row leaves the batch
    cur = np.zeros((rows, m))
    cur[0, pos] = 1.0
    stream = _philox_streams(seed)
    for r in range(1, rows):
        cur[r, pos] = stream(r).standard_normal(live)
    kept = _unit_rows(cur)[:, pos]

    def values(c):
        # g = f |f|^(p-2) is both the point-space gradient direction and,
        # times f, the p-th moment. |f|^(p-2) is squared in place while its
        # exponent is an even integer, several times faster than libm pow;
        # an exponent left at 1 needs no pass, and 1/2 (p = 2.5) is a sqrt.
        # In place, with the bits of np.mean.
        pts = walsh_hadamard(c)
        g = np.abs(pts)
        e = p - 2.0
        while e >= 2.0 and e % 2.0 == 0.0:
            g *= g
            e /= 2.0
        if e != 1.0:
            g **= e
        g *= pts
        pts *= g
        return g, np.log2(pts.sum(axis=1) / m)

    cur_g, best = values(cur)
    active = np.arange(rows)
    rise = np.full(rows, np.inf)  # each row's last Boyd-step rise
    omega = np.full(rows, 2.0)  # each row's over-relaxation factor
    for _ in range(_SEARCH_ITERATIONS):
        if active.size == 0:
            break
        # d/dc mean|f|^p is proportional to WHT(g); <WHT(g), c> = sum |f|^p
        # > 0, so its level-s projection, the mask, never vanishes
        cand = walsh_hadamard(cur_g)
        del cur_g  # each batch is freed before the next transform
        cand *= mask
        cand_g, cand_val = values(_unit_rows(cand))
        old = best[active]
        up = cand_val - old
        # a row never falls: if its step would, it keeps its point and stops
        fell = up < 0
        cand[fell], cand_val[fell] = cur[fell], old[fell]
        # over-relax the rows whose rise is more than half their last one
        slow = np.flatnonzero(up > 0.5 * rise[active])
        rise[active] = up
        ext_rows = active[slow]
        ext = cand[slow]
        ext -= cur[slow]
        ext *= omega[ext_rows, None]
        ext += cur[slow]
        del cur
        ext_g, ext_val = values(_unit_rows(ext))
        win = ext_val > cand_val[slow]
        omega[ext_rows] = np.where(win, 2.0 * omega[ext_rows], 2.0)
        won = slow[win]
        cand[won], cand_g[won], cand_val[won] = ext[win], ext_g[win], ext_val[win]
        del ext, ext_g
        best[active] = cand_val
        stay = cand_val > old + 1e-14
        if not stay.all():
            kept[active[~stay]] = cand[np.ix_(~stay, pos)]
            cand, cand_g, active = cand[stay], cand_g[stay], active[stay]
        cur, cur_g = cand, cand_g
    kept[active] = cur[:, pos]
    best_val = float(best.max())
    top = int(np.argmax(best >= best_val - 1e-12 * abs(best_val)))
    kraw = kraw_moments(n, s, p).log2_ratio
    counterexample = None
    if best_val > bound + 1e-9:
        full = np.zeros(2 * m)
        full[level] = kept[top]
        counterexample = {
            "n": n,
            "s": s,
            "p": p,
            "seed": seed,
            "log2_ratio": best_val,
            "bound_log2": bound,
            "fourier_coefficients": [float(v) for v in full],
        }
    coeffs = tuple(float(v) for v in kept[top])
    converged = rows - active.size
    return SearchRecord(n, s, p, budget, seed, best_val, coeffs, kraw, bound, converged, counterexample)


def degree_at_most_check(
    n: int, s: int, p: float, budget: int = 1000, seed: int = 0
) -> SuiteReport:
    """The `degree-at-most` suite at the one cell (n, s, p): random Fourier
    mixtures across levels 0..s against the degree-s moment bound, margin
    >= -1e-9 on every one of `budget` sampled instances."""
    return run_suite("degree-at-most", {"n": (n,), "s": (s,), "p": (p,)}, seed, {"instances": budget})


# ---------------------------------------------------------- identity cells


def _product(**axes):
    """The default cells: every combination of the axis values, as floats,
    the first axis outermost."""
    for values in product(*axes.values()):
        yield dict(zip(axes, map(float, values)))


def _pi_min_cells(sigma, kappa):
    # pi(sigma, kappa) is defined for kappa <= 2 sigma (1 - sigma) only
    for sg, kp in product(map(float, sigma), map(float, kappa)):
        if kp <= 2 * sg * (1 - sg):
            yield {"sigma": sg, "kappa": kp}


def _edge_iso_min_cells(sigma, yfrac):
    # y runs over fractions of its range [0, 2 sigma (1 - sigma)]
    for sg, frac in product(map(float, sigma), map(float, yfrac)):
        yield {"sigma": sg, "y": frac * (2 * sg * (1 - sg))}


def _nsp_cells(n, p):
    # three s per (n, p): n/8, n/4 and 3n/8
    for nv, pv in product(n, p):
        for s in (nv // 8, nv // 4, 3 * nv // 8):
            yield {"n": nv, "s": s, "p": float(pv)}


def _psi_two_reps(p, x):
    ev = psi(p, x)
    return abs(ev.value - ev.second_value)


def _phi_eq_f(n, s, p):
    from .induction import cap_F, induction_params

    par = induction_params(n, s, p)
    return abs(cap_F(par.rho ** (p / 2.0), 1.0, p) / par.phi_big - 1.0)


def _u_star(n, s, p):
    from .induction import der_zer_residual, induction_params

    par = induction_params(n, s, p)
    return abs(der_zer_residual(par.u_star, par.rho, p))


# ----------------------------------------------------------- measured suites
#
# Each returns (cases, measured constants, counterexample artifacts).


def _disc_phi(nv: int, sigma: float, eps: list) -> list:
    """phi's maximum over the n-point grid y = k/n, k <= n/2, at each eps:
    max_k { y log2(1 - 2 eps) + H(y) + 2 tau(sigma, y) } - 2. At eps >= 1/2,
    log2(1 - 2 eps) = -inf kills every y > 0: the y = 0 term 2 H(sigma) - 2."""
    tau_s = _tau_at(_gate("disc-cont", "sigma", sigma))
    y = [k / nv for k in range(nv // 2 + 1)]
    h_y = [_entropy(t) for t in y]
    tau2_y = [2.0 * tau_s(t, h) for t, h in zip(y, h_y)]
    out = []
    for ep in eps:
        if ep < 0.5:
            slope = math.log2(1.0 - 2.0 * ep)
            out.append(max(t * slope + h + u - 2.0 for t, h, u in zip(y, h_y, tau2_y)))
        else:
            out.append(h_y[0] + tau2_y[0] - 2.0)
    return out


def _disc_cont(n, sigma, eps, tol):
    # The continuous maximum defining phi exceeds its n-point grid version
    # by at most O(1/n); the measured constant is reported.
    if any(nv < 1 for nv in n):
        raise InputError(f"disc-cont: need n >= 1, got n={n}")
    cases, worst_c = [], 0.0
    eps = [float(ep) for ep in eps]
    for nv, sg in product(n, map(float, sigma)):
        for ep, disc in zip(eps, _disc_phi(nv, sg, eps)):
            gap = phi(sg, ep) - disc
            worst_c = max(worst_c, gap * nv)
            # grid max may never exceed the continuous max, and must be within
            # tol/n below it
            ok_resid = max(-gap, gap - tol / nv)
            cell = {"n": nv, "sigma": sg, "eps": ep}
            cases.append(make_report("disc-cont", cell, ok_resid, 0.0, tol=1e-12))
    return cases, {"disc_cont_n_times_gap": worst_c}, ()


def _ladder(tag, rungs, rung, tol=1e-9):
    """One case per rung: rung(r) returns (cell, lhs, rhs, value). Returns
    the cases and the rungs' values, from which a suite measures its
    constants."""
    cases, values = [], []
    for r in rungs:
        cell, lhs, rhs, value = rung(r)
        cases.append(make_report(tag, cell, lhs, rhs, tol=tol))
        values.append(value)
    return cases, values


def _edge_iso_sphere(n, s):
    sigma = s / n
    ls, lns = _log2_binomial_row(s), _log2_binomial_row(n - s)

    def rung(i):
        actual = ls[i // 2] + lns[i // 2]  # log2 of the C(s, i/2) C(n - s, i/2) pairs at distance i
        bound = edge_iso_bound(n, sigma, i) * n
        return {"n": n, "s": s, "i": i}, actual, bound, 2.0 ** (bound - actual) / i

    even = [2 * j for j in range(1, s + 1) if 2 * j <= 2 * sigma * (1 - sigma) * n]
    cases, overshoot = _ladder("edge-iso-sphere", even, rung)
    return cases, {"edge_iso_overshoot_per_i": max(overshoot, default=0.0)}, ()


def _hc_sphere_gap(eps, s):
    import numpy as np

    from .cube import SymmetricProfile

    if len(set(s)) < 2 or min(s) < 1:
        raise InputError(f"hc-sphere-gap: need two or more distinct s >= 1 to fit a slope, got s={s}")
    eps = float(eps)
    p = 1 + (1 - 2 * eps) ** 2

    def rung(sv):
        n = 4 * sv
        prof = SymmetricProfile.sphere(n, sv)
        p_norm = prof.lp_norm_log2(p)
        bound = hypercontractive_bound((p_norm - prof.lp_norm_log2(1)) / n, eps, p) * n + p_norm
        # ||T_eps f||_2^2 = <T_eps' f, f> with the composed rate eps'
        lhs = 0.5 * prof.noise_inner_log2(2 * eps * (1 - eps))
        return {"n": n, "s": sv, "eps": eps}, lhs, bound, bound - lhs

    cases, gaps = _ladder("hc-sphere-gap", s, rung)
    slope = float(np.polyfit([math.log2(sv) for sv in s], gaps, 1)[0])
    cs = [2.0**gap / sv**0.75 for gap, sv in zip(gaps, s)]
    return cases, {"hc_gap_bits_slope_vs_log2_s": slope, "hc_gap_factor_over_s_0.75": cs}, ()


def _ue_sphere_union(eps, n, R):
    from .cube import sphere_union_ue_log2

    eps, R = float(eps), float(R)

    def rung(nv):
        s = round(inverse_entropy(R) * nv)
        brute = sphere_union_ue_log2(nv - 1, s, eps)
        exact = ue_exponent(binary_entropy(s / nv), eps) * nv
        return {"n": nv, "R": R, "eps": eps}, brute, exact, (exact - brute) / math.log2(nv)

    cases, per_log = _ladder("ue-sphere-union", n, rung)
    exploding = any(b > a + 1.0 for a, b in zip(per_log, per_log[1:]))
    return cases, {"ue_gap_bits_per_log2n": per_log, "trend_non_exploding": not exploding}, ()


def _tails_sphere(n):
    # every root-delimited interval must carry l2 mass; the margin is the
    # headroom in bits over an n^{-5/2} floor
    from .krawchouk import l2_between_roots

    def rung(nv):
        records = l2_between_roots(nv, nv // 4)
        interior = [r for r in records if not r.empty]
        scaled = min(r.attainment_factor for r in interior) * nv**2.5
        cell = {"n": nv, "s": nv // 4, "intervals": len(records), "nonempty": len(interior)}
        return cell, -math.log2(max(scaled, 1e-300)), 0.0, scaled

    cases, scaled = _ladder("tails-sphere", n, rung, tol=0.0)
    return cases, {"between_roots_mass_times_n_2.5": scaled}, ()


def _max_proj_roots(n):
    from .krawchouk import l2_between_roots

    cases, scaled = [], []
    for nv in n:
        s = nv // 8
        sigma = inverse_entropy(_log2_binomial_row(nv)[s] / nv)
        records = l2_between_roots(nv, s)
        worst_factor = 0.0
        for rec in records:
            if rec.empty or not (1 <= rec.best_i <= nv // 2):
                continue
            actual_log2 = 0.5 * math.log2(rec.attainment_factor)
            bound_log2 = support_projection_bound(sigma, rec.best_i / nv) * nv
            worst_factor = max(worst_factor, 2.0 ** (bound_log2 - actual_log2))
            cell = {"n": nv, "s": s, "k": rec.best_i}
            cases.append(make_report("max-proj-roots", cell, actual_log2, bound_log2, tol=1e-9))
        scaled.append(worst_factor / nv**2.5)
    return cases, {"max_proj_factor_over_n_2.5": scaled}, ()


def _extremal_search(n, s, p, seed, restarts):
    def rung(cell):
        rec = search_extremal_ratio(**cell, budget=restarts, seed=seed)
        return cell, rec.best_log2_ratio, rec.bound_log2, rec.counterexample

    cells = [{"n": nv, "s": sv, "p": pv} for nv, pv in product(n, map(float, p)) for sv in s if 1 <= sv <= nv // 2]
    cases, found = _ladder("extremal-search", cells, rung)
    return cases, {}, [c for c in found if c]


def _degree_at_most(n, s, p, seed, instances):
    # random Fourier mixtures across levels 0..s against the degree-s moment
    # bound, `instances` of them per cell; on the full cube, since levels of
    # both parities leave f without the search's complement symmetry
    import numpy as np

    from .cube import CubeFunction, lp_norm, to_points, weight_table

    if instances < 1:
        raise InputError(f"degree_at_most_check: need budget >= 1 instance, got {instances}")
    cases, stream = [], _philox_streams(seed)
    for nv, sv, pv in product(n, s, map(float, p)):
        if nv > _SEARCH_N_CAP or not (1 <= sv <= nv / 2) or not pv >= 2:
            raise InputError(f"degree_at_most_check: need n <= {_SEARCH_N_CAP}, 1 <= s <= n/2, p >= 2")
        levels = [np.flatnonzero(weight_table(nv) == r) for r in range(sv + 1)]
        bound = moment_bound(nv, sv, pv)
        for inst in range(instances):
            rng = stream(inst)
            coeffs = np.zeros(1 << nv)
            if inst == 0:
                # pure top level: the homogeneous case
                coeffs[levels[sv]] = rng.standard_normal(len(levels[sv]))
            elif inst == 1:
                # concentrated strictly below the top level (s >= 1)
                coeffs[levels[sv - 1]] = rng.standard_normal(len(levels[sv - 1]))
            else:
                scales = rng.standard_normal(sv + 1)
                for r, idx in enumerate(levels):
                    coeffs[idx] = scales[r] * rng.standard_normal(len(idx))
            f = to_points(CubeFunction(nv, "fourier-coefficients", coeffs))
            lhs = pv * math.log2(lp_norm(f, pv)) - pv * math.log2(lp_norm(f, 2))
            cell = {"n": nv, "s": sv, "p": pv, "instance": inst}
            cases.append(make_report("moment-degree-at-most", cell, lhs, bound, tol=1e-9))
    return cases, {}, ()


# ------------------------------------------------------------- suite table


class _Suite(NamedTuple):
    """One row of the suite table. `axes` maps each grid axis the suite reads
    to its default values; a bare number marks an axis that takes one value.
    An identity sweep has a `tol` that its `residual` must stay below on each
    cell of `cells(**axes)`. Other suites `measure(**axes)`, given also `tol`,
    or `seed` and the `budget` (key, default) of a seeded search, and return
    cases, measured constants and counterexample artifacts."""

    axes: dict
    tol: float | None = None
    residual: Callable | None = None
    cells: Callable = _product
    measure: Callable | None = None
    budget: tuple | None = None


_SUITES = {
    "tau-symmetry": _Suite(
        {"x": linspace(0.02, 0.48, 24), "y": linspace(0.02, 0.48, 24)},
        1e-8,
        lambda x, y: abs(binary_entropy(y) + tau(x, y) - binary_entropy(x) - tau(y, x)),
    ),
    "psi-two-reps": _Suite({"p": linspace(2.1, 10.0, 21), "x": linspace(0.01, 0.49, 21)}, 1e-9, _psi_two_reps),
    "pi-min": _Suite(
        {"sigma": linspace(0.05, 0.5, 10), "kappa": linspace(0.0, 0.45, 10)},
        1e-8,
        lambda sigma, kappa: abs(pi_min_check(sigma, kappa).gap),
        _pi_min_cells,
    ),
    "phi-transform": _Suite(
        {"sigma": linspace(0.02, 0.5, 8), "eps": linspace(0.01, 0.5, 8)},
        1e-6,
        lambda sigma, eps: abs(phi_transform_check(sigma, eps).gap),
    ),
    "edge-iso-min": _Suite(
        {"sigma": linspace(0.05, 0.5, 8), "yfrac": linspace(0.05, 0.95, 8)},
        1e-6,
        lambda sigma, y: abs(edge_iso_min_check(sigma, y).gap),
        _edge_iso_min_cells,
    ),
    "phi-eq-F": _Suite({"n": (32, 64, 128), "p": (2.5, 3, 4, 6)}, 1e-9, _phi_eq_f, _nsp_cells),
    "u-star": _Suite(
        {"n": (32, 64, 128), "p": (2.5, 3, 4, 6)},
        1e-8,
        _u_star,
        lambda n, p: (c for c in _nsp_cells(n, p) if c["p"] > 2),
    ),
    "disc-cont": _Suite(
        {"n": (64, 128, 256, 512), "sigma": linspace(0.1, 0.4, 4), "eps": linspace(0.05, 0.45, 4)},
        1.0,
        measure=_disc_cont,
    ),
    "edge-iso-sphere": _Suite({"n": 40, "s": 10}, measure=_edge_iso_sphere),
    "hc-sphere-gap": _Suite({"eps": 0.15, "s": (2, 4, 8, 16, 32)}, measure=_hc_sphere_gap),
    "ue-sphere-union": _Suite({"eps": 0.1, "n": (50, 100, 200), "R": 0.5}, measure=_ue_sphere_union),
    "tails-sphere": _Suite({"n": (128, 256, 512)}, measure=_tails_sphere),
    "max-proj-roots": _Suite({"n": (32, 64, 128)}, measure=_max_proj_roots),
    # s keeps 1 <= s <= n/2 of 1..7, every s up to half the search's n cap
    "extremal-search": _Suite(
        {"n": (6, 8), "s": tuple(range(1, 8)), "p": (3, 4)},
        measure=_extremal_search,
        budget=("restarts", 50),
    ),
    "degree-at-most": _Suite(
        {"n": (10,), "s": (3,), "p": (4,)}, measure=_degree_at_most, budget=("instances", 1000)
    ),
}


def all_suite_tags() -> list:
    return sorted(_SUITES)


def identity_tags() -> list:
    return sorted(tag for tag, row in _SUITES.items() if row.tol is not None)


def tightness_tags() -> list:
    return sorted(tag for tag, row in _SUITES.items() if row.tol is None and row.budget is None)


def _seed(tag: str, v) -> int:
    """v as a seed in [0, 2^63): numpy takes a Philox key list holding 2^63
    or more through float64 (2^64 - 1 replays seed 0) and wraps a negative
    seed, so any other seed is an InputError, not another seed's stream."""
    v = _integer(tag, "seed", v)
    if not 0 <= v < 1 << 63:
        raise InputError(f"{tag}: need 0 <= seed < 2^63, got seed={v}")
    return v


def _axis_values(tag: str, axes: dict, grid: dict) -> dict:
    """Each axis's values from the grid, or its default; values of n and s
    as ints. A grid axis the suite does not read, or several values on an
    axis that takes one, is an InputError rather than silently dropped."""
    unknown = sorted(set(grid) - set(axes))
    if unknown:
        raise InputError(f"{tag}: no grid axis {', '.join(unknown)}; it reads {', '.join(axes)}")
    out = {}
    for name, default in axes.items():
        got = grid.get(name, default)
        values = (got,) if isinstance(got, numbers.Number) else tuple(got)
        values = tuple(_integer(tag, name, v) for v in values) if name in ("n", "s") else values
        if isinstance(default, tuple):
            out[name] = values
        elif len(values) == 1:
            out[name] = values[0]
        else:
            raise InputError(f"{tag}: grid axis {name!r} takes one value, got {len(values)}")
    return out


def run_suite(
    name: str,
    grid: dict | None = None,
    seed: int | None = None,
    budget: dict | None = None,
    tol: float | None = None,
) -> SuiteReport:
    """Run the suite `name` of the table. `tol` overrides an identity's
    residual tolerance; `seed` (default 0) and `budget` reach only the seeded
    searches, and either given to any other suite is an InputError."""
    t0 = time.time()
    if name not in _SUITES:
        raise InputError(f"run_suite: unknown suite {name!r}")
    row = _SUITES[name]
    if tol is not None and row.tol is None:
        raise InputError(f"{name}: has no residual tolerance to override, got tol={tol}")
    if tol is not None and not 0.0 <= tol < math.inf:
        raise InputError(f"{name}: need a finite tol >= 0, got tol={tol}")
    if (seed is not None or budget is not None) and row.budget is None:
        raise InputError(f"{name}: is no seeded search, got seed={seed}, budget={budget}")
    grid = grid or {}
    axes = _axis_values(name, row.axes, grid)
    if row.tol is not None:
        tol = row.tol if tol is None else tol
        extra, config = {"tol": tol}, SuiteConfig(name, grid, {"residual": tol}, 0, {})
    elif row.budget is not None:
        key, default = row.budget
        spent = {key: _integer(name, key, (budget or {}).get(key, default))}
        seed = _seed(name, 0 if seed is None else seed)
        extra, config = {"seed": seed, **spent}, SuiteConfig(name, grid, {}, seed, spent)
    else:
        extra, config = {}, SuiteConfig(name, grid, {}, 0, {})
    if row.residual is None:
        cases, constants, artifacts = row.measure(**axes, **extra)
    else:
        cases = [
            make_report(name, cell, row.residual(**cell), tol, tol=0.0)
            for cell in row.cells(**axes)
        ]
        constants, artifacts = {}, ()
    if not cases:
        raise InputError(f"{name}: grid selects no cases")
    worst, spent = min(c.margin for c in cases), time.time() - t0
    return SuiteReport(config, tuple(cases), worst, constants, tuple(artifacts), spent)


def _member(caller: str, tag: str, tags: list) -> str:
    if tag not in tags:
        raise InputError(f"{caller}: unknown tag {tag!r}; known: {', '.join(tags)}")
    return tag


def identity_sweep(which: str, grid: dict | None = None, tol: float | None = None) -> SuiteReport:
    """Sweep one closed-form identity over a grid; each case's measured
    residual must sit below the identity's tolerance."""
    return run_suite(_member("identity_sweep", which, identity_tags()), grid, tol=tol)


def tightness_sweep(which: str, grid: dict | None = None) -> SuiteReport:
    """Measure how close the matching extremal object comes to a bound;
    constants are reported, pass means margins hold and nothing explodes."""
    return run_suite(_member("tightness_sweep", which, tightness_tags()), grid)
