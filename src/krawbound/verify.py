"""Orchestrated verification suites.

Three families: counterexample search for the moment inequality (the power
method for l_p norms over homogeneous polynomials, after D. W. Boyd 1974 and
N. J. Higham 1992), identity sweeps driving the closed-form cross-checks
over default grids, and tightness sweeps measuring how close the extremal
objects come to the bounds. Every suite consumes a SuiteConfig and emits a
SuiteReport whose payload is a pure function of the config: replays are
bit-for-bit identical, wall time lives outside the payload.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .bivariate import (
    edge_iso_min_check,
    phi,
    phi_transform_check,
    pi_min_check,
    psi,
    tau,
)
from .bounds import (
    edge_iso_bound,
    hypercontractive_bound,
    make_report,
    moment_bound,
    support_projection_bound,
    ue_exponent,
)
from .cube import (
    CubeFunction,
    SymmetricProfile,
    _walsh_hadamard,
    lp_norm,
    sphere_union_ue_log2,
    to_points,
    weight_table,
)
from .induction import cap_F, der_zer_residual, induction_params
from .krawchouk import kraw_moments, l2_between_roots
from .numerics import InputError, binary_entropy, inverse_entropy, log2_binomial


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    grid: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    seed: int = 0
    budget: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "grid": self.grid,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class SuiteReport:
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
            "config": self.config.to_dict(),
            "cases": [c.to_dict() for c in self.cases],
            "worst_margin": self.worst_margin,
            "measured_constants": self.measured_constants,
            "counterexamples": list(self.counterexamples),
            "pass": self.passed,
        }

    def to_dict(self) -> dict:
        out = self.payload()
        out["wall_time"] = self.wall_time
        return out

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True)


def _finish(config, cases, constants, counterexamples, t0) -> SuiteReport:
    if not cases:
        raise InputError(f"{config.suite}: grid selects no cases")
    worst = min(c.margin for c in cases)
    return SuiteReport(
        config,
        tuple(cases),
        worst,
        constants,
        tuple(counterexamples),
        time.time() - t0,
    )


# ------------------------------------------------------- extremal search


@dataclass(frozen=True)
class SearchRecord:
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

    def to_dict(self) -> dict:
        return {**asdict(self), "best_fourier_coeffs": list(self.best_fourier_coeffs)}


def search_extremal_ratio(
    n: int,
    s: int,
    p: float,
    budget: int = 200,
    seed: int = 0,
    iterations: int = 500,
) -> SearchRecord:
    """Maximize E|f|^p / (E f^2)^{p/2} over homogeneous degree-s f by the
    power method for l_p norms (D. W. Boyd, Linear Algebra Appl. 9, 1974;
    N. J. Higham, Numer. Math. 62, 1992), from `budget` random starts plus
    the uniform-coefficient (Krawchouk) start as row 0.

    On the unit coefficient sphere c -> E|WHT c|^p is convex, so the
    normalized weight-s projection of its gradient WHT(f |f|^{p-2}) never
    lowers it and needs no step size. A row takes each step whose value does
    not fall, and is transformed only while it rises by more than 1e-14.
    The reported coefficients are those of the lowest-index row within 1e-12
    relative of the best ratio. A best ratio above the proven exponent is
    returned as a serializable counterexample artifact, not raised.
    """
    if n > 14:
        raise InputError(f"search_extremal_ratio: n={n} exceeds search cap 14")
    if not (0 <= s <= n / 2):
        raise InputError(f"search_extremal_ratio: need 0 <= s <= n/2")
    if p < 2:
        raise InputError(f"search_extremal_ratio: need p >= 2, got {p}")
    if budget < 0:
        raise InputError(f"search_extremal_ratio: need budget >= 0 restarts, got {budget}")
    bound = moment_bound(n, s, p)
    if s == 0:
        return SearchRecord(n, s, p, budget, seed, 0.0, (1.0,), 0.0, bound, budget + 1, None)
    m = 1 << n
    mask = weight_table(n) == s
    live = int(mask.sum())
    rows = budget + 1
    coeffs = np.zeros((rows, m))
    coeffs[0, mask] = 1.0
    for r in range(1, rows):
        rng = np.random.Generator(np.random.Philox(key=[seed, r]))
        coeffs[r, mask] = rng.standard_normal(live)
    coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)

    def values(c):
        # g = f |f|^(p-2) is both the point-space gradient direction and,
        # times f, the p-th moment; exponent p - 2 hits numpy's fast powers
        # at p = 2.5, 3 and 4
        pts = _walsh_hadamard(c)
        g = pts * np.abs(pts) ** (p - 2.0)
        return g, np.log2(np.mean(g * pts, axis=1))

    g, best = values(coeffs)
    active = np.arange(rows)
    for _ in range(iterations):
        if active.size == 0:
            break
        # d/dc mean|f|^p is proportional to WHT(g); <WHT(g), c> = sum |f|^p
        # > 0, so its weight-s projection never vanishes
        cand = _walsh_hadamard(g[active])
        cand *= mask
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        cand_g, cand_val = values(cand)
        old = best[active]
        take = cand_val >= old
        moved = active[take]
        coeffs[moved], g[moved], best[moved] = cand[take], cand_g[take], cand_val[take]
        active = active[cand_val > old + 1e-14]
    converged = rows - active.size
    best_val = float(best.max())
    top = int(np.argmax(best >= best_val - 1e-12 * abs(best_val)))
    kraw = kraw_moments(n, s, p).log2_ratio
    counterexample = None
    if best_val > bound + 1e-9:
        counterexample = {
            "n": n,
            "s": s,
            "p": p,
            "seed": seed,
            "log2_ratio": best_val,
            "bound_log2": bound,
            "fourier_coefficients": [float(v) for v in coeffs[top]],
        }
    return SearchRecord(
        n,
        s,
        p,
        budget,
        seed,
        best_val,
        tuple(float(v) for v in coeffs[top, mask]),
        kraw,
        bound,
        converged,
        counterexample,
    )


def degree_at_most_check(
    n: int, s: int, p: float, budget: int = 1000, seed: int = 0
) -> SuiteReport:
    """Random Fourier mixtures across levels 0..s against the degree-s
    moment bound: margin >= -1e-9 on every sampled instance."""
    t0 = time.time()
    config = SuiteConfig(
        "degree-at-most",
        grid={"n": n, "s": s, "p": p},
        tolerances={"margin": 1e-9},
        seed=seed,
        budget={"instances": budget},
    )
    if n > 14 or not (1 <= s <= n / 2) or p < 2:
        raise InputError("degree_at_most_check: need n <= 14, 1 <= s <= n/2, p >= 2")
    if budget < 1:
        raise InputError(f"degree_at_most_check: need budget >= 1 instance, got {budget}")
    m = 1 << n
    w = weight_table(n)
    bound = moment_bound(n, s, p)
    cases = []
    for inst in range(budget):
        rng = np.random.Generator(np.random.Philox(key=[seed, inst]))
        coeffs = np.zeros(m)
        if inst == 0:
            # pure top level: the homogeneous case
            coeffs[w == s] = rng.standard_normal(int((w == s).sum()))
        elif inst == 1:
            # concentrated strictly below the top level
            r = max(0, s - 1)
            coeffs[w == r] = rng.standard_normal(int((w == r).sum()))
        else:
            scales = rng.standard_normal(s + 1)
            for r in range(s + 1):
                sel = w == r
                coeffs[sel] = scales[r] * rng.standard_normal(int(sel.sum()))
        f = to_points(CubeFunction(n, "fourier-coefficients", coeffs))
        lhs = p * math.log2(lp_norm(f, p)) - p * math.log2(lp_norm(f, 2))
        cases.append(
            make_report(
                "moment-degree-at-most",
                {"n": n, "s": s, "p": p, "instance": inst},
                lhs,
                bound,
                tol=1e-9,
            )
        )
    return _finish(config, cases, {}, [], t0)


# --------------------------------------------------------- identity sweeps


def _axis(grid: dict, name: str, default: tuple) -> np.ndarray:
    """Grid overrides are explicit value sequences; defaults are
    (lo, hi, count) linspace specs."""
    if name in grid:
        return np.asarray(grid[name], dtype=float)
    lo, hi, count = default
    return np.linspace(lo, hi, int(count))


def _values(grid: dict, name: str, default: tuple):
    """Explicit value sequence for axes that are lists, not linspace specs."""
    got = grid.get(name, default)
    return got if isinstance(got, (tuple, list, np.ndarray)) else (got,)


def _sweep_tau_symmetry(grid: dict, tol: float) -> tuple:
    cases = []
    for x in _axis(grid, "x", (0.02, 0.48, 24)):
        for y in _axis(grid, "y", (0.02, 0.48, 24)):
            resid = abs(
                binary_entropy(y) + tau(float(x), float(y))
                - binary_entropy(x) - tau(float(y), float(x))
            )
            cases.append(
                make_report("tau-symmetry", {"x": float(x), "y": float(y)}, resid, tol, tol=0.0)
            )
    return cases, {}


def _sweep_psi_two_reps(grid: dict, tol: float) -> tuple:
    cases = []
    for p in _axis(grid, "p", (2.1, 10.0, 21)):
        for x in _axis(grid, "x", (0.01, 0.49, 21)):
            ev = psi(float(p), float(x))
            resid = abs(ev.value - ev.second_value)
            cases.append(
                make_report("psi-two-reps", {"p": float(p), "x": float(x)}, resid, tol, tol=0.0)
            )
    return cases, {}


def _sweep_pi_min(grid: dict, tol: float) -> tuple:
    cases = []
    for sigma in _axis(grid, "sigma", (0.05, 0.5, 10)):
        for kappa in _axis(grid, "kappa", (0.0, 0.45, 10)):
            if kappa > 2 * sigma * (1 - sigma):
                continue
            rec = pi_min_check(float(sigma), float(kappa))
            cases.append(
                make_report(
                    "pi-min",
                    {"sigma": float(sigma), "kappa": float(kappa)},
                    abs(rec.gap),
                    tol,
                    tol=0.0,
                )
            )
    return cases, {}


def _sweep_phi_transform(grid: dict, tol: float) -> tuple:
    cases = []
    for sigma in _axis(grid, "sigma", (0.02, 0.5, 8)):
        for eps in _axis(grid, "eps", (0.01, 0.5, 8)):
            rec = phi_transform_check(float(sigma), float(eps))
            cases.append(
                make_report(
                    "phi-transform",
                    {"sigma": float(sigma), "eps": float(eps)},
                    abs(rec.gap),
                    tol,
                    tol=0.0,
                )
            )
    return cases, {}


def _sweep_edge_iso_min(grid: dict, tol: float) -> tuple:
    cases = []
    for sigma in _axis(grid, "sigma", (0.05, 0.5, 8)):
        ymax = 2 * sigma * (1 - sigma)
        for frac in _axis(grid, "yfrac", (0.05, 0.95, 8)):
            rec = edge_iso_min_check(float(sigma), float(frac * ymax))
            cases.append(
                make_report(
                    "edge-iso-min",
                    {"sigma": float(sigma), "y": float(frac * ymax)},
                    abs(rec.gap),
                    tol,
                    tol=0.0,
                )
            )
    return cases, {}


def _phi_f_cells(grid: dict):
    ns = _values(grid, "n", (32, 64, 128))
    ps = _values(grid, "p", (2.5, 3, 4, 6))
    cells = []
    for n in ns:
        for p in ps:
            for s in (n // 8, n // 4, 3 * n // 8):
                cells.append((int(n), int(s), float(p)))
    return cells


def _sweep_phi_eq_f(grid: dict, tol: float) -> tuple:
    def cell(args):
        n, s, p = args
        par = induction_params(n, s, p)
        resid = abs(cap_F(par.rho ** (p / 2.0), 1.0, p) / par.phi_big - 1.0)
        return make_report("phi-eq-F", {"n": n, "s": s, "p": p}, resid, tol, tol=0.0)

    return [cell(c) for c in _phi_f_cells(grid)], {}


def _sweep_u_star(grid: dict, tol: float) -> tuple:
    def cell(args):
        n, s, p = args
        par = induction_params(n, s, p)
        resid = abs(der_zer_residual(par.u_star, par.rho, p))
        return make_report("u-star", {"n": n, "s": s, "p": p}, resid, tol, tol=0.0)

    cells = [(n, s, p) for (n, s, p) in _phi_f_cells(grid) if p > 2]
    return [cell(c) for c in cells], {}


def _sweep_disc_cont(grid: dict, tol: float) -> tuple:
    # The continuous maximum defining phi exceeds its n-point grid version
    # by at most O(1/n); the measured constant is reported.
    cases = []
    worst_c = 0.0
    for n in _values(grid, "n", (64, 128, 256, 512)):
        n = int(n)
        for sigma in _axis(grid, "sigma", (0.1, 0.4, 4)):
            for eps in _axis(grid, "eps", (0.05, 0.45, 4)):
                sigma, eps = float(sigma), float(eps)
                cont = phi(sigma, eps)
                c = math.log2(1.0 - 2.0 * eps)
                disc = max(
                    k / n * c
                    + binary_entropy(k / n)
                    + 2.0 * tau(sigma, k / n)
                    - 2.0
                    for k in range(n // 2 + 1)
                )
                gap = cont - disc
                worst_c = max(worst_c, gap * n)
                # grid max may never exceed the continuous max, and must be
                # within tol/n below it
                ok_resid = max(-gap, gap - tol / n)
                cases.append(
                    make_report(
                        "disc-cont",
                        {"n": n, "sigma": sigma, "eps": eps},
                        ok_resid,
                        0.0,
                        tol=1e-12,
                    )
                )
    return cases, {"disc_cont_n_times_gap": worst_c}


_IDENTITY_REGISTRY = {
    "tau-symmetry": (_sweep_tau_symmetry, 1e-8),
    "psi-two-reps": (_sweep_psi_two_reps, 1e-9),
    "pi-min": (_sweep_pi_min, 1e-8),
    "phi-transform": (_sweep_phi_transform, 1e-6),
    "edge-iso-min": (_sweep_edge_iso_min, 1e-6),
    "phi-eq-F": (_sweep_phi_eq_f, 1e-9),
    "u-star": (_sweep_u_star, 1e-8),
    "disc-cont": (_sweep_disc_cont, 1.0),
}


def identity_tags() -> list:
    return sorted(_IDENTITY_REGISTRY)


def identity_sweep(which: str, grid: dict | None = None, tol: float | None = None) -> SuiteReport:
    """Sweep one closed-form identity over a grid; each case's measured
    residual must sit below the identity's tolerance."""
    t0 = time.time()
    if which not in _IDENTITY_REGISTRY:
        raise InputError(
            f"identity_sweep: unknown tag {which!r}; known: {', '.join(identity_tags())}"
        )
    fn, default_tol = _IDENTITY_REGISTRY[which]
    tol = default_tol if tol is None else tol
    grid = grid or {}
    config = SuiteConfig(which, grid=grid, tolerances={"residual": tol})
    cases, constants = fn(grid, tol)
    return _finish(config, cases, constants, [], t0)


# -------------------------------------------------------- tightness sweeps


def _tight_edge_iso_sphere(grid: dict) -> tuple:
    n = int(_values(grid, "n", (40,))[0])
    s = int(_values(grid, "s", (10,))[0])
    sigma = s / n
    cases = []
    worst_c = 0.0
    for j in range(1, s + 1):
        i = 2 * j
        if i > 2 * sigma * (1 - sigma) * n:
            break
        actual = math.log2(math.comb(s, j) * math.comb(n - s, j))
        bound = edge_iso_bound(n, sigma, i) * n
        factor = 2.0 ** (bound - actual)
        worst_c = max(worst_c, factor / i)
        cases.append(
            make_report("edge-iso-sphere", {"n": n, "s": s, "i": i}, actual, bound, tol=1e-9)
        )
    return cases, {"edge_iso_overshoot_per_i": worst_c}


def _tight_hc_sphere(grid: dict) -> tuple:
    eps = float(_values(grid, "eps", (0.15,))[0])
    svals = [int(v) for v in _values(grid, "s", (2, 4, 8, 16, 32))]
    p = 1 + (1 - 2 * eps) ** 2
    cases = []
    gaps = []
    cs = []
    for s in svals:
        n = 4 * s
        prof = SymmetricProfile.sphere(n, s)
        r_p = (prof.lp_norm_log2(p) - prof.lp_norm_log2(1)) / n
        bound = hypercontractive_bound(r_p, eps, p)
        # ||T_eps f||_2^2 = <T_eps' f, f> with the composed rate eps'
        lhs = 0.5 * prof.noise_inner_log2(2 * eps * (1 - eps))
        p_norm = prof.lp_norm_log2(p)
        gap = bound * n + p_norm - lhs
        gaps.append(gap)
        cs.append(2.0**gap / s**0.75)
        cases.append(
            make_report("hc-sphere-gap", {"n": n, "s": s, "eps": eps}, lhs, bound * n + p_norm, tol=1e-9)
        )
    xs = [math.log2(s) for s in svals]
    slope = float(np.polyfit(xs, gaps, 1)[0])
    return cases, {
        "hc_gap_bits_slope_vs_log2_s": slope,
        "hc_gap_factor_over_s_0.75": cs,
    }


def _tight_ue_union(grid: dict) -> tuple:
    eps = float(_values(grid, "eps", (0.1,))[0])
    ns = [int(v) for v in _values(grid, "n", (50, 100, 200))]
    R = float(_values(grid, "R", (0.5,))[0])
    cases = []
    per_log = []
    for n in ns:
        s = round(inverse_entropy(R) * n)
        r_eff = binary_entropy(s / n)
        brute = sphere_union_ue_log2(n - 1, s, eps)
        exact = ue_exponent(r_eff, eps) * n
        factor_log2 = exact - brute
        per_log.append(factor_log2 / math.log2(n))
        cases.append(
            make_report("ue-sphere-union", {"n": n, "R": R, "eps": eps}, brute, exact, tol=1e-9)
        )
    exploding = any(b > a + 1.0 for a, b in zip(per_log, per_log[1:]))
    constants = {"ue_gap_bits_per_log2n": per_log, "trend_non_exploding": not exploding}
    return cases, constants


def _tight_tails_sphere(grid: dict) -> tuple:
    # every root-delimited interval must carry l2 mass; the margin is the
    # headroom in bits over an n^{-5/2} floor
    cases = []
    scaled = []
    for n in [int(v) for v in _values(grid, "n", (128, 256, 512))]:
        s = n // 4
        records = l2_between_roots(n, s)
        interior = [r for r in records if not r.empty]
        worst = min(r.attainment_factor for r in interior)
        scaled.append(worst * n**2.5)
        cases.append(
            make_report(
                "tails-sphere",
                {"n": n, "s": s, "intervals": len(records), "nonempty": len(interior)},
                -math.log2(max(scaled[-1], 1e-300)),
                0.0,
                tol=0.0,
            )
        )
    return cases, {"between_roots_mass_times_n_2.5": scaled}


def _tight_max_proj_roots(grid: dict) -> tuple:
    cases = []
    scaled = []
    for n in [int(v) for v in _values(grid, "n", (32, 64, 128))]:
        s = n // 8
        sigma = inverse_entropy(log2_binomial(n, s) / n)
        records = l2_between_roots(n, s)
        worst_factor = 0.0
        for rec in records:
            if rec.empty or not (1 <= rec.best_i <= n // 2):
                continue
            actual_log2 = 0.5 * math.log2(rec.attainment_factor)
            bound_log2 = support_projection_bound(sigma, rec.best_i / n) * n
            worst_factor = max(worst_factor, 2.0 ** (bound_log2 - actual_log2))
            cases.append(
                make_report(
                    "max-proj-roots",
                    {"n": n, "s": s, "k": rec.best_i},
                    actual_log2,
                    bound_log2,
                    tol=1e-9,
                )
            )
        scaled.append(worst_factor / n**2.5)
    return cases, {"max_proj_factor_over_n_2.5": scaled}


_TIGHTNESS_REGISTRY = {
    "edge-iso-sphere": _tight_edge_iso_sphere,
    "hc-sphere-gap": _tight_hc_sphere,
    "ue-sphere-union": _tight_ue_union,
    "tails-sphere": _tight_tails_sphere,
    "max-proj-roots": _tight_max_proj_roots,
}


def tightness_tags() -> list:
    return sorted(_TIGHTNESS_REGISTRY)


def tightness_sweep(which: str, grid: dict | None = None) -> SuiteReport:
    """Measure how close the matching extremal object comes to a bound;
    constants are reported, pass means margins hold and nothing explodes."""
    t0 = time.time()
    if which not in _TIGHTNESS_REGISTRY:
        raise InputError(
            f"tightness_sweep: unknown tag {which!r}; known: {', '.join(tightness_tags())}"
        )
    grid = grid or {}
    config = SuiteConfig(which, grid=grid)
    cases, constants = _TIGHTNESS_REGISTRY[which](grid)
    return _finish(config, cases, constants, [], t0)


def run_suite(
    name: str,
    grid: dict | None = None,
    seed: int = 0,
    budget: dict | None = None,
    tol: float | None = None,
) -> SuiteReport:
    """Dispatch by suite tag across all three families."""
    if name in _IDENTITY_REGISTRY:
        return identity_sweep(name, grid, tol)
    if name in _TIGHTNESS_REGISTRY:
        return tightness_sweep(name, grid)
    if name == "extremal-search":
        grid = grid or {}
        budget = budget or {}
        t0 = time.time()
        restarts = int(budget.get("restarts", 50))
        config = SuiteConfig(name, grid=grid, seed=seed, budget={"restarts": restarts})
        cases = []
        artifacts = []
        for n in [int(v) for v in _values(grid, "n", (6, 8))]:
            svals = (
                [s for s in (int(v) for v in _values(grid, "s", ())) if 1 <= s <= n // 2]
                if "s" in grid
                else range(1, n // 2 + 1)
            )
            for p in [float(v) for v in _values(grid, "p", (3, 4))]:
                for s in svals:
                    rec = search_extremal_ratio(n, s, p, budget=restarts, seed=seed)
                    cases.append(
                        make_report(
                            "extremal-search",
                            {"n": n, "s": s, "p": p},
                            rec.best_log2_ratio,
                            rec.bound_log2,
                            tol=1e-9,
                        )
                    )
                    if rec.counterexample:
                        artifacts.append(rec.counterexample)
        return _finish(config, cases, {}, artifacts, t0)
    if name == "degree-at-most":
        grid = grid or {}
        budget = budget or {}
        t0 = time.time()
        instances = int(budget.get("instances", 1000))
        config = SuiteConfig(name, grid=grid, seed=seed, budget={"instances": instances})
        cases = []
        for n in [int(v) for v in _values(grid, "n", (10,))]:
            for s in [int(v) for v in _values(grid, "s", (3,))]:
                for p in [float(v) for v in _values(grid, "p", (4,))]:
                    sub = degree_at_most_check(n, s, p, budget=instances, seed=seed)
                    cases.extend(sub.cases)
        return _finish(config, cases, {}, [], t0)
    raise InputError(f"run_suite: unknown suite {name!r}")


def all_suite_tags() -> list:
    return sorted(
        list(_IDENTITY_REGISTRY) + list(_TIGHTNESS_REGISTRY) + ["extremal-search", "degree-at-most"]
    )
