"""The benchmark's workloads.

`PLANS[name](seed)` builds one workload's inputs from the seed and returns a
Plan: the cells of one pass, the check of each cell's output against the
paper's inequalities, the group checks that span several cells, and the
workload's CLI call with the payload the same call gives in-process.

Library functions are looked up on their modules at call time
(`verify.search_extremal_ratio`, not an imported name), so the tracer's
wrappers see every call the benchmark makes.

Why each workload, and the layer it isolates:

- ascent: the extremal-search cells of acceptance criterion 04, the repo's
  hot path; the time is spent in verify's batched butterfly.
- brute: criterion-05 brute force over dense random functions at n = 2..14;
  one Walsh-Hadamard transform at a time over many small sizes in cube,
  plus the bounds evaluators.
- sweeps: every identity sweep on grids denser than the defaults plus
  criterion 02's 101x101 psi grid; scalar bisection and 1-d minimization
  in bivariate and induction, with no dense arrays.
- profiles: large-n symmetric work (moments, roots, concentration windows,
  the adjacent-norm gap, tensorization); krawchouk root bisection and
  numerics log-binomial rows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from krawbound import bivariate, bounds, cube, induction, krawchouk, verify
from krawbound.numerics import binary_entropy

# Reference outputs are recorded for this seed; workloads whose inputs do not
# depend on the seed are compared with the reference at every seed.
DEFAULT_SEED = 0
MARGIN_TOL = 1e-9


@dataclass
class Cell:
    id: str
    run: Callable[[], dict]
    check: Callable[[dict], str | None] = lambda out: None


@dataclass
class Plan:
    cells: list[Cell]
    cli_args: list[str]
    cli_payload: Callable[[], dict]
    seeded: bool
    # (cell ids, check over their outputs in order) for criteria spanning cells
    group_checks: list[tuple[list[str], Callable[[list[dict]], str | None]]] = field(
        default_factory=list
    )


def _margins_ok(values) -> str | None:
    bad = [v for v in values if not v >= -MARGIN_TOL]
    return f"margin {min(bad):.3e} below -{MARGIN_TOL}" if bad else None


def _suite(report) -> dict:
    return {
        "ref": [len(report.cases), report.passed, report.measured_constants],
        "passed": report.passed,
        "worst_margin": report.worst_margin,
    }


def _suite_ok(out: dict) -> str | None:
    return None if out["passed"] else f"suite failed, worst margin {out['worst_margin']:.3e}"


# ------------------------------------------------------------------ ascent

# (n, s, p, restarts): one cell per n in 6..12 and per p in {2.5, 3, 4, 6};
# n = 12 runs 50 restarts so that one pass stays near four seconds.
ASCENT_CELLS = ((6, 3, 2.5, 200), (8, 4, 3.0, 200), (10, 4, 6.0, 200), (12, 6, 4.0, 50))


def _search(n: int, s: int, p: float, budget: int, seed: int) -> dict:
    rec = verify.search_extremal_ratio(n, s, p, budget=budget, seed=seed)
    return {
        "ref": [rec.best_log2_ratio, rec.kraw_log2_ratio, rec.bound_log2],
        "counterexample": rec.counterexample is not None,
        "converged_starts": rec.converged_starts,
        "rows": budget + 1,
        "n": n,
    }


def _search_ok(out: dict) -> str | None:
    best, kraw, bound = out["ref"]
    if out["counterexample"]:
        return "counterexample artifact"
    if not (kraw - MARGIN_TOL <= best <= bound + MARGIN_TOL):
        return f"best {best!r} outside [kraw {kraw!r}, bound {bound!r}]"
    return None


def ascent(seed: int) -> Plan:
    cells = [
        Cell(f"search-{n}-{s}-{p}-{b}", lambda a=(n, s, p, b): _search(*a, seed), _search_ok)
        for n, s, p, b in ASCENT_CELLS
    ]
    grid = {"n": (6,), "p": (3.0,)}

    def payload():
        budget = {"restarts": 20, "instances": 20}
        return verify.run_suite("extremal-search", grid=grid, seed=seed, budget=budget).payload()

    args = ["verify", "--suite", "extremal-search", "--grid", "n=6:6:1", "--grid", "p=3:3:1",
            "--budget", "20", "--seed", str(seed)]
    return Plan(cells, args, payload, seeded=True)


# ------------------------------------------------------------------- brute

BRUTE_ROUNDS = 100
BRUTE_DIMS = tuple(range(2, 15))
# (n, s, p, instances) for degree_at_most_check
DEGREE_CELLS = ((10, 3, 4.0, 400), (12, 4, 3.0, 200))


def _brute_inputs(rng: np.random.Generator, n: int) -> dict:
    """Criterion 05's instance: a dense random function and the random
    parameters of its four brute-force margins. Only the values depend on
    the seed; every seed gets the same dimensions."""
    data = rng.standard_normal(1 << n)
    if rng.random() < 0.5:
        data = np.abs(data)
    eps = float(rng.uniform(0.01, 0.49))
    q = 1 + (1 - 2 * eps) ** 2
    p = float(rng.uniform(q, 6.0))
    p2 = float(rng.uniform(2.0, 6.0))
    k = int(rng.integers(0, n + 1))
    sigma = float(rng.uniform(0.05, 0.5))
    cap = int(2 ** (binary_entropy(sigma) * n))
    size = int(rng.integers(1, max(2, cap + 1)))
    idx = rng.choice(1 << n, size=min(size, 1 << n), replace=False)
    return dict(n=n, data=data, eps=eps, q=q, p=p, p2=p2, k=k, sigma=sigma,
                subset=[int(v) for v in idx])


def _brute(x: dict) -> dict:
    n, eps, q, p, p2 = x["n"], x["eps"], x["q"], x["p"], x["p2"]
    f = cube.CubeFunction(n, "point-values", x["data"])
    log2 = math.log2
    classic = log2(cube.lp_norm(f, q)) - log2(cube.lp_norm(cube.apply_noise(f, eps), 2))

    r_p = min((log2(cube.lp_norm(f, p)) - log2(cube.lp_norm(f, 1))) / n, (p - 1) / p)
    bnd = bounds.hypercontractive_bound(r_p, eps, p)
    refined = bnd * n + log2(cube.lp_norm(f, p)) - log2(cube.lp_norm(cube.apply_noise(f, eps), 2))

    r2 = min((log2(cube.lp_norm(f, p2)) - log2(cube.lp_norm(f, 1))) / n, (p2 - 1) / p2)
    lhs = cube.lp_norm(cube.spectral_project(f, x["k"]), 2)
    projection = None
    if lhs > 0:
        projection = bounds.projection_bound(n, x["k"], p2, r2) * n + log2(cube.lp_norm(f, p2)) - log2(lhs)

    ind = cube.CubeSubset.from_indices(n, x["subset"]).indicator()
    stab = cube.inner_product(cube.apply_noise(ind, eps), ind)
    set_noise = bounds.set_noise_bound(x["sigma"], eps) * n + 2 * log2(cube.lp_norm(ind, 2)) - log2(stab)
    margins = [m for m in (classic, refined, projection, set_noise) if m is not None]
    return {"ref": [min(margins)], "margins": margins}


def _degree(n: int, s: int, p: float, budget: int, seed: int) -> dict:
    rep = verify.degree_at_most_check(n, s, p, budget=budget, seed=seed)
    return {"ref": [len(rep.cases), rep.worst_margin], "passed": rep.passed}


def brute(seed: int) -> Plan:
    rng = np.random.default_rng(seed)
    cells = []
    for r in range(BRUTE_ROUNDS):
        for n in BRUTE_DIMS:
            x = _brute_inputs(rng, n)
            cells.append(Cell(f"brute-{r}-{n}", lambda x=x: _brute(x), lambda o: _margins_ok(o["margins"])))
    for n, s, p, b in DEGREE_CELLS:
        cells.append(Cell(
            f"degree-{n}-{s}-{p}-{b}",
            lambda a=(n, s, p, b): _degree(*a, seed),
            lambda o: None if o["passed"] else f"degree-at-most failed, worst margin {o['ref'][1]:.3e}",
        ))
    n, s, p, eps = 12, 3, 4.0, 0.1

    def payload():
        # the computation `krawbound eval` performs, made in-process
        f = cube.random_homogeneous(n, s, seed)
        lp = cube.lp_norm
        levels = []
        for k in range(n + 1):
            mass = lp(cube.spectral_project(f, k), 2) ** 2
            if mass > 0.0:
                levels.append([k, math.log2(mass) / n])
        return {
            "object": "random-homogeneous",
            "n": n,
            "s": s,
            "l2_exponent": math.log2(lp(f, 2)) / n,
            "lp_exponent": math.log2(lp(f, p)) / n,
            "noised_l2_exponent": math.log2(lp(cube.apply_noise(f, eps), 2)) / n,
            "levels": levels,
        }

    args = ["eval", "--n", str(n), "--s", str(s), "--p", str(p), "--eps", str(eps), "--seed", str(seed)]
    return Plan(cells, args, payload, seeded=True)


# ------------------------------------------------------------------ sweeps

def _lin(lo: float, hi: float, count: int) -> tuple:
    return tuple(float(v) for v in np.linspace(lo, hi, count))


# Each identity sweep on a grid denser than its default.
SWEEP_GRIDS = {
    "tau-symmetry": {"x": _lin(0.02, 0.48, 36), "y": _lin(0.02, 0.48, 36)},
    "psi-two-reps": {"p": _lin(2.1, 10.0, 25), "x": _lin(0.01, 0.49, 25)},
    "pi-min": {"sigma": _lin(0.05, 0.5, 12), "kappa": _lin(0.0, 0.45, 12)},
    "phi-transform": {"sigma": _lin(0.02, 0.5, 10), "eps": _lin(0.01, 0.5, 10)},
    "edge-iso-min": {"sigma": _lin(0.05, 0.5, 10), "yfrac": _lin(0.05, 0.95, 10)},
    "phi-eq-F": {"n": (32, 64, 128, 256), "p": (2.5, 3.0, 4.0, 6.0)},
    "u-star": {"n": (32, 64, 128, 256), "p": (2.5, 3.0, 4.0, 6.0)},
    "disc-cont": {"n": (64, 128, 256, 512, 1024), "sigma": _lin(0.1, 0.4, 5), "eps": _lin(0.05, 0.45, 5)},
}
PSI_P = _lin(2.1, 10.0, 101)
PSI_X = _lin(0.01, 0.49, 101)
PSI_SAMPLE = slice(None, None, 10)


def _psi_row(p: float) -> dict:
    evs = [bivariate.psi(p, x) for x in PSI_X]
    return {
        "ref": [ev.value for ev in evs[PSI_SAMPLE]],
        "residual": max(abs(ev.value - ev.second_value) for ev in evs),
    }


def _psi_boundary() -> dict:
    worst = 0.0
    for p in _lin(2.0, 10.0, 41):
        worst = max(worst, abs(bivariate.psi(p, 0.0).value))
        worst = max(worst, abs(bivariate.psi(p, 0.5).value - (p - 2.0) / 2.0))
    for x in _lin(0.0, 0.5, 41):
        worst = max(worst, abs(bivariate.psi(2.0, x).value))
    return {"ref": [], "residual": worst}


def sweeps(seed: int) -> Plan:
    cells = [
        Cell(f"sweep-{tag}", lambda tag=tag, g=grid: _suite(verify.identity_sweep(tag, g)), _suite_ok)
        for tag, grid in SWEEP_GRIDS.items()
    ]
    # criterion 02: two-representation residual <= 1e-9 on the grid, 1e-10 on the boundary
    cells += [
        Cell(f"psi-row-{i}", lambda p=p: _psi_row(p),
             lambda o: None if o["residual"] <= 1e-9 else f"psi residual {o['residual']:.3e}")
        for i, p in enumerate(PSI_P)
    ]
    cells.append(Cell("psi-boundary", _psi_boundary,
                      lambda o: None if o["residual"] <= 1e-10 else f"psi boundary {o['residual']:.3e}"))

    def payload():
        return verify.run_suite("psi-two-reps").payload()

    return Plan(cells, ["verify", "--suite", "psi-two-reps"], payload, seeded=False)


# ---------------------------------------------------------------- profiles

def _moments(n: int, s: int, p: float) -> dict:
    rec = krawchouk.kraw_moments(n, s, p)
    return {"ref": [rec.log2_moment, rec.log2_ratio], "n": n, "s": s, "p": p}


def _moments_ok(out: dict) -> str | None:
    # the paper's moment bound, evaluated outside the timed pass
    bound = bounds.moment_bound(out["n"], out["s"], out["p"])
    ratio = out["ref"][1]
    return None if ratio <= bound + MARGIN_TOL else f"log2 ratio {ratio!r} above bound {bound!r}"


def _roots(n: int, s: int) -> dict:
    roots = krawchouk.kraw_roots(n, s).roots
    return {"ref": [len(roots), roots[0], roots[-1]], "roots": list(roots), "n": n, "s": s}


def _roots_ok(out: dict) -> str | None:
    roots, n, s = out["roots"], out["n"], out["s"]
    if len(roots) != s:
        return f"{len(roots)} roots for s={s}"
    if not (0 <= roots[0] and roots[-1] <= n and all(a < b for a, b in zip(roots, roots[1:]))):
        return "roots not increasing inside [0, n]"
    return None


def _concentration(n: int, s: int) -> dict:
    rec = krawchouk.lp_concentration(n, s, 4.0, 4.0)
    return {"ref": [rec.i0, rec.mass_in_window], "mass": rec.mass_in_window}


def _profile_norms() -> dict:
    g = cube.SymmetricProfile.kraw(1024, 256)
    union = cube.SymmetricProfile.sphere_union(512, (100, 101))
    return {"ref": [g.lp_norm_log2(2.0), g.lp_norm_log2(4.0), union.lp_norm_log2(3.0), union.size_log2()]}


def _profile_norms_ok(out: dict) -> str | None:
    # ||K_s||_2^2 = C(n, s) under the uniform measure
    l2, l4 = out["ref"][:2]
    expected = 0.5 * math.log2(math.comb(1024, 256))
    if abs(l2 - expected) > 1e-9 * expected:
        return f"log2 ||K_s||_2 {l2!r} != {expected!r}"
    return None if l4 >= l2 else "4-norm below 2-norm"


def _hanner(n: int) -> dict:
    rec = induction.hanner_gap_kraw(n, n // 4, 4.0)
    return {"ref": [rec.lhs_log2, rec.rhs_log2, rec.log2_ratio_per_n]}


HANNER_NS = (64, 128, 256, 512)
TENSOR_MS = (8, 32, 128, 512)


def _hanner_trend(outs: list[dict]) -> str | None:
    # criterion 08: the per-n gap is nonnegative and shrinks with n
    ratios = [o["ref"][2] for o in outs]
    ok = all(r >= 0.0 for r in ratios) and all(a > b for a, b in zip(ratios, ratios[1:]))
    return None if ok else f"hanner per-n ratios {ratios} not nonnegative and decreasing"


def _tensor_trend(outs: list[dict]) -> str | None:
    # criterion 07: tensorized ratios converge monotonically to psi(4, 1/4)
    target = bivariate.psi(4.0, 0.25).value
    gaps = [abs(o["ref"][0] - target) for o in outs]
    ok = gaps[-1] <= 0.01 and all(a > b for a, b in zip(gaps, gaps[1:]))
    return None if ok else f"tensor gaps {gaps} not decreasing to <= 0.01"


def profiles(seed: int) -> Plan:
    # exact big-integer sum, the log-domain path at n <= 4096, and log2_binomial rows above it
    cells = [
        Cell(f"moments-{n}-{s}-{p}", lambda a=(n, s, p): _moments(*a), _moments_ok)
        for n, s, p in ((2048, 512, 4.0), (2048, 512, 4.5), (8192, 2048, 4.5))
    ]
    cells += [Cell(f"roots-{n}", lambda n=n: _roots(n, n // 4), _roots_ok) for n in (128, 256, 512)]
    cells += [
        Cell(f"tight-{tag}", lambda tag=tag: _suite(verify.tightness_sweep(tag)), _suite_ok)
        for tag in ("tails-sphere", "max-proj-roots")
    ]
    # criterion 09: at n = 512 the p-norm mass sits inside the window
    cells += [
        Cell(f"concentration-512-{s}", lambda s=s: _concentration(512, s),
             lambda o: None if o["mass"] >= 0.99 else f"window mass {o['mass']!r} < 0.99")
        for s in (64, 128)
    ]
    hanner = [Cell(f"hanner-{n}", lambda n=n: _hanner(n)) for n in HANNER_NS]
    tensor = [
        Cell(f"tensor-{m}", lambda m=m: {"ref": [induction.tensor_ratio_log2(4, 1, 4.0, m)]}) for m in TENSOR_MS
    ]
    cells += hanner + tensor
    cells.append(Cell("profile-norms", _profile_norms, _profile_norms_ok))
    n, s, p = 512, 128, 4.0

    def payload():
        return {
            "params": asdict(induction.induction_params(n, s, p)),
            "hanner": asdict(induction.hanner_gap_kraw(n, s, p)),
            "recursion": asdict(induction.recursion_residual(n, s, p)),
        }

    args = ["induction", "--n", str(n), "--s", str(s), "--p", str(p)]
    groups = [([c.id for c in hanner], _hanner_trend), ([c.id for c in tensor], _tensor_trend)]
    return Plan(cells, args, payload, seeded=False, group_checks=groups)


PLANS = {"ascent": ascent, "brute": brute, "sweeps": sweeps, "profiles": profiles}
