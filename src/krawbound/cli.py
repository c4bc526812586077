"""Command-line front end.

Subcommands: eval (norms and level masses of a cube function), kraw (exact
polynomial tables), bound (closed-form bound evaluators), induction
(dimension-step parameters), verify (suite runner), ue (undetected-error
exponents), iso (edge-isoperimetric exponents).

Exit codes: 0 success, 2 input error, 3 a verification suite failed a case
or produced a counterexample artifact. Data goes to stdout, diagnostics to
stderr. All exponent outputs are log2-per-n unless --raw. A call builds only
the output --format asks for: the JSON envelope is one line with sorted keys
(`| python -m json.tool` indents it), and the CSV table, with `csv` itself,
exists only under --format csv. The array layers and numpy are imported
inside the commands that use them, so that `bound` of every kind but `gap`,
`iso`, `kraw` without --p, and `verify` on the suites with no arrays
(tau-symmetry, psi-two-reps, pi-min, phi-transform, edge-iso-min,
edge-iso-sphere, disc-cont) never load numpy.
"""

from __future__ import annotations

import functools
import json
import math
from datetime import datetime, timezone

import click

from . import __version__
from .bounds import (
    edge_iso_bound,
    hypercontractive_bound,
    moment_bound,
    moment_gap,
    projection_bound,
    set_noise_bound,
    support_projection_bound,
    tail_bound,
    ue_exponent,
)
from .numerics import InputError, _log2_binomial_row, binary_entropy, inverse_entropy, linspace
from .verify import all_suite_tags, run_suite


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except InputError as exc:
            raise click.UsageError(str(exc))

    return wrapper


def _emit(command: str, payload, table, fmt: str, out: str | None) -> None:
    """JSON: the envelope with the payload, on one line so that the C encoder
    runs; CSV: the bare rectangular (header, rows) that `table()` builds, a
    call made only for CSV."""
    if fmt == "json":
        envelope = {
            "command": command,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "format": fmt,
            "payload": payload,
        }
        text = json.dumps(envelope, sort_keys=True) + "\n"
    else:
        import csv
        import io

        header, rows = table()
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        click.echo(f"wrote {out}", err=True)
    else:
        click.echo(text, nl=False)


def _parse_grid(specs: tuple[str, ...]) -> dict:
    grid = {}
    for spec in specs:
        try:
            axis, rng = spec.split("=", 1)
            lo, hi, count = rng.split(":")
            lo_f, hi_f, count_i = float(lo), float(hi), int(count)
        except ValueError:
            raise click.UsageError(f"--grid expects axis=lo:hi:count, got {spec!r}")
        if count_i < 1:
            raise click.UsageError(f"--grid count must be >= 1, got {count_i}")
        if axis in grid:
            raise click.UsageError(f"--grid axis {axis!r} given more than once")
        values = linspace(lo_f, hi_f, count_i)
        if not all(map(math.isfinite, (lo_f, hi_f, *values))):
            raise click.UsageError(f"--grid values must be finite, got {spec!r}")
        if axis in ("n", "s"):
            # whole values become ints; run_suite refuses the rest
            values = tuple(dict.fromkeys(int(v) if v.is_integer() else v for v in values))
        grid[axis] = values
    return grid


_FMT = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json", show_default=True
)
_OUT = click.option("--out", type=click.Path(), default=None, help="write to a file instead of stdout")
_RAW = click.option("--raw", is_flag=True, help="raw log2 exponents instead of log2-per-n")


@click.group()
@click.version_option(__version__, prog_name="krawbound")
def main():
    """Moment, tail, isoperimetric and hypercontractive bounds for low-degree
    polynomials on the Boolean cube, with exact small-scale oracles."""


# -------------------------------------------------------------------- kraw


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--p", type=float, default=None, help="also report the p-th moment of the row")
@_FMT
@_OUT
@_guard
def kraw(n, s, p, fmt, out):
    """Exact Krawchouk table: K_s(i) for i = 0..n under the counting measure,
    optionally with its p-th moment and ratio exponents."""
    from .krawchouk import kraw_moments, kraw_table

    table = kraw_table(n, s)
    payload = {"n": n, "s": s, "table": [[i, v] for i, v in enumerate(table.values)]}
    if p is not None:
        payload["moment"] = kraw_moments(n, s, p)._asdict()
    _emit("kraw", payload, lambda: (("i", "K"), payload["table"]), fmt, out)


# -------------------------------------------------------------------- bound

# The kinds that return a per-n exponent: the options each reads, named as
# its payload keys in payload order, and its evaluator over those values.
_BOUNDS = {
    "edge-iso": (("n", "sigma", "i"), edge_iso_bound),
    "hc": (("p", "eps", "r_p"), lambda p, eps, r_p: hypercontractive_bound(r_p, eps, p)),
    "set-noise": (("sigma", "eps"), set_noise_bound),
    "projection": (("n", "k", "p", "r_p"), projection_bound),
    "support-projection": (("sigma", "n", "k"), lambda sigma, n, k: support_projection_bound(sigma, k / n)),
}


@main.command()
@click.argument("kind", type=click.Choice(["moment", "gap", "tail", *_BOUNDS]))
@click.option("--n", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--p", type=float, default=None)
@click.option("--i", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--eps", type=float, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--r", "--R", "r_p", type=float, default=None, help="norm-concentration ratio r_p")
@_RAW
@_FMT
@_OUT
@_guard
def bound(kind, n, s, p, i, k, eps, sigma, r_p, raw, fmt, out):
    """Evaluate one closed-form bound; reports the exponent per n."""
    opts = {"n": n, "s": s, "p": p, "i": i, "k": k, "eps": eps, "sigma": sigma, "r_p": r_p}

    def need(*names):
        # the option --r sets r_p
        missing = [name.removesuffix("_p") for name in names if opts[name] is None]
        if missing:
            raise click.UsageError(f"bound {kind} requires --{' --'.join(missing)}")
        return [opts[name] for name in names]

    if n is not None and n < 1:
        raise InputError(f"bound: need n >= 1, got n={n}")
    payload = {"kind": kind}
    if kind in _BOUNDS:
        if kind == "edge-iso" and sigma is None:
            n, s = need("n", "s")
            opts["sigma"] = s / n
        names, evaluate = _BOUNDS[kind]
        values = need(*names)
        value = evaluate(*values)
        # raw exponents scale by n alone, so --raw needs --n
        payload.update(zip(names, values), exponent=value * need("n")[0] if raw else value)
    elif kind == "tail":
        rec = tail_bound(*need("n", "s", "i"))
        scale = n if raw else 1.0
        payload.update(rec._asdict())
        payload.update(threshold_exponent=rec.threshold_exponent * scale, prob_exponent=rec.prob_exponent * scale)
    elif kind == "gap":
        payload.update(moment_gap(*need("n", "s", "p"))._asdict())
    else:
        value = moment_bound(*need("n", "s", "p"))
        payload.update(n=n, s=s, p=p, exponent=value if raw else value / n)
    _emit("bound", payload, lambda: (list(payload), [list(payload.values())]), fmt, out)


# -------------------------------------------------------------------- eval


@main.command("eval")
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--p", type=float, default=None, help="also report the p-norm")
@click.option("--eps", type=float, default=None, help="also report the noised 2-norm")
@click.option("--seed", type=int, default=None, help="random homogeneous instead of the sphere indicator")
@_RAW
@_FMT
@_OUT
@_guard
def eval_cmd(n, s, p, eps, seed, raw, fmt, out):
    """Norms and spectral level masses of a sphere indicator (default) or a
    random homogeneous function; level rows are plot-ready (k, mass)."""
    import numpy as np

    from .cube import SymmetricProfile, apply_noise, lp_norm, random_homogeneous, weight_table

    if n < 1:
        raise InputError(f"eval: need n >= 1, got n={n}")
    if eps is not None and not (0.0 <= eps <= 0.5):
        # the sphere path's noise_inner_log2(2 eps (1-eps)) would take eps up to 1
        raise InputError(f"eval: eps={eps} outside [0, 1/2]")
    scale = 1.0 if raw else 1.0 / n
    obj = "sphere-indicator" if seed is None else "random-homogeneous"
    payload = {"object": obj, "n": n, "s": s}
    levels = []
    if seed is not None:
        # stays in the coefficient domain: off-level masses are exactly zero
        f = random_homogeneous(n, s, seed)
        payload["l2_exponent"] = math.log2(lp_norm(f, 2)) * scale
        if p is not None:
            payload["lp_exponent"] = math.log2(lp_norm(f, p)) * scale
        if eps is not None:
            payload["noised_l2_exponent"] = math.log2(lp_norm(apply_noise(f, eps), 2)) * scale
        # Parseval: level k's mass is the sum of its squared coefficients
        masses = np.bincount(weight_table(n), weights=f.data**2, minlength=n + 1)
        levels = [[k, math.log2(mass) * scale] for k, mass in enumerate(masses.tolist()) if mass > 0.0]
    else:
        prof = SymmetricProfile.sphere(n, s)
        payload["l2_exponent"] = prof.lp_norm_log2(2) * scale
        if p is not None:
            payload["lp_exponent"] = prof.lp_norm_log2(p) * scale
        if eps is not None:
            payload["noised_l2_exponent"] = 0.5 * prof.noise_inner_log2(2 * eps * (1 - eps)) * scale
        coeffs = prof.fourier()
        lc = _log2_binomial_row(n)
        for k in range(n + 1):
            if coeffs.signs[k] != 0:
                levels.append([k, (lc[k] + 2.0 * float(coeffs.logs[k])) * scale])
    payload["levels"] = levels
    _emit("eval", payload, lambda: (("k", "mass_exponent"), levels), fmt, out)


# ---------------------------------------------------------------- induction


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--p", type=float, required=True)
@_FMT
@_OUT
@_guard
def induction(n, s, p, fmt, out):
    """Dimension-step parameters (i0, t, rho, Phi, u*), the Hanner gap of the
    adjacent pair, and the one-step recursion residual."""
    from dataclasses import asdict

    from .induction import hanner_gap_kraw, induction_params, recursion_residual

    payload = {
        "params": asdict(induction_params(n, s, p)),
        "hanner": asdict(hanner_gap_kraw(n, s, p)),
        "recursion": asdict(recursion_residual(n, s, p)),
    }
    row = payload["params"]
    _emit("induction", payload, lambda: (list(row), [list(row.values())]), fmt, out)


# ------------------------------------------------------------------- verify


@main.command()
@click.option("--suite", required=True, help=f"one of: {', '.join(all_suite_tags())}")
@click.option("--grid", "grid_specs", multiple=True, help="axis=lo:hi:count, repeatable")
@click.option("--seed", type=int, default=None, help="seeded searches only (default 0)")
@click.option("--budget", type=int, default=None, help="restarts / instances per cell")
@click.option("--tol", type=float, default=None, help="residual tolerance override")
@_FMT
@_OUT
@click.pass_context
@_guard
def verify(ctx, suite, grid_specs, seed, budget, tol, fmt, out):
    """Run one verification suite; exits 3 when the report does not pass (a
    failed case or a counterexample artifact, embedded in the report)."""
    grid = _parse_grid(grid_specs)
    budgets = {"restarts": budget, "instances": budget} if budget is not None else None
    report = run_suite(suite, grid=grid or None, seed=seed, budget=budgets, tol=tol)

    def table():
        rows = [
            [i, c.bound_name, json.dumps(c.params, sort_keys=True), c.lhs_log2n, c.rhs_log2n, c.margin, c.passed]
            for i, c in enumerate(report.cases)
        ]
        return ("case", "name", "params", "lhs", "rhs", "margin", "pass"), rows

    _emit("verify", report.payload(), table, fmt, out)
    if report.counterexamples:
        click.echo(f"{len(report.counterexamples)} counterexample artifact(s)", err=True)
    if not report.passed:
        ctx.exit(3)


# ----------------------------------------------------------------------- ue


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--eps", type=float, required=True)
@click.option("--s", type=int, default=None)
@click.option("--r", "--R", "rate", type=float, default=None, help="code rate; sets s = round(H^{-1}(R) n)")
@_RAW
@_FMT
@_OUT
@_guard
def ue(n, eps, s, rate, raw, fmt, out):
    """Undetected-error exponent of the adjacent-sphere union against the
    closed-form worst-case exponent at the matching rate."""
    from .cube import sphere_union_ue_log2

    if s is None:
        if rate is None:
            raise click.UsageError("ue requires --s or --R")
        s = round(inverse_entropy(rate) * n)
    if not (1 <= s <= n / 2):
        raise click.UsageError(f"ue: s={s} outside [1, n/2]")
    rate_eff = binary_entropy(s / n)
    brute_raw = sphere_union_ue_log2(n - 1, s, eps)
    formula = ue_exponent(rate_eff, eps)
    scale = 1.0 if raw else 1.0 / n
    payload = {
        "n": n,
        "s": s,
        "eps": eps,
        "rate_eff": rate_eff,
        "union_exponent": brute_raw * scale,
        "formula_exponent": formula * n * scale,
        "gap_bits": formula * n - brute_raw,
    }
    _emit("ue", payload, lambda: (list(payload), [list(payload.values())]), fmt, out)


# ---------------------------------------------------------------------- iso


@main.command()
@click.option("--n", type=int, required=True)
@click.option("--s", type=int, default=None)
@click.option("--sigma", type=float, default=None)
@click.option("--i", type=int, default=None, help="single distance; default sweeps the admissible range")
@_RAW
@_FMT
@_OUT
@_guard
def iso(n, s, sigma, i, raw, fmt, out):
    """Edge-isoperimetric distance-distribution exponents; with --s the exact
    sphere counts are reported alongside for even distances."""
    if n < 1:
        raise InputError(f"iso: need n >= 1, got n={n}")
    if sigma is None:
        if s is None:
            raise click.UsageError("iso requires --s or --sigma")
        sigma = s / n
    if not 0.0 < sigma <= 0.5:
        raise InputError(f"iso: need 0 < sigma <= 1/2, got sigma={sigma}")
    scale = float(n) if raw else 1.0
    imax = math.floor(2 * sigma * (1 - sigma) * n)
    todo = [i] if i is not None else list(range(1, imax + 1))
    if s is not None:
        ls, lns = _log2_binomial_row(s), _log2_binomial_row(n - s)
    rows = []
    for dist in todo:
        bnd = edge_iso_bound(n, sigma, dist) * scale
        actual = None
        if s is not None and dist % 2 == 0 and dist // 2 <= min(s, n - s):
            actual = ls[dist // 2] + lns[dist // 2]
            actual = actual if raw else actual / n
        rows.append([dist, bnd, actual])
    payload = {"n": n, "sigma": sigma, "rows": rows}
    _emit("iso", payload, lambda: (("i", "bound_exponent", "sphere_exponent"), rows), fmt, out)


if __name__ == "__main__":
    main()
