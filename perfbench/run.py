"""krawbound benchmark: time to a verified answer, per workload.

    python3 perfbench/run.py --workload {ascent,brute,sweeps,profiles}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src`.
Load shape: a closed loop with one client. Every pass and every CLI call is
a fresh interpreter started after the previous one has exited, so each pass
pays the cache fills a pytest or CLI user pays. Thread pools are capped at
the CPU count and KRAWBOUND_THREADS is removed, so sweeps run serially.
The runner and every process it starts are pinned to one CPU.

Every time is reported at the reference speed of calib.py, because a shared
host's CPUs change speed under the benchmark, each on its own, by up to 2x:
each chunk of a pass is scaled by the probes the worker times around it,
and each set-up and CLI call by the probes the runner times just before and
after the process. Pinning keeps the probes on the CPU that did the work.
The raw wall times and every probe are in the report line.

--trace 0 repeats (fresh pass, CLI_CALLS_PER_PASS fresh CLI calls,
SETUPS_PER_PASS fresh set-up-only processes) for about S seconds and
reports medians of the end-to-end metrics. --trace 1 reports the per-layer
metrics: import times from `python -X importtime`, a pass under the span
tracer next to untraced passes, and the CLI call untraced and traced.

Every cell is checked against the paper's inequalities, and against
reference.json where it applies; each CLI output is validated against
docs/schema.json and compared with the same call made in-process. The last
line of stdout is the result JSON; the line before it is a report with the
environment, the counts, and any failures. A run with a failed cell or call
reports `"correct": false` and is not a valid timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import jsonschema

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib  # noqa: E402
from tracer import LAYERS  # noqa: E402
from compare import same  # noqa: E402

WORKLOADS = ("ascent", "brute", "sweeps", "profiles")
WORKER = Path(__file__).resolve().with_name("worker.py")
CLI_ENTRY = "import sys; from krawbound.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SAMPLES = 3
# per pass, extra fresh-process samples of the shorter metrics
CLI_CALLS_PER_PASS = 3
SETUPS_PER_PASS = 2
# the run must end inside 180 s even if the program slows down or hangs
STARTED = time.monotonic()
SAMPLING_LIMIT_S = 140.0
KILL_AFTER_S = 170.0


class BenchError(Exception):
    """The program cannot be run here; no result is printed."""


def median(values):
    return statistics.median(values) if values else 0.0


def child_env(root: Path, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("KRAWBOUND_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        try:
            capped = min(int(env[var]), nproc) if var in env else nproc
        except ValueError:
            capped = nproc
        env[var] = str(max(1, capped))
    return env


def spawn(cmd: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion; it is killed once the run's time is up."""
    t0 = time.monotonic()
    timeout = max(1.0, STARTED + KILL_AFTER_S - t0)
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    return t0, proc


def worker(workload: str, seed: int, env: dict, *flags: str) -> dict:
    t0, proc = spawn([sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *flags], env)
    if proc.returncode != 0:
        raise BenchError(f"worker {workload} {flags} exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_wall_s"] = res["ready"] - t0
    return res


def cli_call(args: list[str], expected: dict, schema: dict, env: dict) -> tuple[float, str | None]:
    """One fresh-process CLI call: wall time, and an error if its JSON fails
    the schema or differs from the in-process payload."""
    t0, proc = spawn([sys.executable, "-c", CLI_ENTRY, *args], env)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return wall, f"exit {proc.returncode}: {proc.stderr[-500:]}"
    try:
        doc = json.loads(proc.stdout)
        jsonschema.validate(doc, schema)
    except (ValueError, jsonschema.ValidationError) as exc:
        return wall, f"invalid output: {str(exc)[:500]}"
    if not same(doc["payload"], expected):
        return wall, "payload differs from the in-process result"
    return wall, None


def probed(spawn_one, count: int) -> list[tuple]:
    """Call `spawn_one` `count` times, probing the host before the first call
    and after each: [(result, slowness before, slowness after)]."""
    before = calib.slowness()
    out = []
    for _ in range(count):
        result = spawn_one()
        after = calib.slowness()
        out.append((result, before, after))
        before = after
    return out


def import_times(env: dict) -> dict:
    """Cumulative import time (s) of krawbound.cli and of the topmost numpy,
    scipy and click modules inside it, from `python -X importtime`."""
    _, proc = spawn([sys.executable, "-X", "importtime", "-c", "import krawbound.cli"], env)
    if proc.returncode != 0:
        raise BenchError(f"python -X importtime exited {proc.returncode}: {proc.stderr[-1000:]}")
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        name = field.strip()
        level = (len(field) - len(field.lstrip(" ")) - 1) // 2
        entries.append((level, name, int(cumulative) / 1e6))
    totals = {"krawbound": 0.0, "numpy": 0.0, "scipy": 0.0, "click": 0.0}
    stack: list[tuple[int, str]] = []
    # a module's own imports are listed before it, one level deeper
    for level, name, cum in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        family = name.split(".")[0]
        if family in totals and not any(n.split(".")[0] == family for _, n in stack):
            totals[family] += cum
        stack.append((level, name))
    return totals


def environment(root: Path, seed: int, env: dict, nproc: int) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "click", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **versions,
        "thread_vars": {var: env[var] for var in THREAD_VARS},
        "krawbound_threads_set": "KRAWBOUND_THREADS" in os.environ,
        "git_commit": commit,
        "seed": seed,
    }


def timed_run(workload: str, seed: int, seconds: float, env: dict, schema: dict) -> tuple[dict, dict]:
    start = time.monotonic()
    # setups and calls hold (wall time, slowness before, slowness after): the
    # parent probes the host around every fresh process, and a pass's first
    # probe follows its set-up
    passes, setups, calls, errors = [], [], [], []
    cli_failed = 0
    cli = None
    while True:
        t_iter = time.monotonic()
        before = calib.slowness()
        res = worker(workload, seed, env, *([] if cli else ["--cli-payload"]))
        cli = cli or res["cli"]
        passes.append(res)
        setups.append((res["setup_wall_s"], before, res["slowness"][0]))
        errors += [f"{k}: {v}" for k, v in res["errors"].items()]
        for (wall, err), a, b in probed(lambda: cli_call(cli["args"], cli["payload"], schema, env), CLI_CALLS_PER_PASS):
            calls.append((wall, a, b))
            if err:
                cli_failed += 1
                errors.append(f"cli: {err}")
        for setup, a, b in probed(lambda: worker(workload, seed, env, "--setup-only"), SETUPS_PER_PASS):
            setups.append((setup["setup_wall_s"], a, b))
        now = time.monotonic()
        step = now - t_iter
        # start another sample if it would end nearer the deadline than this one
        if len(passes) >= MIN_SAMPLES and now + step / 2 > start + seconds:
            break
        if now + step > STARTED + SAMPLING_LIMIT_S:
            break
    attempted = sum(p["attempted"] for p in passes) + len(calls)
    failed = sum(p["failed"] for p in passes) + cli_failed
    metrics = {
        "pass_s": (median([p["pass_s"] for p in passes]), "s"),
        "setup_s": (median([calib.calibrated(w, (a + b) / 2) for w, a, b in setups]), "s"),
        "cli_call_s": (median([calib.calibrated(w, (a + b) / 2) for w, a, b in calls]), "s"),
        "peak_rss_mb": (median([p["peak_rss_mb"] for p in passes]), "MB"),
    }
    counts = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "samples": {"pass": len(passes), "setup": len(setups), "cli_call": len(calls)},
        "pass_s_all": [p["pass_s"] for p in passes],
        "pass_wall_s_all": [p["pass_wall_s"] for p in passes],
        "setup_wall_s_all": [w for w, _, _ in setups],
        "cli_call_wall_s_all": [w for w, _, _ in calls],
        "setup_probes": setups,
        "cli_call_probes": calls,
        "pass_probes": [p["slowness"] for p in passes],
        "reference_checked": passes[0]["reference_checked"],
        "cli_args": cli["args"],
        "errors": errors[:10],
    }
    return metrics, counts


def traced_run(workload: str, seed: int, env: dict, schema: dict) -> tuple[dict, dict]:
    imports = [import_times(env) for _ in range(3)]
    base = [worker(workload, seed, env, "--cli-payload"), worker(workload, seed, env)]
    cli = base[0]["cli"]
    traced = worker(workload, seed, env, "--trace")
    calls = probed(lambda: cli_call(cli["args"], cli["payload"], schema, env), 2)
    cli_traced = worker(workload, seed, env, "--cli-trace")

    errors = [f"{k}: {v}" for r in (*base, traced) for k, v in r["errors"].items()]
    errors += [f"cli: {err}" for (_, err), _, _ in calls if err]
    base_pass_s = median([b["pass_s"] for b in base])
    # shares and coverage divide traced self times, so they use the traced wall time
    tr, pass_wall_s = traced["trace"], traced["pass_wall_s"]
    fn = tr["functions"]
    m: dict[str, tuple[float, str]] = {}

    def self_s(name):
        return fn.get(name, {}).get("self_s", 0.0)

    def calls_of(name):
        return fn.get(name, {}).get("calls", 0)

    for layer in LAYERS:
        if layer == "cli":
            # the pass makes no CLI call: the cli layer is traced on the CLI call itself
            lay, wall = cli_traced["trace"]["layers"]["cli"], cli_traced["call_s"]
        else:
            lay, wall = tr["layers"][layer], pass_wall_s
        m[f"{layer}.calls"] = (lay["calls"], "count")
        m[f"{layer}.self_s"] = (lay["self_s"], "s")
        m[f"{layer}.share"] = (lay["self_s"] / wall, "ratio")

    cells = tr["search_cell_s"]
    search = traced["search"]
    m["verify.search.cell_s.median"] = (median(cells), "s")
    m["verify.search.cell_s.max"] = (max(cells, default=0.0), "s")
    m["verify.search.converged_share"] = (search["converged"] / search["starts"] if search["starts"] else 0.0, "ratio")
    m["verify.search.batch_mb"] = (search["batch_mb"], "MB")  # computed from array sizes

    m["cube.wht.calls"] = (calls_of("cube.wht"), "count")
    for name in ("cube.wht", "cube.apply_noise", "cube.spectral_project"):
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cube.butterfly_ops"] = (tr["butterfly_ops"], "count")  # computed

    psi = fn.get("bivariate.psi", {"calls": 0, "incl_s": 0.0})
    m["bivariate.psi.calls"] = (psi["calls"], "count")
    m["bivariate.psi.us_per_call"] = (1e6 * psi["incl_s"] / psi["calls"] if psi["calls"] else 0.0, "us")
    m["bivariate.solve_h_inverse.calls"] = (calls_of("bivariate.solve_h_inverse"), "count")
    for name in (
        "bivariate.pi_min_check", "bivariate.phi_transform_check", "bivariate.edge_iso_min_check",
        "induction.cap_F", "induction.induction_params", "induction.hanner_gap_kraw",
        "induction.tensor_ratio_log2", "krawchouk.kraw_roots", "krawchouk.kraw_moments",
        "krawchouk.l2_between_roots", "krawchouk.lp_concentration",
    ):
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in ("numerics.log2_binomial", "numerics.inverse_entropy"):
        m[f"{name}.calls"] = (calls_of(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")

    for pkg in ("krawbound", "scipy", "numpy", "click"):
        m[f"import.{pkg}_s"] = (median([i[pkg] for i in imports]), "s")
    sub = cli["args"][0]
    call_s = median([calib.calibrated(w, (a + b) / 2) for (w, _), a, b in calls])
    for name in ("verify", "eval", "induction"):
        m[f"cli.call_s.{name}"] = (call_s if name == sub else 0.0, "s")

    m["trace.overhead"] = (traced["pass_s"] / base_pass_s, "ratio")
    m["trace.coverage"] = (sum(tr["layers"][l]["self_s"] for l in LAYERS if l != "cli") / pass_wall_s, "ratio")

    attempted = sum(r["attempted"] for r in (*base, traced)) + len(calls)
    failed = sum(r["failed"] for r in (*base, traced)) + sum(1 for (_, e), _, _ in calls if e)
    counts = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "traced_pass_s": traced["pass_s"],
        "untraced_pass_s": base_pass_s,
        "traced_pass_wall_s": pass_wall_s,
        "spans": tr["spans"],
        "computed_not_measured": ["cube.butterfly_ops", "verify.search.batch_mb"],
        "cli_layer_base": "cli.* layer metrics come from the traced CLI call, share over its wall time",
        "cli_args": cli["args"],
        "errors": errors[:10],
    }
    return m, counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    try:
        if not (root / "src" / "krawbound" / "__init__.py").is_file():
            raise BenchError(f"no src/krawbound under {root}: run from the root of a krawbound checkout")
        nproc = len(os.sched_getaffinity(0))
        env = child_env(root, nproc)
        # the probes and the work they calibrate must run on the same CPU: a
        # shared host's CPUs change speed independently of each other
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        # warm-up: byte-compiles the sources once and checks which krawbound is imported
        _, proc = spawn([sys.executable, "-c", "import krawbound.cli; print(krawbound.__file__)"], env)
        if proc.returncode != 0 or not Path(proc.stdout.strip()).resolve().is_relative_to((root / "src").resolve()):
            raise BenchError(f"cannot import krawbound from {root / 'src'}: {proc.stderr[-1000:]}")
        schema = json.loads((root / "docs" / "schema.json").read_text())
        info = environment(root, args.seed, env, nproc)
        info["pinned_cpu"] = cpu
        if args.trace:
            metrics, counts = traced_run(args.workload, args.seed, env, schema)
        else:
            metrics, counts = timed_run(args.workload, args.seed, args.seconds, env, schema)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    print(json.dumps({"report": {"workload": args.workload, "environment": info, **counts}}))
    result = {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
