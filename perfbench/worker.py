"""One fresh-process pass of a workload; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--cli-payload] [--trace]
    python3 perfbench/worker.py --workload NAME --seed N --cli-trace
    python3 perfbench/worker.py --workload NAME --record

The default mode imports krawbound and krawbound.cli, builds the inputs, and
reports `ready` (CLOCK_MONOTONIC, so the parent can measure set-up from
spawn). It then times the first pass over the workload's cells, checks every
output, and compares it with the recorded reference where one applies.
The pass is timed in chunks of at least CHUNK_S, each bracketed by probes of
the host's speed (calib.py), and reported as wall time, at the reference
speed, and with every probe's slowness. `--setup-only` stops once the inputs
are built, to sample set-up alone.
`--trace` wraps the library first and adds the trace summary; `--cli-trace`
runs the workload's CLI call in-process under the tracer instead of a pass;
`--record` rewrites this workload's entry in reference.json.
Must run with the checkout's `src` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import krawbound.cli  # noqa: F401  (set-up cost: the CLI imports every layer)

import calib
import workloads
from compare import normalize, same
from tracer import Tracer

REFERENCE = Path(__file__).with_name("reference.json")
SPANS_DIR = Path(".perfbench-out")
CHUNK_S = 0.3


def run_pass(plan):
    """Run every cell once; a cell that raises is recorded as failed.

    Cells are timed in chunks of at least CHUNK_S, each bracketed by
    probes; returns the outputs, the errors, the pass's wall time and its
    time at the reference speed (probes excluded from both), and the
    slowness every probe measured."""
    outputs, errors = {}, {}
    wall_s = pass_s = chunk_s = 0.0
    before = calib.slowness()
    probes = [before]
    for i, cell in enumerate(plan.cells):
        t0 = time.perf_counter()
        try:
            outputs[cell.id] = cell.run()
        except Exception as exc:  # a raising cell is a failed cell, not a crash
            errors[cell.id] = f"raised {type(exc).__name__}: {exc}"
        chunk_s += time.perf_counter() - t0
        if chunk_s >= CHUNK_S or i == len(plan.cells) - 1:
            after = calib.slowness()
            probes.append(after)
            wall_s += chunk_s
            pass_s += calib.calibrated(chunk_s, (before + after) / 2)
            before, chunk_s = after, 0.0
    return outputs, errors, wall_s, pass_s, probes


def check(plan, outputs, errors, reference):
    for cell in plan.cells:
        if cell.id not in outputs:
            continue
        msg = cell.check(outputs[cell.id])
        if msg is None and reference is not None:
            ref = reference.get(cell.id)
            if ref is None or not same(normalize(outputs[cell.id]["ref"]), ref):
                msg = f"differs from the reference {ref!r}"
        if msg is not None:
            errors[cell.id] = msg
    for ids, group_check in plan.group_checks:
        if all(i in outputs for i in ids):
            msg = group_check([outputs[i] for i in ids])
            if msg is not None:
                for i in ids:
                    errors.setdefault(i, msg)
    return errors


def search_counts(outputs) -> dict:
    rows = [o for o in outputs.values() if "converged_starts" in o]
    return {
        "converged": sum(o["converged_starts"] for o in rows),
        "starts": sum(o["rows"] for o in rows),
        # computed from array sizes: one float64 batch of (budget+1) x 2^n
        "batch_mb": max((o["rows"] * (1 << o["n"]) * 8 / 1e6 for o in rows), default=0.0),
    }


def traced_cli(plan) -> dict:
    tracer = Tracer()
    tracer.install()
    main = sys.modules["krawbound.cli"].main
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        main.main(args=plan.cli_args, prog_name="krawbound", standalone_mode=False)
        call_s = time.perf_counter() - t0
    return {"call_s": call_s, "trace": tracer.summary()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cli-payload", action="store_true")
    ap.add_argument("--cli-trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    plan = workloads.PLANS[args.workload](args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.cli_trace:
        print(json.dumps({"ready": ready, **traced_cli(plan)}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    outputs, errors, pass_wall_s, pass_s, probes = run_pass(plan)
    spans = len(tracer.start) if tracer else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.record:
        if errors or args.seed != workloads.DEFAULT_SEED:
            print(f"not recording: seed {args.seed}, errors {errors}", file=sys.stderr)
            return 1
        table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        table[args.workload] = {cid: normalize(out["ref"]) for cid, out in outputs.items()}
        REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return 0

    reference = None
    if not plan.seeded or args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    errors = check(plan, outputs, errors, reference)
    result = {
        "ready": ready,
        "pass_wall_s": pass_wall_s,
        "pass_s": pass_s,
        "slowness": probes,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(plan.cells),
        "failed": len(errors),
        "errors": dict(sorted(errors.items())[:5]),
        "reference_checked": reference is not None,
        "search": search_counts(outputs),
    }
    if tracer:
        result["trace"] = tracer.summary(spans)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"spans-{args.workload}.bin", spans)
    if args.cli_payload:
        result["cli"] = {"args": plan.cli_args, "payload": normalize(plan.cli_payload())}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
