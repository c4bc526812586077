"""Cold-start dump: what one CLI call pays at start, the time krawbound's own
import takes, how many classes `dataclasses` builds while it runs, and the
15 default `run_suite` payloads.

    python scripts/import_drift.py [OTHER_SRC]

Every probe runs in fresh processes pinned to one CPU, with bytecode caching
on, as perfbench runs them, after one untimed round that writes the caches.
It prints for this checkout's `src`:
- the median and quartiles of the wall time of one whole CLI call, `verify
  --suite psi-two-reps` (a suite of scalar formulas) and `eval --seed` (the
  array path), from process start to exit with nothing preloaded, whether
  the call loaded numpy, and the sha256 of its parsed JSON payload (sorted
  keys; the timestamp lives outside it), so that a change of whitespace
  alone leaves it as it was;
- the median and quartiles of the time `import krawbound.cli` takes with
  numpy, click, json and csv already loaded, so that only krawbound's own
  modules are timed, in ms;
- how many times `dataclasses._process_class` ran during that import;
- the sha256 of each default suite payload (its JSON with sorted keys).
Given the `src` directory of another checkout, it does the same there, with
the two sides' processes alternating which runs first in each round, and
marks the CLI and suite payloads that differ.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 15
CPU = min(os.sched_getaffinity(0))

CALLS = {
    "verify --suite psi-two-reps": ["verify", "--suite", "psi-two-reps"],
    "eval --seed": ["eval", "--n", "12", "--s", "3", "--p", "4", "--seed", "0"],
}

# the CLI entry point perfbench calls, telling on stderr at exit whether
# numpy was loaded
CALL_PROBE = """
import atexit, sys
atexit.register(lambda: print("numpy" in sys.modules, file=sys.stderr))
from krawbound.cli import main
sys.exit(main())
"""

IMPORT_PROBE = """
import time
import csv, json, click, numpy, dataclasses
built = 0
process_class = dataclasses._process_class
def counted(*args, **kwargs):
    global built
    built += 1
    return process_class(*args, **kwargs)
dataclasses._process_class = counted
t0 = time.perf_counter()
import krawbound.cli
print(json.dumps([time.perf_counter() - t0, built]))
"""

HASH_PROBE = """
import hashlib, json
from krawbound import verify
print(json.dumps({
    tag: hashlib.sha256(json.dumps(verify.run_suite(tag).payload(), sort_keys=True).encode()).hexdigest()
    for tag in verify.all_suite_tags()
}))
"""


def run(src: str, code: str, *args: str) -> tuple[float, subprocess.CompletedProcess]:
    """One fresh process, pinned to CPU from its start: (wall time in ms, result)."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {CPU}),
    )
    wall = (time.perf_counter() - t0) * 1e3
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return wall, proc


def call(src: str, args: list) -> tuple[float, str, str]:
    """Wall time (ms) of one whole CLI call, whether it loaded numpy, and the
    sha256 of its parsed payload."""
    wall, proc = run(src, CALL_PROBE, *args)
    loaded = proc.stderr.splitlines()[-1] == "True"
    payload = json.loads(proc.stdout)["payload"]
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return wall, "numpy loaded" if loaded else "numpy not loaded", digest


def import_only(src: str) -> tuple[float, str, None]:
    """krawbound's own import time (ms), and the dataclasses it builds."""
    spent, built = json.loads(run(src, IMPORT_PROBE)[1].stdout)
    return spent * 1e3, f"dataclasses._process_class ran {built} times", None


def main(argv: list) -> None:
    sides = {"here": str(HERE)}
    if argv:
        sides["there"] = argv[0]
    probes = {
        f"CLI call `{label}`, nothing preloaded": lambda src, args=args: call(src, args)
        for label, args in CALLS.items()
    }
    probes["krawbound import, numpy/click/json/csv preloaded"] = import_only
    for fn in probes.values():
        for src in sides.values():
            fn(src)
    results = {label: {side: [] for side in sides} for label in probes}
    order = list(sides)
    for _ in range(ROUNDS):
        for label, fn in probes.items():
            for side in order:
                results[label][side].append(fn(sides[side]))
        order.reverse()
    for label, runs in results.items():
        print(f"{label}, {ROUNDS} fresh processes each, one CPU:")
        for side, got in runs.items():
            q1, med, q3 = statistics.quantiles([ms for ms, _, _ in got], n=4)
            notes = ", ".join(sorted({note for _, note, _ in got}))
            print(f"  {side}: median {med:.1f} ms (quartiles {q1:.1f}, {q3:.1f}); {notes}")
        if argv:
            lower = sum(a[0] < b[0] for a, b in zip(runs["here"], runs["there"]))
            print(f"  here lower in {lower} of {ROUNDS} rounds")
        digests = {side: {d for _, _, d in got} for side, got in runs.items()}
        if digests["here"] != {None}:
            for side, got in digests.items():
                print(f"  {side} payload sha256: {', '.join(sorted(d[:16] for d in got))}")
            if argv:
                same = len(digests["here"]) == 1 and digests["here"] == digests["there"]
                print("  payloads identical" if same else "  payloads DIFFER")
    hashes = {side: json.loads(run(src, HASH_PROBE)[1].stdout) for side, src in sides.items()}
    here = hashes["here"]
    there = hashes.get("there", here)
    differ = [tag for tag in here if here[tag] != there.get(tag)]
    for tag, h in here.items():
        if argv:
            mark = "  DIFFERS" if tag in differ else ""
            print(f"  {tag}: here {h[:16]} there {there.get(tag, '-')[:16]}{mark}")
        else:
            print(f"  {tag}: {h}")
    if argv:
        print(f"{len(here) - len(differ)} of {len(here)} suite payloads sha256-identical")


if __name__ == "__main__":
    main(sys.argv[1:])
