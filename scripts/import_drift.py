"""Cold-start dump: the time krawbound's own import takes, how many classes
`dataclasses` builds while it runs, and the 15 default `run_suite` payloads.

    python scripts/import_drift.py [OTHER_SRC]

imports `krawbound.cli` in fresh processes pinned to one CPU, with numpy,
click, json and csv already loaded, so that only krawbound's own modules
are timed, and with bytecode caching on, as perfbench runs them, after one
untimed round that writes the caches. It prints for this checkout's `src`:
- the median and quartiles of that import time, in ms;
- how many times `dataclasses._process_class` ran during it;
- the sha256 of each default suite payload (its JSON with sorted keys).
Given the `src` directory of another checkout, it does the same there, with
the two sides' processes alternating which runs first in each round, and
marks the suite payloads that differ.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1] / "src"
ROUNDS = 15

IMPORT_PROBE = """
import os, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
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


def probe(code: str, src: str):
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
    return json.loads(proc.stdout)


def main(argv: list) -> None:
    sides = {"here": str(HERE)}
    if argv:
        sides["there"] = argv[0]
    times = {side: [] for side in sides}
    built = {side: set() for side in sides}
    order = list(sides)
    for src in sides.values():
        probe(IMPORT_PROBE, src)
    for _ in range(ROUNDS):
        for side in order:
            spent, count = probe(IMPORT_PROBE, sides[side])
            times[side].append(spent * 1e3)
            built[side].add(count)
        order.reverse()
    print(f"krawbound import, {ROUNDS} fresh processes each, one CPU, numpy/click/json/csv preloaded:")
    for side in sides:
        q1, med, q3 = statistics.quantiles(times[side], n=4)
        counts = ", ".join(map(str, sorted(built[side])))
        print(f"  {side}: median {med:.1f} ms (quartiles {q1:.1f}, {q3:.1f}); "
              f"dataclasses._process_class ran {counts} times")
    if argv:
        lower = sum(a < b for a, b in zip(times["here"], times["there"]))
        print(f"  here lower in {lower} of {ROUNDS} rounds")
    hashes = {side: probe(HASH_PROBE, src) for side, src in sides.items()}
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
