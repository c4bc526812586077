"""Golden outputs: every CLI command's JSON payload and CSV bytes on a few
calls each, its usage errors, and the default payload of every suite in
`verify.all_suite_tags()`, recomputed and compared with the files under
tests/golden/ (one per command, keyed by the call's arguments, and one per
suite).

    PYTHONPATH=src python tests/test_golden.py

rewrites the files from the checkout on the path. A change that means to
alter one of these outputs rewrites its file and names it in CHANGES.md.

Non-float fields compare exactly and floats to 0 ulps (by repr), except
where a numpy reduction, BLAS or LAPACK feeds them and another CPU or numpy
build may round them otherwise. Those floats take a tolerance of 1e-10,
relative, and absolute for floats near zero:
- every float of the suite extremal-search, whose power-method rows stop on
  a 1e-14 rise;
- every float of the suite degree-at-most, whose norms are numpy sums over
  Walsh-Hadamard transforms of seeded Fourier mixtures;
- every float of the seeded `eval` call, the same sums over a seeded
  random homogeneous function;
- the polyfit slope of hc-sphere-gap (1e-12).
"""

import functools
import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from krawbound import cli
from krawbound.verify import all_suite_tags, run_suite

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# tolerance (relative and absolute) of the floats under a key, suite or call
TOLERANCE = {
    "hc_gap_bits_slope_vs_log2_s": 1e-12,
    "extremal-search": 1e-10,
    "degree-at-most": 1e-10,
    "eval --n 12 --s 3 --p 4 --eps 0.1 --seed 0": 1e-10,
}

# the arguments of each call, per command; the usage errors name the missing
# or refused option
CALLS = {
    "bound": [
        "moment --n 16 --s 4 --p 3",
        "moment --n 16 --s 4 --p 3 --raw",
        "gap --n 16 --s 4 --p 3",
        "gap --n 16 --s 4 --p 3 --raw",
        "tail --n 64 --s 16 --i 8",
        "tail --n 64 --s 16 --i 8 --raw",
        "edge-iso --n 40 --s 10 --i 8",
        "edge-iso --n 40 --sigma 0.3 --i 8 --raw",
        "hc --p 2.5 --eps 0.15 --r 0.1",
        "hc --n 16 --p 2.5 --eps 0.15 --r 0.1 --raw",
        "set-noise --sigma 0.3 --eps 0.2",
        "set-noise --n 16 --sigma 0.3 --eps 0.2 --raw",
        "projection --n 16 --k 3 --p 2 --r 0.05",
        "projection --n 16 --k 3 --p 2.5 --r 0.05",
        "projection --n 16 --k 3 --p 2.5 --r 0.05 --raw",
        "support-projection --sigma 0.1 --n 16 --k 3",
        "support-projection --sigma 0.1 --n 16 --k 3 --raw",
        "support-projection --sigma 0.3 --n 16 --k 3",
        # the missing options, named in the order the kind reads them
        "moment --n 8",
        "gap --s 4",
        "tail --n 64 --s 16",
        "edge-iso --n 40",
        "edge-iso --sigma 0.3",
        "hc --p 2.5",
        "set-noise",
        "projection --n 16 --k 3",
        "support-projection --sigma 0.3",
        # refused values
        "hc --p 2.5 --eps 0.15 --r nan",
        "projection --n 16 --k 3 --p inf --r 0.05",
        "projection --n 16 --k 3 --p 2.5 --r nan",
    ],
    "eval": [
        "--n 10 --s 3 --p 4 --eps 0.1",
        "--n 10 --s 3 --p 4 --raw",
        "--n 12 --s 3 --p 4 --eps 0.1 --seed 0",
        "--n 10 --s 3 --eps 0.7",
        "--n 10 --s 3 --seed -1",
    ],
    "induction": [
        "--n 32 --s 4 --p 3",
        "--n 32 --s 4 --p 1.5",
    ],
    "iso": [
        "--n 20 --s 5",
        "--n 20 --sigma 0.25 --i 4 --raw",
        "--n 20",
        "--n 20 --sigma 0.6",
    ],
    "kraw": [
        "--n 4 --s 2",
        "--n 8 --s 3 --p 4",
        "--n 4 --s 5",
        "--n 8 --s 3 --p 0.5",
    ],
    "ue": [
        "--n 40 --eps 0.1 --s 5",
        "--n 40 --eps 0.1 --R 0.5 --raw",
        "--n 40 --eps 0.1",
        "--n 40 --eps 0.1 --s 30",
    ],
    "verify": [
        "--suite tau-symmetry --grid x=0.1:0.3:2 --grid y=0.05:0.25:2",
        "--suite psi-two-reps --grid p=2.5:4:2 --grid x=0.1:0.3:2 --tol 1e-6",
        "--suite nope",
        "--suite tau-symmetry --seed 1",
        "--suite tau-symmetry --grid x=0:1:0",
        "--suite tau-symmetry --tol inf",
        "--suite tau-symmetry --tol nan",
        "--suite tau-symmetry --tol -1",
        "--suite extremal-search --grid n=6:7:3 --grid p=3:3:1 --budget 2",
    ],
}


def _call(command: str, call: str) -> dict:
    args = [command, *call.split()]
    res = CliRunner().invoke(cli.main, args)
    if res.exit_code:
        return {"exit": res.exit_code, "error": res.output.splitlines()[-1]}
    table = CliRunner().invoke(cli.main, [*args, "--format", "csv"])
    return {"payload": json.loads(res.output)["payload"], "csv": table.stdout_bytes.decode()}


def _suite(tag: str) -> dict:
    return json.loads(json.dumps(run_suite(tag).payload()))


def _same(got, want, path: str, tol: float) -> None:
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _same(got[key], want[key], f"{path}.{key}", TOLERANCE.get(key, tol))
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{path}.{i}", tol)
    elif isinstance(want, float) and tol:
        assert math.isclose(got, want, rel_tol=tol, abs_tol=tol), f"{path}: {got!r} != {want!r}"
    else:
        assert repr(got) == repr(want), f"{path}: {got!r} != {want!r}"


@functools.cache
def _golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _check(command: str, call: str) -> None:
    name = f"{command} {call}"
    _same(_call(command, call), _golden(command)[call], name, TOLERANCE.get(name, 0.0))


@pytest.mark.parametrize("call", CALLS["bound"])
def test_bound_matches_golden(call):
    _check("bound", call)


@pytest.mark.parametrize("call", [f"{cmd} {call}" for cmd, calls in CALLS.items() if cmd != "bound" for call in calls])
def test_command_matches_golden(call):
    _check(*call.split(" ", 1))


@pytest.mark.parametrize("tag", all_suite_tags())
def test_suite_payload_matches_golden(tag):
    _same(_suite(tag), _golden(tag), tag, TOLERANCE.get(tag, 0.0))


def test_golden_files_cover_the_calls():
    assert sorted(CALLS) == sorted(cli.main.commands)
    for command, calls in CALLS.items():
        assert sorted(_golden(command)) == sorted(calls), command
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted([*CALLS, *all_suite_tags()])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    files = {cmd: {call: _call(cmd, call) for call in calls} for cmd, calls in CALLS.items()}
    files.update((tag, _suite(tag)) for tag in all_suite_tags())
    for name, doc in files.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
