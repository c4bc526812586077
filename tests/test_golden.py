"""Golden outputs: every `bound` kind through the CLI, per-n and --raw, as
its JSON payload and its CSV bytes, one usage error per kind, and the
default payloads of the ladder suites, recomputed and compared with the
files under tests/golden/.

    PYTHONPATH=src python tests/test_golden.py

rewrites the files from the checkout on the path. A change that means to
alter one of these outputs rewrites its file and names it in CHANGES.md.

Non-float fields compare exactly and floats to 0 ulps (by repr), except
where numpy or LAPACK reductions feed them and another host may sum in
another order: the polyfit slope of hc-sphere-gap, and every float of
extremal-search, whose power-method rows stop on a 1e-14 rise.
"""

import json
import math
import pathlib

import pytest
from click.testing import CliRunner

from krawbound import cli
from krawbound.verify import run_suite

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# tolerance (relative and absolute) of the floats under a key or file of this name
TOLERANCE = {"hc_gap_bits_slope_vs_log2_s": 1e-12, "extremal-search": 1e-10}

BOUND_CALLS = [
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
    "projection --n 16 --k 3 --p 2.5 --r 0.05",
    "projection --n 16 --k 3 --p 2.5 --r 0.05 --raw",
    "support-projection --sigma 0.1 --n 16 --k 3",
    "support-projection --sigma 0.1 --n 16 --k 3 --raw",
    # usage errors: the missing options, named in the order the kind reads them
    "moment --n 8",
    "gap --s 4",
    "tail --n 64 --s 16",
    "edge-iso --n 40",
    "edge-iso --sigma 0.3",
    "hc --p 2.5",
    "set-noise",
    "projection --n 16 --k 3",
    "support-projection --sigma 0.3",
]

SUITES = ["edge-iso-sphere", "hc-sphere-gap", "ue-sphere-union", "tails-sphere", "extremal-search"]


def _bound(call: str) -> dict:
    args = ["bound", *call.split()]
    res = CliRunner().invoke(cli.main, args)
    if res.exit_code:
        return {"exit": res.exit_code, "error": res.output.splitlines()[-1]}
    table = CliRunner().invoke(cli.main, [*args, "--format", "csv"])
    return {"payload": json.loads(res.output)["payload"], "csv": table.stdout_bytes.decode()}


def _suite(tag: str) -> dict:
    return json.loads(json.dumps(run_suite(tag).payload()))


def _same(got, want, path: str, tol: float) -> None:
    tol = TOLERANCE.get(path.rpartition(".")[2], tol)
    assert type(got) is type(want), f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            _same(got[key], want[key], f"{path}.{key}", tol)
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{path}.{i}", tol)
    elif isinstance(want, float) and tol:
        assert math.isclose(got, want, rel_tol=tol, abs_tol=tol), f"{path}: {got!r} != {want!r}"
    else:
        assert repr(got) == repr(want), f"{path}: {got!r} != {want!r}"


def _golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


@pytest.mark.parametrize("call", BOUND_CALLS)
def test_bound_matches_golden(call):
    _same(_bound(call), _golden("bound")[call], call, 0.0)


@pytest.mark.parametrize("tag", SUITES)
def test_suite_payload_matches_golden(tag):
    _same(_suite(tag), _golden(tag), tag, 0.0)


def test_golden_files_cover_the_calls():
    assert sorted(_golden("bound")) == sorted(BOUND_CALLS)
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(["bound", *SUITES])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    files = {"bound": {call: _bound(call) for call in BOUND_CALLS}, **{tag: _suite(tag) for tag in SUITES}}
    for name, doc in files.items():
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
