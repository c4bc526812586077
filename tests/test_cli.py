"""CLI surface: subcommand output shapes, exit codes, envelope schema,
replay determinism, CSV rectangularity."""

import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from krawbound import cli
from krawbound.verify import SuiteConfig, SuiteReport

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs" / "schema.json").read_text()
)


def run(*args):
    return CliRunner().invoke(cli.main, list(args))


def run_json(*args):
    res = run(*args)
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    jsonschema.validate(doc, SCHEMA)
    return doc


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    widths = {len(r) for r in rows}
    assert len(widths) == 1, f"ragged csv: {widths}"
    return rows


# ------------------------------------------------------------------- shapes


def test_cli_import_leaves_scipy_out():
    # scipy is only a test dependency; the command line must not load it
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, krawbound.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_kraw_csv_example():
    res = run("kraw", "--n", "4", "--s", "2", "--format", "csv")
    assert res.exit_code == 0
    rows = parse_csv(res.output)
    assert rows[0] == ["i", "K"]
    assert [int(r[1]) for r in rows[1:]] == [6, 0, -2, 0, 6]


def test_kraw_json_with_moment():
    doc = run_json("kraw", "--n", "8", "--s", "3", "--p", "4")
    payload = doc["payload"]
    assert payload["table"][0] == [0, math.comb(8, 3)]
    assert payload["moment"]["mode"] == "exact"


def test_bound_moment_p2_is_zero():
    doc = run_json("bound", "moment", "--n", "8", "--s", "2", "--p", "2")
    assert doc["payload"]["exponent"] == 0.0


def test_bound_raw_flag_scales_by_n():
    per_n = run_json("bound", "moment", "--n", "8", "--s", "2", "--p", "4")
    raw = run_json("bound", "moment", "--n", "8", "--s", "2", "--p", "4", "--raw")
    assert raw["payload"]["exponent"] == pytest.approx(8 * per_n["payload"]["exponent"], rel=1e-12)


def test_bound_all_kinds_run():
    run_json("bound", "gap", "--n", "16", "--s", "4", "--p", "3")
    run_json("bound", "tail", "--n", "64", "--s", "16", "--i", "8")
    run_json("bound", "edge-iso", "--n", "40", "--s", "10", "--i", "8")
    run_json("bound", "hc", "--p", "2.5", "--eps", "0.15", "--r", "0.1")
    run_json("bound", "set-noise", "--sigma", "0.3", "--eps", "0.2")
    run_json("bound", "projection", "--n", "16", "--k", "3", "--p", "2", "--r", "0.05")
    run_json("bound", "support-projection", "--sigma", "0.3", "--n", "16", "--k", "3")


def test_bound_missing_flags_exit_2():
    res = run("bound", "moment", "--n", "8")
    assert res.exit_code == 2
    assert "requires" in res.output


def test_eval_sphere_levels():
    doc = run_json("eval", "--n", "10", "--s", "3", "--p", "4", "--eps", "0.1")
    payload = doc["payload"]
    assert payload["object"] == "sphere-indicator"
    # indicator of a sphere has mass at every level with nonzero polynomial value
    ks = [row[0] for row in payload["levels"]]
    assert 0 in ks and 5 not in ks  # the middle value vanishes at (10, 3)
    assert payload["l2_exponent"] == pytest.approx(
        0.5 * (math.log2(math.comb(10, 3)) - 10) / 10, abs=1e-12
    )


def test_eval_profile_path_closed_forms():
    # past the dense cap the sphere goes through the weight-profile route;
    # indicator norms have closed forms to check against
    payload = run_json("eval", "--n", "30", "--s", "5", "--p", "4")["payload"]
    assert payload["object"] == "sphere-indicator"
    size = math.log2(math.comb(30, 5))
    assert payload["l2_exponent"] == pytest.approx(0.5 * (size - 30) / 30, abs=1e-9)
    assert payload["lp_exponent"] == pytest.approx(0.25 * (size - 30) / 30, abs=1e-9)
    assert len(payload["levels"]) >= 2


def test_eval_random_homogeneous_deterministic():
    a = run_json("eval", "--n", "8", "--s", "2", "--seed", "5")["payload"]
    b = run_json("eval", "--n", "8", "--s", "2", "--seed", "5")["payload"]
    assert a == b
    assert a["object"] == "random-homogeneous"
    ks = [row[0] for row in a["levels"]]
    assert ks == [2]  # homogeneous: single spectral level


def test_induction_payload():
    doc = run_json("induction", "--n", "64", "--s", "16", "--p", "4")
    payload = doc["payload"]
    assert payload["params"]["rho"] == pytest.approx(2.1547005383792524, abs=1e-12)
    assert payload["hanner"]["log2_ratio_per_n"] >= 0.0
    assert "residual" in payload["recursion"]


def test_ue_gap_small_at_desk_scale():
    doc = run_json("ue", "--n", "200", "--eps", "0.1", "--R", "0.5")
    assert doc["payload"]["gap_bits"] <= 0.05 * 200
    res = run("ue", "--n", "50", "--eps", "0.1")
    assert res.exit_code == 2


def test_iso_sweep_csv_rectangular():
    res = run("iso", "--n", "12", "--s", "3", "--format", "csv")
    assert res.exit_code == 0
    rows = parse_csv(res.output)
    assert rows[0] == ["i", "bound_exponent", "sphere_exponent"]
    assert len(rows) > 3
    # even distances on the sphere get exact counts, odd ones stay blank
    assert rows[2][2] != "" and rows[1][2] == ""


def test_out_writes_file(tmp_path):
    target = tmp_path / "report.json"
    res = run("kraw", "--n", "4", "--s", "2", "--out", str(target))
    assert res.exit_code == 0
    doc = json.loads(target.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["payload"]["table"][2] == [2, -2]


# --------------------------------------------------------------- exit codes


def test_unknown_subcommand_exits_2():
    assert run("mystery").exit_code == 2


def test_unknown_flag_exits_2():
    assert run("kraw", "--n", "4", "--s", "2", "--bogus").exit_code == 2


def test_input_error_exits_2():
    assert run("kraw", "--n", "4", "--s", "9").exit_code == 2
    # past the log2-binomial cap n is refused before anything of size n is built
    assert run("eval", "--n", "1000001", "--s", "1").exit_code == 2
    assert run("eval", "--n", "1000000000", "--s", "1").exit_code == 2
    # n = 0 is refused before any division by n
    assert run("eval", "--n", "0", "--s", "0").exit_code == 2
    assert run("iso", "--n", "0", "--s", "0").exit_code == 2
    assert run("bound", "moment", "--n", "0", "--s", "0", "--p", "4").exit_code == 2
    # Phi or i0/n outside the float range
    assert run("induction", "--n", "10", "--s", "3", "--p", "1e6").exit_code == 2
    # fewer than 0 restarts or 1 instance
    grid = ("--grid", "n=6:6:1", "--grid", "p=3:3:1")
    assert run("verify", "--suite", "extremal-search", *grid, "--budget", "-1").exit_code == 2
    assert run("verify", "--suite", "degree-at-most", "--budget", "-3").exit_code == 2
    assert run("verify", "--suite", "degree-at-most", "--budget", "0").exit_code == 2
    # a grid that selects no case is refused, not reported as a pass
    assert run("verify", "--suite", "extremal-search", *grid, "--grid", "s=9:9:1").exit_code == 2


def test_unknown_suite_exits_2():
    assert run("verify", "--suite", "no-such").exit_code == 2


def test_counterexample_exits_3(monkeypatch):
    artifact = {"n": 8, "s": 2, "p": 4.0, "log2_ratio": 9.9}
    fake = SuiteReport(
        config=SuiteConfig("extremal-search"),
        cases=(),
        worst_margin=math.inf,
        measured_constants={},
        counterexamples=(artifact,),
        wall_time=0.0,
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: fake)
    res = run("verify", "--suite", "extremal-search")
    assert res.exit_code == 3
    doc = json.loads(res.stdout)
    assert doc["payload"]["counterexamples"] == [artifact]


# -------------------------------------------------------------- determinism


def test_verify_replay_payload_identical():
    a = run("verify", "--suite", "tau-symmetry", "--seed", "7")
    b = run("verify", "--suite", "tau-symmetry", "--seed", "7")
    assert a.exit_code == 0 and b.exit_code == 0
    pa = json.dumps(json.loads(a.output)["payload"], sort_keys=True)
    pb = json.dumps(json.loads(b.output)["payload"], sort_keys=True)
    assert pa == pb


def test_verify_grid_flag_reaches_suite():
    doc = run_json("verify", "--suite", "pi-min", "--grid", "sigma=0.1:0.4:4", "--grid", "kappa=0.05:0.2:3")
    payload = doc["payload"]
    assert payload["pass"] is True
    assert payload["config"]["grid"]["sigma"] == [0.1, 0.2, 0.30000000000000004, 0.4]
    # one (sigma, kappa) cell falls outside kappa <= 2 sigma (1-sigma)
    assert len(payload["cases"]) == 11


def test_verify_budget_and_seed():
    doc = run_json(
        "verify", "--suite", "degree-at-most", "--grid", "n=8:8:1", "--grid", "s=2:2:1",
        "--budget", "50", "--seed", "3",
    )
    assert len(doc["payload"]["cases"]) == 50
    # --budget 0 is zero restarts, not the default
    doc = run_json(
        "verify", "--suite", "extremal-search", "--grid", "n=6:6:1", "--grid", "p=3:3:1",
        "--budget", "0",
    )
    assert doc["payload"]["config"]["budget"] == {"restarts": 0}


def test_grid_parse_errors_exit_2():
    assert run("verify", "--suite", "pi-min", "--grid", "sigma=0.1:0.4").exit_code == 2
    assert run("verify", "--suite", "pi-min", "--grid", "sigma=0.1:0.4:0").exit_code == 2


def test_verify_csv_cases_table():
    res = run("verify", "--suite", "u-star", "--format", "csv")
    assert res.exit_code == 0
    rows = parse_csv(res.output)
    assert rows[0] == ["case", "name", "params", "lhs", "rhs", "margin", "pass"]
    assert all(r[6] == "True" for r in rows[1:])
