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
import numpy as np
import pytest
from click.testing import CliRunner

from krawbound import cli
from krawbound.cube import (
    apply_noise,
    lp_norm,
    random_homogeneous,
    spectral_project,
    sphere_indicator,
    weight_table,
)
from krawbound.verify import SuiteConfig, SuiteReport, run_suite

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


def test_cli_scalar_commands_never_load_numpy():
    # importing numpy, and building a dataclass (it compiles its generated
    # methods), are costs every CLI call pays at start; the array layers are
    # imported by the commands that use them, and result records are
    # NamedTuples
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import contextlib, dataclasses, io, sys, krawbound.cli\n"
        "for name, mod in sorted(sys.modules.items()):\n"
        "    for c in vars(mod).values() if name.startswith('krawbound') else ():\n"
        "        if isinstance(c, type) and c.__module__ == name and dataclasses.is_dataclass(c):\n"
        "            print(f'{name}.{c.__name__}')\n"
        "print('import', 'numpy' in sys.modules)\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = krawbound.cli.main(args.split(), standalone_mode=False)\n"
        "    print(args.split()[0], code or 0, 'numpy' in sys.modules)"
    )
    commands = [
        "verify --suite psi-two-reps",
        "verify --suite disc-cont --grid n=64:64:1",
        "bound moment --n 64 --s 8 --p 4",
        "iso --n 20 --sigma 0.2",
        "kraw --n 6 --s 2",
        "iso --n 20 --s 4",
        "verify --suite edge-iso-sphere",
        "eval --n 8 --s 2 --seed 0",
    ]
    proc = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import False",
        "verify 0 False",
        "verify 0 False",
        "bound 0 False",
        "iso 0 False",
        "kraw 0 False",
        "iso 0 False",
        "verify 0 False",
        "eval 0 True",
    ]


def test_json_commands_never_load_csv():
    # `import krawbound.cli` loads neither csv nor dataclasses; the JSON
    # output of every command, array commands included, never builds the CSV
    # table, and only --format csv imports csv
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import contextlib, io, sys, krawbound.cli\n"
        "print('import', 'csv' in sys.modules, 'dataclasses' in sys.modules)\n"
        "for args in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = krawbound.cli.main(args.split(), standalone_mode=False)\n"
        "    print(args.split()[0], code or 0, 'csv' in sys.modules)"
    )
    commands = [
        "verify --suite psi-two-reps",
        "eval --n 12 --s 3 --p 4.0 --eps 0.1 --seed 0",
        "induction --n 64 --s 16 --p 4",
        "bound gap --n 16 --s 4 --p 3",
        "kraw --n 6 --s 2 --p 4",
        "kraw --n 6 --s 2 --format csv",
    ]
    proc = subprocess.run([sys.executable, "-c", code, *commands], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "import False False",
        "verify 0 False",
        "eval 0 False",
        "induction 0 False",
        "bound 0 False",
        "kraw 0 False",
        "kraw 0 True",
    ]


@pytest.mark.parametrize(
    "args",
    [["verify", "--suite", "psi-two-reps"], ["eval", "--n", "12", "--s", "3", "--p", "4.0", "--eps", "0.1", "--seed", "0"]],
)
def test_json_envelope_is_one_line(args):
    res = run(*args)
    assert res.exit_code == 0, res.output
    assert res.output.endswith("\n") and res.output.count("\n") == 1
    doc = json.loads(res.output)
    jsonschema.validate(doc, SCHEMA)
    if args[0] == "verify":
        want = run_suite("psi-two-reps").payload()
    else:
        f, scale = random_homogeneous(12, 3, 0), 1.0 / 12
        mass = np.bincount(weight_table(12), weights=f.data**2)[3]
        want = {
            "object": "random-homogeneous",
            "n": 12,
            "s": 3,
            "l2_exponent": math.log2(lp_norm(f, 2)) * scale,
            "lp_exponent": math.log2(lp_norm(f, 4.0)) * scale,
            "noised_l2_exponent": math.log2(lp_norm(apply_noise(f, 0.1), 2)) * scale,
            "levels": [[3, math.log2(mass) * scale]],
        }
    assert doc["payload"] == json.loads(json.dumps(want))


def test_verify_csv_bytes_pinned():
    # the --format csv bytes as they were while the JSON envelope was still
    # indented; CSV output must not change with it
    res = run("verify", "--suite", "tau-symmetry", "--grid", "x=0.1:0.3:2", "--grid", "y=0.05:0.25:2", "--format", "csv")
    assert res.exit_code == 0, res.output
    assert res.stdout_bytes == (
        b"case,name,params,lhs,rhs,margin,pass\r\n"
        b'0,tau-symmetry,"{""x"": 0.1, ""y"": 0.05}",2.220446049250313e-16,1e-08,9.999999777955395e-09,True\r\n'
        b'1,tau-symmetry,"{""x"": 0.1, ""y"": 0.25}",1.1102230246251565e-16,1e-08,9.999999888977698e-09,True\r\n'
        b'2,tau-symmetry,"{""x"": 0.3, ""y"": 0.05}",1.1102230246251565e-16,1e-08,9.999999888977698e-09,True\r\n'
        b'3,tau-symmetry,"{""x"": 0.3, ""y"": 0.25}",1.1102230246251565e-16,1e-08,9.999999888977698e-09,True\r\n'
    )


def test_kraw_csv_example():
    res = run("kraw", "--n", "4", "--s", "2", "--format", "csv")
    assert res.exit_code == 0
    assert res.stdout_bytes == b"i,K\r\n0,6\r\n1,0\r\n2,-2\r\n3,0\r\n4,6\r\n"


def test_kraw_csv_at_cap():
    res = run("kraw", "--n", "4096", "--s", "2048", "--format", "csv")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 4098
    assert lines[1] == f"0,{math.comb(4096, 2048)}"


def test_kraw_json_with_moment():
    doc = run_json("kraw", "--n", "8", "--s", "3", "--p", "4")
    payload = doc["payload"]
    assert payload["table"][0] == [0, math.comb(8, 3)]
    assert payload["moment"]["mode"] == "exact-assisted"


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


def test_eval_sphere_matches_dense_indicator():
    # the weight-profile route against the dense indicator it replaced
    for n in range(1, 9):
        for s in range(n + 1):
            payload = run_json("eval", "--n", str(n), "--s", str(s), "--p", "3", "--eps", "0.2")["payload"]
            _, f = sphere_indicator(n, s)
            assert payload["l2_exponent"] == pytest.approx(math.log2(lp_norm(f, 2)) / n, abs=1e-14)
            assert payload["lp_exponent"] == pytest.approx(math.log2(lp_norm(f, 3)) / n, abs=1e-14)
            noised = math.log2(lp_norm(apply_noise(f, 0.2), 2)) / n
            assert payload["noised_l2_exponent"] == pytest.approx(noised, abs=1e-14)
            levels = []
            for k in range(n + 1):
                mass = lp_norm(spectral_project(f, k), 2) ** 2
                if mass > 0.0:
                    levels.append((k, math.log2(mass) / n))
            assert [k for k, _ in payload["levels"]] == [k for k, _ in levels]
            for (_, got), (_, want) in zip(payload["levels"], levels):
                assert got == pytest.approx(want, abs=1e-14)


def test_eval_random_homogeneous_deterministic():
    a = run_json("eval", "--n", "8", "--s", "2", "--seed", "5")["payload"]
    b = run_json("eval", "--n", "8", "--s", "2", "--seed", "5")["payload"]
    assert a == b
    assert a["object"] == "random-homogeneous"
    ks = [row[0] for row in a["levels"]]
    assert ks == [2]  # homogeneous: single spectral level


def test_eval_lp_exponent_finite_at_large_p():
    doc = run_json("eval", "--n", "12", "--s", "3", "--p", "1000", "--eps", "0.1", "--seed", "0")
    assert math.isfinite(doc["payload"]["lp_exponent"])


def test_eval_random_levels_match_projection():
    # the level masses by Parseval against the projection they replaced
    payload = run_json("eval", "--n", "10", "--s", "3", "--seed", "4")["payload"]
    want = math.log2(lp_norm(spectral_project(random_homogeneous(10, 3, 4), 3), 2) ** 2) / 10
    assert payload["levels"] == [[3, pytest.approx(want, rel=1e-14)]]


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


def test_iso_sphere_column_matches_exact_counts():
    n, s = 2000, 1000
    rows = run_json("iso", "--n", str(n), "--s", str(s), "--raw")["payload"]["rows"]
    even = [(i, got) for i, _, got in rows if i % 2 == 0]
    assert len(even) == 500 and all(got is not None for _, got in even)
    for i, got in even:
        want = math.log2(math.comb(s, i // 2) * math.comb(n - s, i // 2))
        assert got == pytest.approx(want, rel=2.3e-16)
    # a sphere of radius 9 in n = 10 has no pairs at distance 4: no count
    rows = run_json("iso", "--n", "10", "--s", "9", "--sigma", "0.3")["payload"]["rows"]
    assert [row[2] is None for row in rows] == [True, False, True, True]


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
    # the sphere column's row C(n - s, .) is capped like every log2 binomial row
    assert run("iso", "--n", "1000000000", "--s", "3").exit_code == 2
    assert run("bound", "moment", "--n", "0", "--s", "0", "--p", "4").exit_code == 2
    # p past psi's cap of 10^6, where its float error nears its 1e-6 gate
    assert run("bound", "moment", "--n", "100", "--s", "1", "--p", "1e7").exit_code == 2
    # Phi or i0/n outside the float range
    assert run("induction", "--n", "10", "--s", "3", "--p", "1e6").exit_code == 2
    # fewer than 0 restarts or 1 instance
    grid = ("--grid", "n=6:6:1", "--grid", "p=3:3:1")
    assert run("verify", "--suite", "extremal-search", *grid, "--budget", "-1").exit_code == 2
    assert run("verify", "--suite", "degree-at-most", "--budget", "-3").exit_code == 2
    assert run("verify", "--suite", "degree-at-most", "--budget", "0").exit_code == 2
    # seeds outside [0, 2^63), which numpy's Philox key lists round or wrap
    for seed in ("18446744073709551616", "18446744073709551615", "9223372036854775808", "-1"):
        assert run("verify", "--suite", "degree-at-most", "--seed", seed, "--budget", "2").exit_code == 2
    # eval's seed is a Philox key, an integer in [0, 2^128)
    for seed in ("-1", str(1 << 128)):
        assert run("eval", "--n", "6", "--s", "2", "--p", "4", "--seed", seed).exit_code == 2
    # sums of |f|^p beyond the float range are refused, not printed as NaN margins
    big_p = ("--grid", "n=6:6:1", "--grid", "p=1000:1000:1")
    assert run("verify", "--suite", "extremal-search", *big_p, "--budget", "5").exit_code == 2
    # a grid that selects no case is refused, not reported as a pass
    assert run("verify", "--suite", "extremal-search", *grid, "--grid", "s=9:9:1").exit_code == 2
    # an axis the suite does not read, a tolerance on a suite without one, and
    # several values on an axis the suite reads one value of
    assert run("verify", "--suite", "tau-symmetry", "--grid", "q=1:2:2").exit_code == 2
    assert run("verify", "--suite", "edge-iso-sphere", "--tol", "1e-300").exit_code == 2
    assert run("verify", "--suite", "edge-iso-sphere", "--budget", "5").exit_code == 2
    # a seed on a suite that is no seeded search
    assert run("verify", "--suite", "tau-symmetry", "--seed", "7").exit_code == 2
    # eps outside [0, 1/2] on either object of eval
    assert run("eval", "--n", "10", "--s", "3", "--eps", "0.7").exit_code == 2
    assert run("eval", "--n", "30", "--s", "5", "--eps", "0.7").exit_code == 2
    assert run("verify", "--suite", "edge-iso-sphere", "--grid", "n=40:80:3").exit_code == 2


def test_unknown_suite_exits_2():
    assert run("verify", "--suite", "no-such").exit_code == 2


def test_counterexample_exits_3(monkeypatch):
    artifact = {"n": 8, "s": 2, "p": 4.0, "log2_ratio": 9.9}
    fake = SuiteReport(
        config=SuiteConfig("extremal-search", {}, {}, 0, {}),
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


def test_failed_case_exits_3():
    # psi's two representations differ by rounding only; a tolerance below
    # that nonzero residual fails the case, and the report is still printed
    grid = ("--grid", "p=3:3:1", "--grid", "x=0.1:0.1:1")
    assert run("verify", "--suite", "psi-two-reps", *grid).exit_code == 0
    res = run("verify", "--suite", "psi-two-reps", *grid, "--tol", "1e-17")
    assert res.exit_code == 3
    payload = json.loads(res.stdout)["payload"]
    (case,) = payload["cases"]
    assert case["lhs_log2n"] > 1e-17 and not case["pass"]
    assert payload["pass"] is False and payload["counterexamples"] == []


# -------------------------------------------------------------- determinism


def test_verify_replay_payload_identical():
    a = run("verify", "--suite", "tau-symmetry")
    b = run("verify", "--suite", "tau-symmetry")
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
    # a non-finite end is refused, not rounded into an integer axis
    assert run("verify", "--suite", "extremal-search", "--grid", "n=nan:8:2").exit_code == 2
    assert run("verify", "--suite", "extremal-search", "--grid", "n=6:1e400:2").exit_code == 2


def test_grid_repeated_axis_exits_2():
    # a second spec for one axis is refused, not silently kept in place of the first
    grid = ("--grid", "p=3:3:1", "--grid", "p=4:4:1", "--grid", "x=0.2:0.2:1")
    res = run("verify", "--suite", "psi-two-reps", *grid)
    assert res.exit_code == 2
    assert "'p' given more than once" in res.output
    assert run("verify", "--suite", "psi-two-reps", *grid[2:]).exit_code == 0


def test_verify_csv_cases_table():
    res = run("verify", "--suite", "u-star", "--format", "csv")
    assert res.exit_code == 0
    rows = parse_csv(res.output)
    assert rows[0] == ["case", "name", "params", "lhs", "rhs", "margin", "pass"]
    assert all(r[6] == "True" for r in rows[1:])
