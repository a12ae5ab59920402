import gc
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import cryptomix.lp
from cryptomix import bundled_scenario_path, load_bundled_scenario, save_scenario
from cryptomix.cli import main, run_cli
from helpers import fresh_env, run_python, wide_methods


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_validate_bundled(capsys):
    payload = run_json(capsys, ["validate"])
    assert payload == {
        "ok": True,
        "algorithms": 8,
        "attack_methods": 38,
        "scenario_budgets": [11.0, 15.0, 20.0, 25.0, 30.0],
    }


def test_solve_defender_json(capsys):
    payload = run_json(capsys, ["solve-defender"])
    assert payload["objective"] == pytest.approx(19.1217, abs=1e-3)
    assert payload["expected_breach"] == pytest.approx(0.638, abs=1e-3)
    assert len(payload["strategy"]) == 8
    assert sum(row["prob"] for row in payload["strategy"]) == pytest.approx(1.0)
    assert {a["solver"] for a in payload["attacks"]} == {"dp"}


def test_solve_defender_csv_and_out(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run_cli(["solve-defender", "--csv", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,prob,utility,breach,methods"
    assert len(lines) == 9
    assert lines[1].startswith("aes128-gcm,")
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["objective"] == pytest.approx(19.1217, abs=1e-3)


def test_solve_attacker_dp_equals_brute(capsys):
    dp = run_json(
        capsys, ["solve-attacker", "--algorithm", "ml-kem-768", "--solver", "dp"]
    )
    brute = run_json(
        capsys, ["solve-attacker", "--algorithm", "ml-kem-768", "--solver", "brute"]
    )
    assert dp["plan"] == brute["plan"]
    assert dp["solver"] == "dp"
    assert brute["solver"] == "brute"


def test_solve_attacker_overrides(capsys):
    payload = run_json(
        capsys,
        [
            "solve-attacker",
            "--algorithm",
            "aes256-gcm",
            "--budget",
            "27",
            "--value",
            "500",
            "--solver",
            "hybrid",
        ],
    )
    assert payload["budget"] == 27.0
    assert payload["value"] == 500.0
    assert payload["plan"]["total_cost"] <= 27.0


def test_solve_attacker_greedy_seeded(capsys):
    a = run_json(
        capsys,
        ["solve-attacker", "--algorithm", "sha-256", "--solver", "greedy", "--seed", "3"],
    )
    b = run_json(
        capsys,
        ["solve-attacker", "--algorithm", "sha-256", "--solver", "greedy", "--seed", "3"],
    )
    assert a == b
    assert a["solver"] == "greedy"


def test_solve_attacker_unknown_algorithm(capsys):
    code = run_cli(["solve-attacker", "--algorithm", "rot13"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown algorithm" in captured.err
    assert "aes128-gcm" in captured.err


def test_solve_robust_with_matrices(tmp_path, capsys):
    payload = run_json(
        capsys,
        [
            "solve-robust",
            "--budgets",
            "11,15",
            "--matrices",
            "--out-dir",
            str(tmp_path),
        ],
    )
    assert payload["mode"] == "regret"
    assert payload["budgets"] == [11.0, 15.0]
    assert payload["max_regret"] >= -1e-9
    assert payload["regret_matrix"]["columns"] == ["k=11", "k=15", "max"]
    for name in ("regret_matrix.csv", "breach_regret_matrix.csv"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text.startswith("strategy,k=11,k=15,max")
        assert "mmr," in text


def test_solve_robust_modes(capsys):
    maximin = run_json(capsys, ["solve-robust", "--mode", "maximin"])
    assert maximin["mode"] == "maximin"
    assert "worst_case_value" in maximin
    unconstrained = run_json(capsys, ["solve-robust", "--mode", "unconstrained"])
    assert "objective" in unconstrained
    # the default budget list comes from the scenario file
    assert unconstrained["budgets"] == [11.0, 15.0, 20.0, 25.0, 30.0]


def test_solve_robust_bad_budgets(capsys):
    assert run_cli(["solve-robust", "--budgets", "abc"]) == 1
    assert run_cli(["solve-robust", "--budgets", "30,20"]) == 1
    capsys.readouterr()


def test_baselines_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = run_cli(["baselines", "--samples", "3", "--seed", "1", "--out", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "label,objective,breach,op,cpu,mem,latency,resilience"
    # 3 random + 3 single-objective + stackelberg
    assert len(lines) == 8
    objectives = {row.split(",")[0]: float(row.split(",")[1]) for row in lines[1:]}
    assert objectives["stackelberg"] == pytest.approx(max(objectives.values()))
    assert float(lines[1].split(",")[1]) == pytest.approx(objectives["stackelberg"])
    assert out.read_text(encoding="utf-8") == text


OUTPUT_OPTIONS = [
    (["solve-defender", "--out"], "--out"),
    (["baselines", "--samples", "1", "--out"], "--out"),
]


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines"])
def test_output_file_in_missing_directory_exits_1_before_solving(tmp_path, capsys, argv, option):
    target = tmp_path / "absent" / "out.txt"
    assert run_cli([*argv, str(target)]) == 1
    captured = capsys.readouterr()
    # every command prints its result before writing the file
    assert captured.out == ""
    assert captured.err == f"error: {option}: directory {target.parent} does not exist\n"


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines"])
def test_output_file_that_is_a_directory_exits_1(tmp_path, capsys, argv, option):
    assert run_cli([*argv, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: {tmp_path} is a directory\n"


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines"])
def test_unwritable_output_file_exits_1(tmp_path, capsys, argv, option):
    # the directory exists, so only the write itself fails
    target = tmp_path / ("x" * 300)
    assert run_cli([*argv, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {option}: cannot write {target}: ")
    assert "internal error" not in err


def test_output_directory_that_cannot_be_made_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out_dir = blocker / "sub"
    code = run_cli(["solve-robust", "--budgets", "11,15", "--matrices", "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out-dir: cannot create {out_dir}: ")


def test_unwritable_matrix_file_exits_1(tmp_path, capsys):
    (tmp_path / "regret_matrix.csv").mkdir()
    code = run_cli(["solve-robust", "--budgets", "11,15", "--matrices", "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: --out-dir: cannot write {tmp_path / 'regret_matrix.csv'}: ")


@pytest.mark.parametrize("case", ["no-algorithms", "negative-budget"])
def test_rejected_input_leaves_no_output_directory(tmp_path, capsys, case):
    # the scenario and --budgets are read before --out-dir is made
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    budgets = "5,-1"
    if case == "no-algorithms":
        del payload["algorithms"]
        budgets = "11,15"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["solve-robust", "--scenario", str(scenario), "--budgets", budgets]
    assert run_cli([*argv, "--matrices", "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out_dir.exists()


def test_infeasible_scenario_exit_code(tmp_path, capsys, instance):
    path = tmp_path / "tight.json"
    tight = replace(instance, budgets=replace(instance.budgets, r_min=0.9))
    save_scenario(tight, path)
    code = run_cli(["solve-defender", "--scenario", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "infeasible" in captured.err


def test_unbounded_lp_exit_code(monkeypatch, capsys):
    # InfeasibleDefender is a NotOptimal; any other NotOptimal exits 3
    core, _ = cryptomix.lp._highs()
    unbounded = cryptomix.lp._Run(core.HighsModelStatus.kUnbounded, 0)
    monkeypatch.setattr(cryptomix.lp, "linprog", lambda model: unbounded)
    code = run_cli(["solve-defender"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == "internal error: defender LP ended with status 'unbounded'\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2", encoding="utf-8")
    assert run_cli(["validate", "--scenario", str(path)]) == 1
    assert run_cli(["validate", "--scenario", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_repeated_key_exit_code(tmp_path, capsys):
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    text = json.dumps(payload).replace('"budget": 40.0', '"budget": 1000000000.0, "budget": 40.0')
    path = tmp_path / "repeated.json"
    path.write_text(text, encoding="utf-8")
    assert run_cli(["solve-defender", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "attacker: duplicate field 'budget'" in captured.err


def test_usage_errors(capsys):
    assert run_cli(["solve-defender", "--nope"]) == 1
    assert run_cli(["no-such-command"]) == 1
    assert run_cli(["calibrate"]) == 1
    assert run_cli([]) == 1
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, edit, path",
    [
        (
            "validate",
            lambda p: p["algorithms"][0]["attacks"][0].update(cost=float("nan")),
            "algorithms[0].attacks[0].cost",
        ),
        (
            "solve-defender",
            lambda p: p["algorithms"][0]["attacks"][0].update(cost=float("nan")),
            "algorithms[0].attacks[0].cost",
        ),
        (
            "solve-defender",
            lambda p: p["attacker"].update(budget=float("inf")),
            "attacker.budget",
        ),
    ],
)
def test_non_finite_input_exit_code(tmp_path, capsys, command, edit, path):
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    edit(payload)
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli([command, "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert path in captured.err
    assert "finite" in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["solve-attacker", "--algorithm", "aes256-gcm", "--budget", "inf"], "--budget"),
        (["solve-attacker", "--algorithm", "aes256-gcm", "--budget", "nan"], "--budget"),
        (["solve-attacker", "--algorithm", "aes256-gcm", "--value", "nan"], "--value"),
        (["solve-defender", "--budget", "inf"], "--budget"),
        (["solve-defender", "--budget=-inf"], "--budget"),
        (["solve-robust", "--budgets", "nan,20"], "--budgets"),
        (["solve-robust", "--budgets", "11,inf"], "--budgets"),
        (["solve-attacker", "--algorithm", "aes256-gcm", "--value=-inf"], "--value"),
        (["solve-attacker", "--algorithm", "aes256-gcm", "--budget", "abc"], "--budget"),
        (["solve-attacker", "--algorithm", "aes256-gcm", "--value", "x"], "--value"),
        (["solve-robust", "--budgets", "11,x"], "--budgets"),
        (["solve-robust", "--budgets", "11,"], "--budgets"),
    ],
)
def test_non_finite_options_exit_code(capsys, argv, option):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a finite number" in captured.err


def test_a_seed_that_is_not_an_integer_exits_1(capsys):
    assert run_cli(["solve-attacker", "--algorithm", "aes256-gcm", "--seed", "abc"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected a non-negative integer, got 'abc'" in captured.err


def test_solve_robust_without_any_budgets_exits_1(tmp_path, capsys):
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    del payload["scenario_budgets"]
    scenario = tmp_path / "no_budgets.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["solve-robust", "--scenario", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no scenario budgets: pass --budgets or add scenario_budgets\n"


@pytest.mark.parametrize("command", ["validate", "solve-defender", "solve-robust"])
def test_the_default_scenario_is_the_bundled_path(capsys, command):
    assert run_cli([command]) == 0
    default = capsys.readouterr().out
    assert run_cli([command, "--scenario", str(bundled_scenario_path())]) == 0
    assert capsys.readouterr().out == default


def test_an_empty_scenario_path_does_not_fall_back_to_the_bundled_file(capsys):
    assert run_cli(["validate", "--scenario", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read : ")


@pytest.mark.parametrize(
    "command", ["solve-attacker", "solve-defender", "solve-robust", "baselines", "validate"]
)
def test_help_names_the_bundled_scenario(monkeypatch, capsys, command):
    # argparse wraps help to the terminal width, and would split the name if narrow
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli([command, "--help"]) == 0
    assert "reference_scenario.json" in capsys.readouterr().out


def test_overflowing_budget_goes_to_the_greedy(capsys):
    # budget * scale overflows to inf: no DP table holds it
    attacker = ["solve-attacker", "--algorithm", "aes256-gcm", "--budget", "1e308"]
    assert run_json(capsys, attacker)["solver"] == "greedy"
    defender = run_json(capsys, ["solve-defender", "--budget", "1e308"])
    assert {a["solver"] for a in defender["attacks"]} == {"greedy"}
    robust = run_json(capsys, ["solve-robust", "--budgets", "11,1e308"])
    assert robust["budgets"] == [11.0, 1e308]
    assert run_cli([*attacker, "--solver", "dp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "table cells" in captured.err


def test_algorithm_without_methods_at_a_huge_budget_exits_0(tmp_path, capsys):
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    payload["algorithms"][7]["attacks"] = []
    scenario = tmp_path / "emptied.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    emptied = payload["algorithms"][7]["id"]
    report = run_json(capsys, ["solve-defender", "--scenario", str(scenario), "--budget", "1e300"])
    row = next(a for a in report["attacks"] if a["algorithm"] == emptied)
    assert (row["solver"], row["plan"]["methods"]) == ("greedy", [])
    robust = run_json(capsys, ["solve-robust", "--scenario", str(scenario), "--budgets", "11,1e300"])
    assert robust["budgets"] == [11.0, 1e300]


def test_overflowing_method_cost_is_never_taken(tmp_path, capsys):
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    costly = payload["algorithms"][0]["attacks"][0]
    costly["cost"] = 1e308
    scenario = tmp_path / "costly.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    report = run_json(capsys, ["solve-defender", "--scenario", str(scenario)])
    assert {a["solver"] for a in report["attacks"]} == {"dp"}
    assert all(costly["id"] not in a["plan"]["methods"] for a in report["attacks"])


HUGE_BUDGET_ATTACKER = ["solve-attacker", "--algorithm", "aes128-gcm", "--budget", "1e300"]


@pytest.mark.parametrize(
    "cost, argv",
    [
        (1e155, ["solve-robust", "--mode", "unconstrained"]),
        (1e200, [*HUGE_BUDGET_ATTACKER, "--solver", "brute"]),
        (1e200, [*HUGE_BUDGET_ATTACKER, "--solver", "hybrid"]),
    ],
    ids=["unconstrained", "brute", "hybrid"],
)
def test_a_cost_whose_square_overflows_answers(tmp_path, capsys, cost, argv):
    # phi squares the total cost; past about 1.34e154 the square is inf
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    payload["algorithms"][0]["attacks"][0]["cost"] = cost
    scenario = tmp_path / "costly.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli([*argv, "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().err == ""


def test_a_highs_model_error_is_not_reported_as_an_empty_polytope(tmp_path, capsys):
    # HiGHS refuses a coefficient of 1e15, though this polytope has points
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    for alg in payload["algorithms"]:
        alg["cpu_cost"] = 1e15
    payload["budgets"]["c_cpu_max"] = 1e16
    scenario = tmp_path / "huge_cpu.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["solve-defender", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: defender LP not solved: HiGHS reports a model error\n"


@pytest.mark.parametrize("e", [-10, -11, -12])
def test_a_point_over_a_cap_in_small_units_is_an_internal_error(tmp_path, capsys, e):
    # latency in units of 10^e, with its cap binding at t_max 150: HiGHS
    # drops coefficients below 1e-9 and answers 1.6% or 38% over the cap,
    # which an absolute row tolerance of 3.16e-4 let through at exit 0
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    for alg in payload["algorithms"]:
        alg["latency"] *= 10.0**e
    payload["budgets"]["t_max"] = 150 * 10.0**e
    payload["weights"]["g_tau"] /= 10.0**e
    scenario = tmp_path / "small_latency.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["solve-defender", "--scenario", str(scenario)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "internal error: LP solver failed: its optimal point breaks a bound or row"
    )


def scenario_of_value(tmp_path, value):
    """The bundled scenario with every protected_value at value."""
    payload = json.loads(bundled_scenario_path().read_text(encoding="utf-8"))
    for alg in payload["algorithms"]:
        alg["protected_value"] = value
    scenario = tmp_path / f"valued-{value:g}.json"
    scenario.write_text(json.dumps(payload), encoding="utf-8")
    return str(scenario)


@pytest.mark.parametrize("value", [316227766016837.94, 1e21, 1e300])
def test_huge_utilities_solve_the_defender_lp(tmp_path, capsys, value):
    # utilities this large once ended in kNotset or kUnknown (exit 3):
    # HiGHS takes a cost of 1e20 or more as infinite, and fails on some
    # from about 1e11 on, such as 10^14.5 here; the LP layer hands it such
    # a cost scaled by a power of two
    argv = ["solve-defender", "--scenario"]
    small = run_json(capsys, [*argv, scenario_of_value(tmp_path, 1e9)])
    huge = run_json(capsys, [*argv, scenario_of_value(tmp_path, value)])
    assert huge["strategy"] == small["strategy"]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("value", [1e21, 1e300])
@pytest.mark.parametrize("mode, lp", [("regret", "minimax-regret LP"), ("maximin", "maximin LP")])
def test_huge_utilities_still_stop_the_epigraph_lps(tmp_path, capsys, value, mode, lp):
    # the scenario LPs solve, but the epigraph LPs carry the utilities as
    # coefficients, past HiGHS's large_matrix_value (1e15), which only
    # scaling their rows would mend
    scenario = scenario_of_value(tmp_path, value)
    assert run_cli(["solve-robust", "--mode", mode, "--scenario", scenario]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {lp} not solved: HiGHS reports a model error\n"


# scipy's HiGHS extension and the submodules its bindings register
_HIGHS_MODULES = {
    "scipy.optimize._highspy._core",
    "scipy.optimize._highspy._core.cb",
    "scipy.optimize._highspy._core.simplex_constants",
}


def test_cli_import_leaves_scipy_unloaded():
    # the LP layer loads only scipy's HiGHS extension: neither the scipy
    # package nor scipy.optimize
    assert not {m for m in _modules_after(None) if m.split(".")[0] == "scipy"}
    commands = [["solve-defender"], ["solve-robust", "--mode", "regret"], ["baselines", "--samples", "2"]]
    for argv in commands:
        loaded = {m for m in _modules_after(argv) if m.split(".")[0] == "scipy"}
        assert loaded == _HIGHS_MODULES, argv


def test_without_scipy_only_the_lp_commands_fail_and_name_the_floor():
    # a fresh interpreter whose import system finds no scipy
    script = """
import contextlib, io, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
import cryptomix.cli

for argv in (["validate"], ["solve-attacker", "--algorithm", "aes256-gcm"], ["solve-defender"]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cryptomix.cli.run_cli(argv)
    print(argv[0], code, err.getvalue(), end="|")
"""
    assert run_python(script).split("|") == [
        "validate 0 ",
        "solve-attacker 0 ",
        "solve-defender 3 internal error: solve_lp needs scipy >= 1.15"
        " (scipy.optimize._highspy); No module named 'scipy'\n",
        "",
    ]


def _modules_after(argv, code: int = 0) -> set:
    """The modules a fresh interpreter holds after `import cryptomix.cli`
    and, unless argv is None, one run_cli(argv) that returns code."""
    script = "import contextlib, io, sys, cryptomix.cli\n"
    if argv is not None:
        script += (
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
            f"    assert cryptomix.cli.run_cli({argv!r}) == {code}\n"
        )
    script += "print(*sys.modules)"
    return set(run_python(script).split())


def test_validate_and_help_leave_numpy_unloaded(tmp_path):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{", encoding="utf-8")
    for argv, code in [
        (["validate"], 0),
        (["--help"], 0),
        (["validate", "--scenario", str(malformed)], 1),
    ]:
        assert "numpy" not in _modules_after(argv, code), argv


def test_solve_attacker_leaves_the_lp_layers_unloaded():
    loaded = _modules_after(["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "dp"])
    layers = {
        "cryptomix.lp",
        "cryptomix.defender",
        "cryptomix.robust",
        "cryptomix.baselines",
        "scipy.optimize._highspy._core",
    }
    assert "cryptomix.attacker" in loaded
    assert not loaded & layers


def test_cli_import_loads_no_solver_layer():
    # a solver import at the top of cli.py would show here
    loaded = {m for m in _modules_after(None) if m.split(".")[0] == "cryptomix"}
    assert loaded == {
        "cryptomix",
        "cryptomix.cli",
        "cryptomix.errors",
        "cryptomix.io",
        "cryptomix.model",
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "dp", "--scale", "0"],
            "argument --scale: expected a positive integer, got '0'",
        ),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "dp", "--scale", "-1"],
            "argument --scale: expected a positive integer, got '-1'",
        ),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "greedy"]
            + ["--seed", "-1"],
            "argument --seed: expected a non-negative integer, got '-1'",
        ),
        (["baselines", "--seed", "-1"], "argument --seed: expected a non-negative integer"),
        (["solve-robust", "--budgets", "30,20"], "--budgets: scenario budgets must be strictly"),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--scale", "1" + "0" * 400],
            "argument --scale: expected a positive integer within float range",
        ),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "greedy", "--budget", "-1"],
            "argument --budget: expected a non-negative number, got '-1'",
        ),
        (["solve-defender", "--budget=-0.5"], "argument --budget: expected a non-negative number"),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--value", "0"],
            "argument --value: expected a positive number, got '0'",
        ),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--value", "-5"],
            "argument --value: expected a positive number, got '-5'",
        ),
        (
            ["solve-attacker", "--algorithm", "aes256-gcm", "--scale", "1.5"],
            "argument --scale: expected a positive integer, got '1.5'",
        ),
        (["baselines", "--samples", "abc"], "argument --samples: expected a non-negative integer"),
    ],
    ids=[
        "scale-0",
        "scale-negative",
        "seed-negative",
        "baselines-seed",
        "budgets",
        "scale-overflow",
        "budget-negative",
        "defender-budget-negative",
        "value-0",
        "value-negative",
        "scale-not-an-integer",
        "samples-not-an-integer",
    ],
)
def test_bad_option_values_exit_code(capsys, argv, message):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_solver_fault_is_internal_error(monkeypatch, capsys, error):
    def broken_solver(instance):
        raise error("solver bug")

    # the subcommand reads its solver from the package when it runs, so it
    # finds the patch
    monkeypatch.setattr("cryptomix.solve_stackelberg", broken_solver)
    assert run_cli(["solve-defender"]) == 3
    assert "internal error" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_attacker_fault_is_internal_error(monkeypatch, capsys, error):
    def broken_solver(algorithm, params, config):
        raise error("solver bug")

    monkeypatch.setattr("cryptomix.solve_dp", broken_solver)
    assert run_cli(["solve-attacker", "--algorithm", "aes256-gcm", "--solver", "dp"]) == 3
    assert "internal error" in capsys.readouterr().err


@pytest.fixture
def gc_state():
    """Restores the collector's on/off state after the test."""
    enabled = gc.isenabled()
    yield
    gc.enable() if enabled else gc.disable()


def test_main_turns_the_collector_off_and_run_cli_does_not(monkeypatch, capsys, gc_state):
    monkeypatch.setattr(sys, "argv", ["cryptomix", "validate"])
    gc.enable()
    with pytest.raises(SystemExit) as stop:
        main()
    assert stop.value.code == 0
    assert not gc.isenabled()
    for enabled in (True, False):
        gc.enable() if enabled else gc.disable()
        assert run_cli(["validate"]) == 0
        assert gc.isenabled() is enabled
    capsys.readouterr()


GARBAGE_COMMANDS = [
    ["validate"],
    *(
        ["solve-attacker", "--algorithm", "aes256-gcm", "--solver", solver]
        for solver in ("dp", "greedy", "hybrid")
    ),
    ["solve-defender"],
    *(["solve-robust", "--mode", mode] for mode in ("regret", "maximin", "unconstrained")),
    ["baselines", "--samples", "5"],
]


def test_the_garbage_of_a_run_does_not_grow_with_its_input(tmp_path, capsys, gc_state):
    # main() runs without the cyclic collector; that is safe because what
    # a run leaves unreachable does not grow with the scenario (measured:
    # 290 objects on both files, 257 for baselines)
    instance, scenarios = load_bundled_scenario()
    rng = np.random.default_rng(0)
    wide = replace(
        instance,
        algorithms=tuple(
            replace(alg, attacks=wide_methods(rng, n))
            for alg, n in zip(instance.algorithms, (25, 50, 100, 150, 200, 240, 300, 400))
        ),
    )
    path = tmp_path / "wide.json"
    save_scenario(wide, path, scenarios)
    gc.disable()

    def garbage(argv):
        gc.collect()
        assert run_cli(argv) == 0, capsys.readouterr().err
        return gc.collect()

    for argv in GARBAGE_COMMANDS:
        garbage(argv)  # the first run may load a layer
        bundled = garbage(argv)
        large = garbage(argv + ["--scenario", str(path)])
        assert large <= bundled + 20, (argv, bundled, large)
    capsys.readouterr()


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["validate", "solve-attacker"])
def test_a_closed_standard_output_exits_1(unbuffered, command):
    # before, a buffered run exited 120 with "Exception ignored ...
    # BrokenPipeError" and an unbuffered one exited 3 as an internal error
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [command] + (["--algorithm", "aes256-gcm"] if command == "solve-attacker" else [])
    proc = subprocess.Popen(
        [sys.executable, "-m", "cryptomix.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # before the child writes: it takes far longer to start
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1, err
    assert err == "error: cannot write standard output: the pipe is closed\n"
