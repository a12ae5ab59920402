import json
from dataclasses import replace

import pytest

import cryptomix.lp
from cryptomix import bundled_scenario_path, save_scenario
from cryptomix.cli import run_cli
from helpers import run_python


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
    ],
)
def test_non_finite_options_exit_code(capsys, argv, option):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a finite number" in captured.err


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


def test_cli_import_leaves_scipy_unloaded():
    # the LP layer loads only scipy's HiGHS extension, never scipy.optimize
    commands = [["solve-defender"], ["solve-robust", "--mode", "regret"], ["baselines", "--samples", "2"]]
    for argv in [None, *commands]:
        code = "import contextlib, io, sys, cryptomix.cli\n"
        if argv is not None:
            code += (
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert cryptomix.cli.run_cli({argv!r}) == 0\n"
            )
        code += "print('scipy.optimize' in sys.modules)"
        assert run_python(code).strip() == "False", argv


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

    monkeypatch.setattr("cryptomix.cli.solve_stackelberg", broken_solver)
    assert run_cli(["solve-defender"]) == 3
    assert "internal error" in capsys.readouterr().err
