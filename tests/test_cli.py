import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import cryptomix
from cryptomix import bundled_scenario_path, save_scenario
from cryptomix.cli import run_cli


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


def test_calibrate(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    payload = run_json(
        capsys,
        ["calibrate", "--time-limit", "0.0", "--max-methods", "3", "--csv", str(csv_path)],
    )
    assert payload["threshold"] == 1
    assert payload["series_length"] == 1
    lines = csv_path.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "n,seconds"
    assert len(lines) == 2


OUTPUT_OPTIONS = [
    (["solve-defender", "--out"], "--out"),
    (["baselines", "--samples", "1", "--out"], "--out"),
    (["calibrate", "--max-methods", "1", "--csv"], "--csv"),
]


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines", "calibrate"])
def test_output_file_in_missing_directory_exits_1_before_solving(tmp_path, capsys, argv, option):
    target = tmp_path / "absent" / "out.txt"
    assert run_cli([*argv, str(target)]) == 1
    captured = capsys.readouterr()
    # every command prints its result before writing the file
    assert captured.out == ""
    assert captured.err == f"error: {option}: directory {target.parent} does not exist\n"


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines", "calibrate"])
def test_output_file_that_is_a_directory_exits_1(tmp_path, capsys, argv, option):
    assert run_cli([*argv, str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option}: {tmp_path} is a directory\n"


@pytest.mark.parametrize("argv, option", OUTPUT_OPTIONS, ids=["defender", "baselines", "calibrate"])
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


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("[1, 2", encoding="utf-8")
    assert run_cli(["validate", "--scenario", str(path)]) == 1
    assert run_cli(["validate", "--scenario", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_usage_errors(capsys):
    assert run_cli(["solve-defender", "--nope"]) == 1
    assert run_cli(["no-such-command"]) == 1
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
        (["calibrate", "--time-limit", "nan"], "--time-limit"),
    ],
)
def test_non_finite_options_exit_code(capsys, argv, option):
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: expected a finite number" in captured.err


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize loads on the first LP, so commands without one skip it
    src = str(Path(cryptomix.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cryptomix.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


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
        (["calibrate", "--max-methods", "0"], "argument --max-methods: expected a positive integer"),
        (["solve-robust", "--budgets", "30,20"], "--budgets: scenario budgets must be strictly"),
    ],
    ids=["scale-0", "scale-negative", "seed-negative", "baselines-seed", "max-methods-0", "budgets"],
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
