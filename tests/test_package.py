import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import cryptomix
from helpers import run_python

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# every public name the package exports, submodules aside; a change to the
# package's surface shows here first
PUBLIC_NAMES = {
    "AlgorithmEvaluation",
    "AttackMethod",
    "AttackPlan",
    "AttackerParams",
    "BudgetNegative",
    "ComparisonRow",
    "Constraint",
    "CostFunctionSpec",
    "CryptomixError",
    "DefenderBudgets",
    "DefenderWeights",
    "EncryptionAlgorithm",
    "EquilibriumResult",
    "GameInstance",
    "HybridResult",
    "InfeasibleDefender",
    "LinearProgram",
    "LpSolution",
    "MatrixReport",
    "MixedStrategy",
    "NotOptimal",
    "OutputPathError",
    "ParseError",
    "RegretReport",
    "SCHEMA_VERSION",
    "SINGLE_OBJECTIVES",
    "ScenarioSet",
    "ScenarioTable",
    "SolverConfig",
    "StrategyReport",
    "TableTooLarge",
    "TooManyMethods",
    "ValidationError",
    "ValidationReport",
    "alternate_optimum_gap",
    "breach_regret_matrix",
    "build_defender_lp",
    "build_regret_lp",
    "bundled_scenario_path",
    "check_dual_certificate",
    "compare_strategies",
    "comparison_csv",
    "defender_polytope",
    "evaluate_all",
    "evaluate_budgets",
    "expected_breach",
    "load_bundled_scenario",
    "load_scenario",
    "make_plan",
    "make_report",
    "parse_scenario",
    "per_algorithm_utility",
    "phi",
    "plan_key",
    "random_vertex_strategy",
    "regret_matrix",
    "save_scenario",
    "scenario_payload",
    "scenario_table",
    "single_objective_strategy",
    "solve_brute_force",
    "solve_dp",
    "solve_hybrid",
    "solve_lp",
    "solve_maximin",
    "solve_minimax_regret",
    "solve_sample_greedy",
    "solve_stackelberg",
    "solve_unconstrained_case",
    "validate_instance",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(cryptomix)
        if not name.startswith("_") and not inspect.ismodule(getattr(cryptomix, name))
    }
    assert exported == PUBLIC_NAMES


def test_scenario_set_is_a_model_type():
    assert cryptomix.ScenarioSet is cryptomix.model.ScenarioSet


def test_every_public_name_is_its_home_module_object():
    # in a fresh interpreter, so that no earlier import fills a gap in the
    # package's name table
    out = run_python(
        "import importlib, cryptomix\n"
        f"for name in sorted({sorted(PUBLIC_NAMES)!r}):\n"
        "    value = getattr(cryptomix, name)\n"
        "    home = importlib.import_module('cryptomix.' + cryptomix._HOME[name])\n"
        "    assert value is getattr(home, name), name\n"
        "    assert getattr(value, '__module__', home.__name__) == home.__name__, name\n"
        "    assert vars(cryptomix)[name] is value, name\n"
        "print('ok')"
    )
    assert out.strip() == "ok"


def test_star_import_binds_exactly_the_public_names():
    out = run_python(
        "namespace = {}\n"
        "exec('from cryptomix import *', namespace)\n"
        "print(*sorted(set(namespace) - {'__builtins__'}))"
    )
    assert set(out.split()) == PUBLIC_NAMES


def test_import_loads_a_layer_on_first_use():
    out = run_python(
        "import sys, cryptomix\n"
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'cryptomix'))\n"
        "print(cryptomix.model.ScenarioSet.__name__, 'numpy' in sys.modules)"
    )
    assert out.splitlines() == ["cryptomix", "ScenarioSet False"]


def test_a_submodule_loads_on_first_use():
    out = run_python(
        "import sys, cryptomix\n"
        "print('cryptomix.lp' in sys.modules, 'lp' in vars(cryptomix))\n"
        "print(cryptomix.lp is sys.modules['cryptomix.lp'], vars(cryptomix)['lp'].__name__)"
    )
    assert out.splitlines() == ["False False", "True cryptomix.lp"]


def test_unknown_attribute_names_the_package():
    with pytest.raises(AttributeError, match="^module 'cryptomix' has no attribute 'nope'$"):
        cryptomix.nope


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "cryptomix"
    assert project["version"] == cryptomix.__version__


def test_a_failing_property_test_reports_its_example(tmp_path):
    # under the repo's filterwarnings, the deprecation warning that
    # hypothesis' report hook raises must not end the run in INTERNALERROR
    # before the falsifying example is printed
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n",
        encoding="utf-8",
    )
    command = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(PYPROJECT)]
    command += ["--rootdir", str(tmp_path), "test_fails.py"]
    result = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
