import inspect
from pathlib import Path

import pytest

import cryptomix

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
    "strategy_usage",
    "success_probability",
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


def test_distribution_is_named_after_the_package():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "cryptomix"
    assert project["version"] == cryptomix.__version__
