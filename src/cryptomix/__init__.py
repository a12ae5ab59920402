"""Stackelberg solvers for mixing encryption algorithms against a
budget-constrained attacker: exact and sampled attacker subgames, the
defender LP, budget-uncertainty robustness, and baseline comparisons.

The package is lazy (PEP 562): `import cryptomix` loads no submodule. A
public name imports its home submodule on first access and is then kept
in the package's globals, so later lookups are plain attribute reads.
Submodules (`cryptomix.model`, `cryptomix.lp`, ...) resolve the same way.
_EXPORTS is the one declaration of the public surface; `__all__` and
`dir()` are read from it.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names whose home it is
_EXPORTS = {
    "attacker": (
        "HybridResult",
        "SolverConfig",
        "solve_brute_force",
        "solve_dp",
        "solve_hybrid",
        "solve_sample_greedy",
    ),
    "baselines": (
        "SINGLE_OBJECTIVES",
        "ComparisonRow",
        "compare_strategies",
        "comparison_csv",
        "random_vertex_strategy",
        "single_objective_strategy",
    ),
    "defender": (
        "AlgorithmEvaluation",
        "EquilibriumResult",
        "StrategyReport",
        "build_defender_lp",
        "defender_polytope",
        "evaluate_all",
        "evaluate_budgets",
        "expected_breach",
        "make_report",
        "per_algorithm_utility",
        "solve_stackelberg",
    ),
    "errors": (
        "BudgetNegative",
        "CryptomixError",
        "InfeasibleDefender",
        "NotOptimal",
        "OutputPathError",
        "ParseError",
        "TableTooLarge",
        "TooManyMethods",
        "ValidationError",
    ),
    "io": (
        "SCHEMA_VERSION",
        "bundled_scenario_path",
        "load_bundled_scenario",
        "load_scenario",
        "parse_scenario",
        "save_scenario",
        "scenario_payload",
    ),
    "lp": (
        "Constraint",
        "LinearProgram",
        "LpSolution",
        "alternate_optimum_gap",
        "check_dual_certificate",
        "solve_lp",
    ),
    "model": (
        "AttackMethod",
        "AttackPlan",
        "AttackerParams",
        "CostFunctionSpec",
        "DefenderBudgets",
        "DefenderWeights",
        "EncryptionAlgorithm",
        "GameInstance",
        "MixedStrategy",
        "ScenarioSet",
        "ValidationReport",
        "make_plan",
        "phi",
        "plan_key",
        "validate_instance",
    ),
    "robust": (
        "MatrixReport",
        "RegretReport",
        "ScenarioTable",
        "breach_regret_matrix",
        "build_regret_lp",
        "regret_matrix",
        "scenario_table",
        "solve_maximin",
        "solve_minimax_regret",
        "solve_unconstrained_case",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_EXPORTS})
