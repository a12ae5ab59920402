"""Stackelberg solvers for mixing encryption algorithms against a
budget-constrained attacker: exact and sampled attacker subgames, the
defender LP, budget-uncertainty robustness, and baseline comparisons.
"""

from .attacker import (
    HybridResult,
    SolverConfig,
    solve_brute_force,
    solve_dp,
    solve_hybrid,
    solve_sample_greedy,
)
from .baselines import (
    SINGLE_OBJECTIVES,
    ComparisonRow,
    compare_strategies,
    comparison_csv,
    random_vertex_strategy,
    single_objective_strategy,
)
from .defender import (
    AlgorithmEvaluation,
    EquilibriumResult,
    StrategyReport,
    build_defender_lp,
    defender_polytope,
    evaluate_all,
    evaluate_budgets,
    expected_breach,
    make_report,
    per_algorithm_utility,
    solve_stackelberg,
    strategy_usage,
)
from .errors import (
    BudgetNegative,
    CryptomixError,
    InfeasibleDefender,
    NotOptimal,
    OutputPathError,
    ParseError,
    TableTooLarge,
    TooManyMethods,
    ValidationError,
)
from .io import (
    SCHEMA_VERSION,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
    parse_scenario,
    save_scenario,
    scenario_payload,
)
from .lp import (
    Constraint,
    LinearProgram,
    LpSolution,
    alternate_optimum_gap,
    check_dual_certificate,
    solve_lp,
)
from .model import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    CostFunctionSpec,
    DefenderBudgets,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    MixedStrategy,
    ScenarioSet,
    ValidationReport,
    make_plan,
    phi,
    plan_key,
    success_probability,
    validate_instance,
)
from .robust import (
    MatrixReport,
    RegretReport,
    ScenarioTable,
    breach_regret_matrix,
    build_regret_lp,
    regret_matrix,
    scenario_table,
    solve_maximin,
    solve_minimax_regret,
    solve_unconstrained_case,
)

__version__ = "0.1.0"
