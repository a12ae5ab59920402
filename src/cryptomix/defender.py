"""Defender side: best-response evaluation per algorithm, the resource
polytope, and the leader LP that picks the mixed deployment strategy.

Variable order everywhere matches instance.algorithms order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .attacker import hybrid_plans
from .lp import Constraint, LinearProgram, LpSolution, solve_lp
from .model import (
    COSTS,
    AttackPlan,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    MixedStrategy,
    _weighted_sum,
)

# the labels of the polytope rows after the simplex, in order
USAGE_KEYS = tuple(cost.key for cost in COSTS) + ("resilience",)


@dataclass(frozen=True)
class AlgorithmEvaluation:
    """Attacker best response against one algorithm, and the defender's
    resulting per-algorithm utility."""

    algorithm_id: str
    attack_plan: AttackPlan
    p_succ_star: float
    utility: float
    solver: str


@dataclass(frozen=True)
class StrategyReport:
    strategy: MixedStrategy
    objective: float
    usage: dict[str, float]
    expected_breach: float
    support_size: int
    binding_labels: tuple[str, ...]


@dataclass(frozen=True)
class EquilibriumResult:
    report: StrategyReport
    evaluations: tuple[AlgorithmEvaluation, ...]
    program: LinearProgram
    solution: LpSolution


def per_algorithm_utility(
    algorithm: EncryptionAlgorithm, weights: DefenderWeights, p_succ_star: float
) -> float:
    """Retained value net of weighted resource costs, given the attacker's
    breach probability against this algorithm; the costs are subtracted in
    COSTS order, then the resilience gain is added."""
    utility = algorithm.protected_value * (1.0 - p_succ_star)
    for cost in COSTS:
        utility -= getattr(weights, cost.weight) * getattr(algorithm, cost.field)
    return utility + weights.g_r * algorithm.resilience


def _evaluation(
    algorithm: EncryptionAlgorithm, weights: DefenderWeights, plan: AttackPlan, solver: str
) -> AlgorithmEvaluation:
    return AlgorithmEvaluation(
        algorithm_id=algorithm.id,
        attack_plan=plan,
        p_succ_star=plan.success_prob,
        utility=per_algorithm_utility(algorithm, weights, plan.success_prob),
        solver=solver,
    )


def evaluate_all(instance: GameInstance) -> tuple[AlgorithmEvaluation, ...]:
    """Best-respond against every algorithm at the attacker's budget."""
    return evaluate_budgets(instance, (instance.attacker.budget,))[0]


def evaluate_budgets(
    instance: GameInstance, budgets: Sequence[float]
) -> tuple[tuple[AlgorithmEvaluation, ...], ...]:
    """Best responses at each attacker budget, one row per budget, each
    bitwise what solve_hybrid returns at that budget: hybrid_plans answers
    every budget of one algorithm at once."""
    columns = []
    for alg in instance.algorithms:
        results = hybrid_plans(alg, instance.attacker, budgets)
        columns.append([_evaluation(alg, instance.weights, r.plan, r.solver) for r in results])
    return tuple(tuple(col[s] for col in columns) for s in range(len(budgets)))


def defender_polytope(instance: GameInstance) -> tuple[Constraint, ...]:
    """Labeled constraints of the feasible deployment region: simplex,
    one cap per row of COSTS, a resilience floor, and one cap per family.

    Built once per instance and kept on it, as the instance is frozen down
    to its family caps, so every LP over one instance shares the tuple and
    finds its cached model by identity (lp._prebuilt_for)."""
    polytope = vars(instance).get("_polytope")
    if polytope is not None:
        return polytope
    algs = instance.algorithms
    n = len(algs)
    b = instance.budgets
    cons = [Constraint((1.0,) * n, "=", 1.0, "simplex")]
    for cost in COSTS:
        row = tuple(getattr(a, cost.field) for a in algs)
        cons.append(Constraint(row, "<=", getattr(b, cost.cap), cost.key))
    cons.append(Constraint(tuple(a.resilience for a in algs), ">=", b.r_min, "resilience"))
    for fam in sorted({a.family for a in algs}):
        row = tuple(1.0 if a.family == fam else 0.0 for a in algs)
        cons.append(Constraint(row, "<=", b.cap(fam), f"family:{fam}"))
    polytope = tuple(cons)
    # threads racing to the first call may each build one; all are equal
    object.__setattr__(instance, "_polytope", polytope)
    return polytope


def build_defender_lp(
    instance: GameInstance, utilities: Sequence[float]
) -> LinearProgram:
    return LinearProgram(
        sense="max",
        objective=tuple(utilities),
        constraints=defender_polytope(instance),
    )


def _usage(instance: GameInstance, probs: tuple[float, ...]) -> dict[str, float]:
    """Expected use of each resource: each polytope row after the simplex."""
    rows = defender_polytope(instance)[1 : len(USAGE_KEYS) + 1]
    return {con.label: _weighted_sum(probs, con.coeffs) for con in rows}


def expected_breach(probs: Sequence[float], breach: Sequence[float]) -> float:
    """The strategy's breach probability: probs against the per-algorithm
    breach, summed by the one strategy-sum loop (model._weighted_sum)."""
    return _weighted_sum(probs, breach)


def _strategy_report(
    instance: GameInstance,
    strategy: MixedStrategy,
    objective: float,
    breach: float,
    binding_labels: Sequence[str],
) -> StrategyReport:
    """The one StrategyReport constructor, for an objective and breach the
    caller has worked out."""
    return StrategyReport(
        strategy=strategy,
        objective=objective,
        usage=_usage(instance, strategy.probs),
        expected_breach=breach,
        support_size=len(strategy.support()),
        binding_labels=tuple(binding_labels),
    )


def make_report(
    instance: GameInstance,
    probs: Sequence[float],
    evaluations: Sequence[AlgorithmEvaluation],
    binding_labels: Sequence[str] = (),
) -> StrategyReport:
    """Assemble the standard summary for an arbitrary mixed strategy; a
    non-finite entry raises ValueError."""
    strategy = MixedStrategy(probs)
    objective = _weighted_sum(strategy.probs, [ev.utility for ev in evaluations])
    breach = expected_breach(strategy.probs, [ev.p_succ_star for ev in evaluations])
    return _strategy_report(instance, strategy, objective, breach, binding_labels)


def _solve_leader(
    instance: GameInstance, evaluations: Sequence[AlgorithmEvaluation], context: str
) -> EquilibriumResult:
    """The leader LP over the given attacker responses; `context` names the
    program in the InfeasibleDefender or NotOptimal that solve_lp raises."""
    program = build_defender_lp(instance, [ev.utility for ev in evaluations])
    solution = solve_lp(program, context)
    return EquilibriumResult(
        report=make_report(instance, solution.values, evaluations, solution.binding),
        evaluations=tuple(evaluations),
        program=program,
        solution=solution,
    )


def solve_stackelberg(instance: GameInstance) -> EquilibriumResult:
    """Attacker best responses per algorithm, then the leader LP."""
    return _solve_leader(instance, evaluate_all(instance), "defender LP")
