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
    AttackPlan,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    MixedStrategy,
)

USAGE_KEYS = ("op", "cpu", "mem", "latency", "resilience")


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
    breach probability against this algorithm."""
    return (
        algorithm.protected_value * (1.0 - p_succ_star)
        - weights.g_op * algorithm.op_cost
        - weights.g_cpu * algorithm.cpu_cost
        - weights.g_mem * algorithm.mem_cost
        - weights.g_tau * algorithm.latency
        + weights.g_r * algorithm.resilience
    )


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
    four resource caps, a resilience floor, and one cap per family."""
    algs = instance.algorithms
    n = len(algs)
    b = instance.budgets
    cons = [
        Constraint((1.0,) * n, "=", 1.0, "simplex"),
        Constraint(tuple(a.op_cost for a in algs), "<=", b.c_op_max, "op"),
        Constraint(tuple(a.cpu_cost for a in algs), "<=", b.c_cpu_max, "cpu"),
        Constraint(tuple(a.mem_cost for a in algs), "<=", b.c_mem_max, "mem"),
        Constraint(tuple(a.latency for a in algs), "<=", b.t_max, "latency"),
        Constraint(tuple(a.resilience for a in algs), ">=", b.r_min, "resilience"),
    ]
    for fam in sorted({a.family for a in algs}):
        row = tuple(1.0 if a.family == fam else 0.0 for a in algs)
        cons.append(Constraint(row, "<=", instance.budgets.cap(fam), f"family:{fam}"))
    return tuple(cons)


def build_defender_lp(
    instance: GameInstance, utilities: Sequence[float]
) -> LinearProgram:
    return LinearProgram(
        sense="max",
        objective=tuple(utilities),
        constraints=defender_polytope(instance),
    )


def strategy_usage(instance: GameInstance, probs: Sequence[float]) -> dict[str, float]:
    algs = instance.algorithms
    usage = {key: 0.0 for key in USAGE_KEYS}
    for p, a in zip(probs, algs):
        usage["op"] += p * a.op_cost
        usage["cpu"] += p * a.cpu_cost
        usage["mem"] += p * a.mem_cost
        usage["latency"] += p * a.latency
        usage["resilience"] += p * a.resilience
    return usage


def expected_breach(
    probs: Sequence[float], breach: Sequence[float]
) -> float:
    return float(sum(p * b for p, b in zip(probs, breach)))


def _strategy_report(
    instance: GameInstance,
    probs: Sequence[float],
    objective: float,
    breach: float,
    binding_labels: Sequence[str],
) -> StrategyReport:
    """The one StrategyReport constructor, for an objective and breach the
    caller has worked out."""
    strategy = MixedStrategy(probs=tuple(float(p) for p in probs))
    return StrategyReport(
        strategy=strategy,
        objective=objective,
        usage=strategy_usage(instance, strategy.probs),
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
    """Assemble the standard summary for an arbitrary mixed strategy."""
    probs = tuple(float(p) for p in probs)
    objective = float(sum(p * ev.utility for p, ev in zip(probs, evaluations)))
    breach = expected_breach(probs, [ev.p_succ_star for ev in evaluations])
    return _strategy_report(instance, probs, objective, breach, binding_labels)


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
