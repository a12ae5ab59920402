"""Baseline defender strategies for comparison against the equilibrium:
random feasible vertices and single-criterion optimizers, all evaluated
against the same fixed attacker best responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .defender import (
    AlgorithmEvaluation,
    StrategyReport,
    _solve_leader,
    defender_polytope,
    make_report,
)
from .lp import LinearProgram, solve_lp
from .model import GameInstance, MixedStrategy

SINGLE_OBJECTIVES = ("min_op_cost", "min_latency", "max_resilience")


@dataclass(frozen=True)
class ComparisonRow:
    label: str
    report: StrategyReport

    def csv_line(self) -> str:
        r = self.report
        u = r.usage
        fields = (
            r.objective,
            r.expected_breach,
            u["op"],
            u["cpu"],
            u["mem"],
            u["latency"],
            u["resilience"],
        )
        return self.label + "," + ",".join(repr(v) for v in fields)


def _solve_over_polytope(
    instance: GameInstance, sense: str, objective: Sequence[float]
) -> MixedStrategy:
    program = LinearProgram(
        sense=sense,
        objective=tuple(objective),
        constraints=defender_polytope(instance),
    )
    return MixedStrategy(probs=solve_lp(program, "baseline LP").values)


def random_vertex_strategy(instance: GameInstance, rng_seed: int) -> MixedStrategy:
    """Vertex of the feasible region minimizing a standard-normal random
    objective drawn from rng_seed."""
    rng = np.random.default_rng(rng_seed)
    coeffs = rng.standard_normal(len(instance.algorithms))
    return _solve_over_polytope(instance, "min", tuple(float(c) for c in coeffs))


def single_objective_strategy(instance: GameInstance, objective: str) -> MixedStrategy:
    algs = instance.algorithms
    if objective == "min_op_cost":
        return _solve_over_polytope(instance, "min", [a.op_cost for a in algs])
    if objective == "min_latency":
        return _solve_over_polytope(instance, "min", [a.latency for a in algs])
    if objective == "max_resilience":
        return _solve_over_polytope(instance, "max", [a.resilience for a in algs])
    raise ValueError(f"unknown objective {objective!r}; expected one of {SINGLE_OBJECTIVES}")


def compare_strategies(
    instance: GameInstance,
    strategies: Sequence[tuple[str, Sequence[float]]],
    evaluations: Sequence[AlgorithmEvaluation],
) -> list[ComparisonRow]:
    """Score labeled strategies against the fixed attacker best responses
    in `evaluations` (evaluate_all's) and return rows sorted by objective,
    best first. A 'stackelberg' reference row is always included."""
    leader = _solve_leader(instance, evaluations, "defender LP")
    rows = [ComparisonRow("stackelberg", leader.report)]
    for label, probs in strategies:
        rows.append(ComparisonRow(label, make_report(instance, probs, evaluations)))
    rows.sort(key=lambda row: (-row.report.objective, row.label))
    return rows


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    header = "label,objective,breach,op,cpu,mem,latency,resilience"
    return "\n".join([header] + [row.csv_line() for row in rows]) + "\n"
