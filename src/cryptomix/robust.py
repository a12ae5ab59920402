"""Budget-uncertainty layer: per-scenario subgame tables, worst-case
(maximin) and minimax-regret strategies, and the regret comparison
matrices.

All scenario LPs share the defender polytope; scenario data is computed
once and reused so every report uses identical attack plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .defender import (
    AlgorithmEvaluation,
    StrategyReport,
    _evaluation,
    _solve_leader,
    _strategy_report,
    defender_polytope,
    evaluate_budgets,
    expected_breach,
)
from .lp import Constraint, LinearProgram, solve_lp
from .model import GameInstance, MixedStrategy, ScenarioSet, make_plan


@dataclass(frozen=True)
class ScenarioTable:
    """Per-scenario attacker responses and defender optima.

    Row s corresponds to budgets[s]: breach[s][i] is the attacker's
    optimal success probability against algorithm i, utilities[s][i] the
    defender's per-algorithm utility, optima[s] the scenario LP value,
    and optimal_breach[s] the smallest expected breach any feasible
    strategy can reach under that scenario's attack plans.
    """

    budgets: tuple[float, ...]
    utilities: tuple[tuple[float, ...], ...]
    breach: tuple[tuple[float, ...], ...]
    optima: tuple[float, ...]
    optimal_strategies: tuple[tuple[float, ...], ...]
    optimal_breach: tuple[float, ...]
    evaluations: tuple[tuple[AlgorithmEvaluation, ...], ...]


@dataclass(frozen=True)
class RegretReport:
    strategy: MixedStrategy
    per_scenario_regret: tuple[float, ...]
    max_regret: float


@dataclass(frozen=True)
class MatrixReport:
    """Labeled strategy-by-scenario matrix; the last column is the row max."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: tuple[tuple[float, ...], ...]

    def row(self, label: str) -> tuple[float, ...]:
        return self.cells[self.row_labels.index(label)]

    def as_csv(self) -> str:
        lines = ["strategy," + ",".join(self.col_labels)]
        for label, row in zip(self.row_labels, self.cells):
            lines.append(label + "," + ",".join(repr(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "columns": list(self.col_labels),
            "rows": [
                {"strategy": label, "values": list(row)}
                for label, row in zip(self.row_labels, self.cells)
            ],
        }


def _budget_label(k: float) -> str:
    return f"{k:g}"


def scenario_table(instance: GameInstance, scenarios: ScenarioSet) -> ScenarioTable:
    """Solve every (algorithm, budget) subgame, with one DP table per
    algorithm (see evaluate_budgets), and both per-scenario LPs."""
    utilities, breach, optima, strategies, min_breach, evals_all = [], [], [], [], [], []
    polytope = defender_polytope(instance)
    rows = evaluate_budgets(instance, scenarios.budgets)
    for k, evals in zip(scenarios.budgets, rows):
        util_row = tuple(ev.utility for ev in evals)
        breach_row = tuple(ev.p_succ_star for ev in evals)
        opt = solve_lp(LinearProgram("max", util_row, polytope), f"scenario k={k:g}: LP")
        low = solve_lp(LinearProgram("min", breach_row, polytope), f"scenario k={k:g}: breach LP")
        utilities.append(util_row)
        breach.append(breach_row)
        optima.append(opt.objective_value)
        strategies.append(opt.values)
        min_breach.append(low.objective_value)
        evals_all.append(evals)
    return ScenarioTable(
        budgets=scenarios.budgets,
        utilities=tuple(utilities),
        breach=tuple(breach),
        optima=tuple(optima),
        optimal_strategies=tuple(strategies),
        optimal_breach=tuple(min_breach),
        evaluations=tuple(evals_all),
    )


def _epigraph_lp(
    instance: GameInstance, sense: str, cuts: Sequence[tuple[tuple[float, ...], float, str]]
) -> LinearProgram:
    """Optimize t over (p, t), p in the defender polytope and t free in
    sign, subject to one `<=` row per cut: coefficients over (p, t), the
    right-hand side and the label."""
    n = len(instance.algorithms)
    cons = [
        Constraint(con.coeffs + (0.0,), con.relation, con.rhs, con.label)
        for con in defender_polytope(instance)
    ]
    cons += [Constraint(row, "<=", rhs, label) for row, rhs, label in cuts]
    return LinearProgram(
        sense=sense,
        objective=(0.0,) * n + (1.0,),
        constraints=tuple(cons),
        lower_bounds=(0.0,) * n + (None,),
    )


def solve_maximin(instance: GameInstance, table: ScenarioTable) -> StrategyReport:
    """max z subject to z <= sum_i p_i utilities[s][i] for every scenario.

    The reported objective is the worst-case value z; expected_breach is
    the worst case over scenarios as well.
    """
    cuts = [
        (tuple(-u for u in util_row) + (1.0,), 0.0, f"scenario:{_budget_label(k)}")
        for k, util_row in zip(table.budgets, table.utilities)
    ]
    solution = solve_lp(_epigraph_lp(instance, "max", cuts), "maximin LP")
    n = len(instance.algorithms)
    probs = solution.values[:n]
    worst_breach = max(expected_breach(probs, row) for row in table.breach)
    return _strategy_report(instance, probs, solution.values[n], worst_breach, solution.binding)


def build_regret_lp(instance: GameInstance, table: ScenarioTable) -> LinearProgram:
    """min t subject to optima[s] - sum_i p_i utilities[s][i] <= t for all
    scenarios; t is free in sign."""
    cuts = [
        (tuple(-u for u in util_row) + (-1.0,), -opt, f"regret:{_budget_label(k)}")
        for k, opt, util_row in zip(table.budgets, table.optima, table.utilities)
    ]
    return _epigraph_lp(instance, "min", cuts)


def solve_minimax_regret(instance: GameInstance, table: ScenarioTable) -> RegretReport:
    program = build_regret_lp(instance, table)
    solution = solve_lp(program, "minimax-regret LP")
    n = len(instance.algorithms)
    probs = tuple(solution.values[:n])
    regrets = tuple(
        opt - sum(p * u for p, u in zip(probs, util_row))
        for opt, util_row in zip(table.optima, table.utilities)
    )
    return RegretReport(
        strategy=MixedStrategy(probs=probs),
        per_scenario_regret=regrets,
        max_regret=solution.values[n],
    )


def solve_unconstrained_case(instance: GameInstance) -> StrategyReport:
    """Defender LP when the attacker runs every method against whichever
    algorithm is deployed (no budget)."""
    evals = [
        _evaluation(
            alg, instance.weights, make_plan(alg.attacks, instance.attacker), "unconstrained"
        )
        for alg in instance.algorithms
    ]
    return _solve_leader(instance, evals, "unconstrained-case LP").report


def _matrix(
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]],
    cell,
) -> MatrixReport:
    rows = [
        (f"Opt(k={_budget_label(k)})", strat)
        for k, strat in zip(table.budgets, table.optimal_strategies)
    ]
    rows += [(label, tuple(float(p) for p in probs)) for label, probs in extra_strategies]
    col_labels = tuple(f"k={_budget_label(k)}" for k in table.budgets) + ("max",)
    cells = []
    for _, probs in rows:
        values = [cell(probs, s) for s in range(len(table.budgets))]
        values.append(max(values))
        cells.append(tuple(values))
    return MatrixReport(
        row_labels=tuple(label for label, _ in rows),
        col_labels=col_labels,
        cells=tuple(cells),
    )


def regret_matrix(
    instance: GameInstance,
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]] = (),
) -> MatrixReport:
    """Rows are the scenario-optimal strategies plus any extras; cell (r,s)
    is optima[s] minus the row strategy's value under scenario s."""

    def cell(probs: tuple[float, ...], s: int) -> float:
        value = sum(p * u for p, u in zip(probs, table.utilities[s]))
        return table.optima[s] - value

    return _matrix(table, extra_strategies, cell)


def breach_regret_matrix(
    instance: GameInstance,
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]] = (),
) -> MatrixReport:
    """Cell (r,s) is the row strategy's expected breach under scenario s
    minus the smallest breach any feasible strategy attains there."""

    def cell(probs: tuple[float, ...], s: int) -> float:
        return expected_breach(probs, table.breach[s]) - table.optimal_breach[s]

    return _matrix(table, extra_strategies, cell)
