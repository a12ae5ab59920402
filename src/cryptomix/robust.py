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
    SUPPORT_EPS,
    AlgorithmEvaluation,
    StrategyReport,
    _evaluation,
    build_defender_lp,
    defender_polytope,
    evaluate_budgets,
    expected_breach,
    make_report,
    strategy_usage,
)
from .lp import Constraint, LinearProgram, solve_optimal
from .model import GameInstance, MixedStrategy, make_plan


@dataclass(frozen=True)
class ScenarioSet:
    """Strictly increasing candidate attacker budgets."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(float(k) for k in self.budgets))
        if not self.budgets:
            raise ValueError("scenario set is empty")
        if any(k < 0 for k in self.budgets):
            raise ValueError("scenario budgets must be nonnegative")
        if any(a >= b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("scenario budgets must be strictly increasing")

    def __len__(self) -> int:
        return len(self.budgets)


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

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.as_csv())


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
        opt = solve_optimal(LinearProgram("max", util_row, polytope), f"scenario k={k:g}: LP")
        low = solve_optimal(
            LinearProgram("min", breach_row, polytope), f"scenario k={k:g}: breach LP"
        )
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


def _extended_polytope(instance: GameInstance, extra_vars: int) -> list[Constraint]:
    """Polytope constraints padded with zero coefficients for the epigraph
    variable appended after the probability block."""
    cons = []
    for con in defender_polytope(instance):
        cons.append(
            Constraint(con.coeffs + (0.0,) * extra_vars, con.relation, con.rhs, con.label)
        )
    return cons


def solve_maximin(instance: GameInstance, table: ScenarioTable) -> StrategyReport:
    """max z subject to z <= sum_i p_i utilities[s][i] for every scenario.

    The reported objective is the worst-case value z; expected_breach is
    the worst case over scenarios as well.
    """
    n = len(instance.algorithms)
    cons = _extended_polytope(instance, 1)
    for k, util_row in zip(table.budgets, table.utilities):
        row = tuple(-u for u in util_row) + (1.0,)
        cons.append(Constraint(row, "<=", 0.0, f"scenario:{_budget_label(k)}"))
    program = LinearProgram(
        sense="max",
        objective=(0.0,) * n + (1.0,),
        constraints=tuple(cons),
        lower_bounds=(0.0,) * n + (None,),
    )
    solution = solve_optimal(program, "maximin LP")
    probs = tuple(solution.values[:n])
    strategy = MixedStrategy(probs=probs)
    worst_breach = max(expected_breach(probs, row) for row in table.breach)
    return StrategyReport(
        strategy=strategy,
        objective=solution.values[n],
        usage=strategy_usage(instance, probs),
        expected_breach=worst_breach,
        support_size=len(strategy.support(SUPPORT_EPS)),
        binding_labels=solution.binding,
    )


def build_regret_lp(instance: GameInstance, table: ScenarioTable) -> LinearProgram:
    """min t subject to optima[s] - sum_i p_i utilities[s][i] <= t for all
    scenarios; t is free in sign."""
    n = len(instance.algorithms)
    cons = _extended_polytope(instance, 1)
    for k, opt, util_row in zip(table.budgets, table.optima, table.utilities):
        row = tuple(-u for u in util_row) + (-1.0,)
        cons.append(Constraint(row, "<=", -opt, f"regret:{_budget_label(k)}"))
    return LinearProgram(
        sense="min",
        objective=(0.0,) * n + (1.0,),
        constraints=tuple(cons),
        lower_bounds=(0.0,) * n + (None,),
    )


def solve_minimax_regret(instance: GameInstance, table: ScenarioTable) -> RegretReport:
    program = build_regret_lp(instance, table)
    solution = solve_optimal(program, "minimax-regret LP")
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
    program = build_defender_lp(instance, [ev.utility for ev in evals])
    solution = solve_optimal(program, "unconstrained-case LP")
    return make_report(instance, solution.values, evals, solution.binding)


def _rows_for_matrix(
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]],
) -> list[tuple[str, tuple[float, ...]]]:
    rows = [
        (f"Opt(k={_budget_label(k)})", strat)
        for k, strat in zip(table.budgets, table.optimal_strategies)
    ]
    for label, probs in extra_strategies:
        rows.append((label, tuple(float(p) for p in probs)))
    return rows


def _matrix(
    table: ScenarioTable,
    extra_strategies: Sequence[tuple[str, Sequence[float]]],
    cell,
) -> MatrixReport:
    rows = _rows_for_matrix(table, extra_strategies)
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
