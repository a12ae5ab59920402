import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptomix import (
    ScenarioSet,
    breach_regret_matrix,
    build_regret_lp,
    evaluate_all,
    make_plan,
    per_algorithm_utility,
    regret_matrix,
    scenario_table,
    solve_lp,
    solve_maximin,
    solve_minimax_regret,
    solve_stackelberg,
    solve_unconstrained_case,
)
from helpers import random_feasible_instance, random_methods


@pytest.fixture(scope="module")
def table(instance, scenarios):
    return scenario_table(instance, scenarios)


def test_scenario_set_validation():
    with pytest.raises(ValueError):
        ScenarioSet(budgets=())
    with pytest.raises(ValueError):
        ScenarioSet(budgets=(-1.0, 5.0))
    with pytest.raises(ValueError):
        ScenarioSet(budgets=(5.0, 5.0))
    with pytest.raises(ValueError):
        ScenarioSet(budgets=(10.0, 5.0))
    assert len(ScenarioSet(budgets=(1.0, 2.0))) == 2


@pytest.mark.parametrize(
    "budgets", [(math.nan, 10.0, 20.0), (5.0, math.nan, 20.0), (5.0, 10.0, math.nan)]
)
def test_scenario_set_rejects_a_nan_budget(budgets):
    with pytest.raises(ValueError):
        ScenarioSet(budgets=budgets)


def test_table_shapes(instance, scenarios, table):
    n = len(instance.algorithms)
    s = len(scenarios)
    assert len(table.utilities) == s
    assert all(len(row) == n for row in table.utilities)
    assert len(table.breach) == s
    assert len(table.optima) == s
    assert len(table.optimal_strategies) == s
    assert len(table.optimal_breach) == s


def test_utilities_recomputable(instance, table):
    for util_row, breach_row in zip(table.utilities, table.breach):
        for alg, u, p in zip(instance.algorithms, util_row, breach_row):
            assert u == per_algorithm_utility(alg, instance.weights, p)


def per_budget_evaluations(instance, budgets):
    return tuple(
        evaluate_all(replace(instance, attacker=replace(instance.attacker, budget=k)))
        for k in budgets
    )


def with_wide_algorithm(instance, rng, n):
    """instance with its first algorithm's attacks replaced by n random
    methods; at n = 250 the default 100k-cell cap admits budgets up to 39.9."""
    wide = replace(instance.algorithms[0], attacks=random_methods(rng, n, max_cost=30))
    return replace(instance, algorithms=(wide,) + instance.algorithms[1:])


def test_table_evaluations_equal_evaluate_all_per_budget(instance):
    wide = with_wide_algorithm(instance, np.random.default_rng(3), 250)
    scenarios = ScenarioSet(budgets=(10.0, 30.0, 40.0))
    tbl = scenario_table(wide, scenarios)
    assert [row[0].solver for row in tbl.evaluations] == ["dp", "dp", "greedy"]
    assert repr(tbl.evaluations) == repr(per_budget_evaluations(wide, scenarios.budgets))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(0, 39), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(40, 60), min_size=1, max_size=2, unique=True),
)
def test_table_evaluations_equal_evaluate_all_on_random_instances(seed, fit, wide_only):
    # budgets below 40 build the wide algorithm's table, those from 40 on send it to the greedy
    rng = np.random.default_rng(seed)
    instance = with_wide_algorithm(random_feasible_instance(rng), rng, 250)
    scenario_set = ScenarioSet(budgets=tuple(sorted(fit + wide_only)))
    tbl = scenario_table(instance, scenario_set)
    assert {row[0].solver for row in tbl.evaluations} == {"dp", "greedy"}
    assert repr(tbl.evaluations) == repr(
        per_budget_evaluations(instance, scenario_set.budgets)
    )


def test_budget_monotonicity(instance, table):
    # a richer attacker never succeeds less, so defender value never rises
    n = len(instance.algorithms)
    for s in range(len(table.budgets) - 1):
        for i in range(n):
            assert table.breach[s + 1][i] >= table.breach[s][i] - 1e-12
            assert table.utilities[s + 1][i] <= table.utilities[s][i] + 1e-12
        assert table.optima[s + 1] <= table.optima[s] + 1e-9


def test_optimal_breach_below_any_strategy(instance, table):
    for s, strat in enumerate(table.optimal_strategies):
        val = sum(p * b for p, b in zip(strat, table.breach[s]))
        assert table.optimal_breach[s] <= val + 1e-9


def test_single_scenario_degenerates(instance):
    single = ScenarioSet(budgets=(instance.attacker.budget,))
    tbl = scenario_table(instance, single)
    eq = solve_stackelberg(instance)
    assert tbl.optima[0] == pytest.approx(eq.report.objective)

    mm = solve_maximin(instance, tbl)
    assert mm.objective == pytest.approx(eq.report.objective, abs=1e-7)

    mmr = solve_minimax_regret(instance, tbl)
    assert mmr.max_regret == pytest.approx(0.0, abs=1e-7)


def test_maximin_bounds(instance, table):
    mm = solve_maximin(instance, table)
    assert sum(mm.strategy.probs) == pytest.approx(1.0)
    # worst-case value cannot exceed any single-scenario optimum
    assert mm.objective <= min(table.optima) + 1e-7
    for util_row in table.utilities:
        value = sum(p * u for p, u in zip(mm.strategy.probs, util_row))
        assert value >= mm.objective - 1e-7


def test_regret_report_consistency(instance, table):
    report = solve_minimax_regret(instance, table)
    assert sum(report.strategy.probs) == pytest.approx(1.0)
    assert len(report.per_scenario_regret) == len(table.budgets)
    assert all(r >= -1e-7 for r in report.per_scenario_regret)
    assert max(report.per_scenario_regret) == pytest.approx(
        report.max_regret, abs=1e-7
    )
    # regret of the minimax strategy is a lower bound over the table rows
    mat = regret_matrix(instance, table, [("mmr", report.strategy.probs)])
    mmr_max = mat.row("mmr")[-1]
    for label in mat.row_labels:
        assert mmr_max <= mat.row(label)[-1] + 1e-7


def test_maximin_dominates_mmr_worst_case(instance, table):
    mm = solve_maximin(instance, table)
    mmr = solve_minimax_regret(instance, table)
    mmr_worst = min(
        sum(p * u for p, u in zip(mmr.strategy.probs, row))
        for row in table.utilities
    )
    assert mm.objective >= mmr_worst - 1e-7


def test_regret_lp_structure(instance, table):
    lp = build_regret_lp(instance, table)
    n = len(instance.algorithms)
    assert lp.sense == "min"
    assert lp.objective == (0.0,) * n + (1.0,)
    labels = [c.label for c in lp.constraints]
    for k in table.budgets:
        assert f"regret:{k:g}" in labels
    assert solve_lp(lp).objective_value >= 0.0  # every regret is nonnegative


def test_regret_matrix_diagonal_zero(instance, table):
    mat = regret_matrix(instance, table)
    assert mat.col_labels[-1] == "max"
    for s, k in enumerate(table.budgets):
        row = mat.row(f"Opt(k={k:g})")
        assert abs(row[s]) <= 1e-6
        assert all(v >= -1e-6 for v in row)
        assert row[-1] == pytest.approx(max(row[:-1]))


def test_breach_matrix_nonnegative(instance, table):
    mat = breach_regret_matrix(instance, table)
    for row in mat.cells:
        assert all(v >= -1e-6 for v in row)
        assert row[-1] == pytest.approx(max(row[:-1]))


def test_matrix_serialization(instance, table):
    mat = regret_matrix(instance, table, [("extra", table.optimal_strategies[0])])
    text = mat.as_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "strategy," + ",".join(mat.col_labels)
    assert len(lines) == 1 + len(mat.row_labels)
    # repr round-trips every float
    first = lines[1].split(",")
    assert tuple(float(v) for v in first[1:]) == mat.cells[0]

    d = mat.to_dict()
    assert d["columns"] == list(mat.col_labels)
    assert d["rows"][-1]["strategy"] == "extra"


def test_unconstrained_case(instance, table):
    report = solve_unconstrained_case(instance)
    assert sum(report.strategy.probs) == pytest.approx(1.0)
    # with no budget every method runs, so per-algorithm value is a floor
    for alg, *util_cols in zip(instance.algorithms, *table.utilities):
        plan = make_plan(alg.attacks, instance.attacker)
        floor = per_algorithm_utility(alg, instance.weights, plan.success_prob)
        assert all(floor <= u + 1e-9 for u in util_cols)
    assert report.objective <= min(table.optima) + 1e-7
    assert math.isfinite(report.expected_breach)
