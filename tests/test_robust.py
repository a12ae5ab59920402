import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryptomix.robust
from cryptomix import (
    ScenarioSet,
    breach_regret_matrix,
    build_regret_lp,
    check_dual_certificate,
    compare_strategies,
    evaluate_all,
    make_plan,
    make_report,
    per_algorithm_utility,
    regret_matrix,
    scenario_table,
    solve_lp,
    solve_maximin,
    solve_minimax_regret,
    solve_stackelberg,
    solve_unconstrained_case,
)
from helpers import (
    distinct_scenario_rows,
    identical_methods,
    random_feasible_instance,
    random_methods,
    reference_scenario_table,
    spread_methods,
)


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


def with_wide_algorithms(instance, rng, n):
    """instance with the attacks of its first algorithm replaced by n
    random methods and those of its second by n methods whose successes
    differ by 1e-12, and a copy of its first algorithm with n equal
    methods added last. The random ones reduce to a handful, whose table
    fits every budget here; the spread ones cannot be reduced, and at
    n = 250 the default 100k-cell cap admits their table at budgets up to
    39.9; the equal ones are one run, cut to the few the best plan takes."""
    first, second = instance.algorithms[:2]
    wide = (
        replace(first, attacks=random_methods(rng, n, max_cost=30)),
        replace(second, attacks=spread_methods(n)),
    )
    run = replace(first, id="equal-run", attacks=identical_methods(n))
    return replace(instance, algorithms=wide + instance.algorithms[2:] + (run,))


def test_table_evaluations_equal_evaluate_all_per_budget(instance):
    wide = with_wide_algorithms(instance, np.random.default_rng(3), 250)
    scenarios = ScenarioSet(budgets=(10.0, 30.0, 40.0))
    tbl = scenario_table(wide, scenarios)
    assert [row[0].solver for row in tbl.evaluations] == ["dp", "dp", "dp"]
    assert [row[1].solver for row in tbl.evaluations] == ["dp", "dp", "greedy"]
    assert [row[-1].solver for row in tbl.evaluations] == ["dp", "dp", "dp"]
    assert repr(tbl.evaluations) == repr(per_budget_evaluations(wide, scenarios.budgets))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(0, 39), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(40, 60), min_size=1, max_size=2, unique=True),
)
def test_table_evaluations_equal_evaluate_all_on_random_instances(seed, fit, wide_only):
    # the random and the equal wide algorithms go to the DP at every
    # budget; the spread one builds its table below 40 and goes to the
    # greedy from 40 on
    rng = np.random.default_rng(seed)
    instance = with_wide_algorithms(random_feasible_instance(rng), rng, 250)
    scenario_set = ScenarioSet(budgets=tuple(sorted(fit + wide_only)))
    tbl = scenario_table(instance, scenario_set)
    assert {row[0].solver for row in tbl.evaluations} == {"dp"}
    assert [row[1].solver for row in tbl.evaluations] == [
        "dp" if k < 40 else "greedy" for k in scenario_set.budgets
    ]
    assert {row[-1].solver for row in tbl.evaluations} == {"dp"}
    assert repr(tbl.evaluations) == repr(
        per_budget_evaluations(instance, scenario_set.budgets)
    )


def record_scenario_lps(mp):
    """Record the context of every LP that scenario_table solves; returns
    the list it appends to."""
    contexts = []
    original = cryptomix.robust._optimal_point

    def recording(lp, context):
        contexts.append(context)
        return original(lp, context)

    mp.setattr(cryptomix.robust, "_optimal_point", recording)
    return contexts


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(st.integers(0, 60), max_size=3, unique=True),
    st.lists(st.integers(120, 200), min_size=2, max_size=3, unique=True),
)
def test_repeated_rows_reuse_the_first_solve(seed, below, past):
    # random_feasible_instance gives at most 4 methods of cost <= 30 per
    # algorithm, so from budget 120 on every attacker runs all of them and
    # the rows there repeat
    instance = random_feasible_instance(np.random.default_rng(seed))
    budgets = tuple(float(k) for k in sorted(below + past))
    with pytest.MonkeyPatch.context() as mp:
        contexts = record_scenario_lps(mp)
        tbl = scenario_table(instance, ScenarioSet(budgets))
    assert repr(tbl) == repr(reference_scenario_table(instance, budgets))
    rows = distinct_scenario_rows(tbl)
    assert rows <= len(below) + 1
    assert len(contexts) == 2 * rows


def test_saturated_budgets_solve_one_pair_of_lps(instance):
    # the bundled attacker saturates before 30: the rows at 30-120 are
    # identical, so their LPs are solved once, under k=30's context
    budgets = (20.0, 30.0, 40.0, 60.0, 120.0)
    with pytest.MonkeyPatch.context() as mp:
        contexts = record_scenario_lps(mp)
        tbl = scenario_table(instance, ScenarioSet(budgets))
    assert contexts == [
        "scenario k=20: LP",
        "scenario k=20: breach LP",
        "scenario k=30: LP",
        "scenario k=30: breach LP",
    ]
    assert len(set(tbl.utilities[1:])) == len(set(tbl.breach[1:])) == 1
    assert tbl.utilities[0] != tbl.utilities[1]
    assert repr(tbl) == repr(reference_scenario_table(instance, budgets))


def test_rows_that_differ_in_the_sign_of_a_zero_are_solved_apart(instance, monkeypatch):
    # == takes -0.0 for 0.0, but HiGHS can answer the two differently
    (evals,) = cryptomix.robust.evaluate_budgets(instance, (20.0,))
    rows = [(replace(evals[0], utility=zero),) + evals[1:] for zero in (0.0, -0.0)]
    monkeypatch.setattr(cryptomix.robust, "evaluate_budgets", lambda inst, budgets: rows)
    contexts = record_scenario_lps(monkeypatch)
    tbl = scenario_table(instance, ScenarioSet((20.0, 30.0)))
    assert len(contexts) == 4
    assert [math.copysign(1.0, row[0]) for row in tbl.utilities] == [1.0, -1.0]


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


def test_budgets_whose_g_forms_collide_keep_distinct_labels(instance, monkeypatch):
    # %g writes 20.000001 as 20; sharing the label "regret:20", two rows
    # once shared one dual, and the certificate of the optimal regret LP
    # read 263.55
    table = scenario_table(instance, ScenarioSet((20.0, 20.000001, 60.0)))
    lp = build_regret_lp(instance, table)
    labels = [c.label for c in lp.constraints if c.label.startswith("regret:")]
    assert labels == ["regret:20", "regret:20.000001", "regret:60"]
    assert check_dual_certificate(lp, solve_lp(lp)) <= 1e-7
    solved = []

    def recording(program, context="LP"):
        solved.append((program, solve_lp(program, context)))
        return solved[-1][1]

    monkeypatch.setattr(cryptomix.robust, "solve_lp", recording)
    solve_maximin(instance, table)
    (maximin, solution), = solved
    cuts = [c.label for c in maximin.constraints if c.label.startswith("scenario:")]
    assert cuts == ["scenario:20", "scenario:20.000001", "scenario:60"]
    assert check_dual_certificate(maximin, solution) <= 1e-7
    columns = regret_matrix(instance, table).col_labels
    assert columns == ("k=20", "k=20.000001", "k=60", "max")
    assert regret_matrix(instance, table).row_labels[:3] == tuple(f"Opt({k})" for k in columns[:3])


def test_regret_matrix_diagonal_zero(instance, table):
    mat = regret_matrix(instance, table)
    assert mat.col_labels[-1] == "max"
    for s, k in enumerate(table.budgets):
        row = mat.row(f"Opt(k={k:g})")
        assert abs(row[s]) <= 1e-6
        assert all(v >= -1e-6 for v in row)
        assert row[-1] == pytest.approx(max(row[:-1]))


@pytest.mark.parametrize(
    "probs, message",
    [
        ((1.0,), "^zip"),
        ((1.0 / 9,) * 9, "^zip"),
        # a NaN entry would score nan, and sort among finite rows
        ((math.nan,) + (1.0 / 7,) * 7, "^strategy entry 0 is not finite: nan$"),
        ((0.0,) * 7 + (math.inf,), "^strategy entry 7 is not finite: inf$"),
    ],
    ids=["1", "9", "nan", "inf"],
)
def test_a_strategy_of_the_wrong_length_is_refused(instance, table, probs, message):
    # 8 algorithms: zip would score a short or long strategy by its prefix
    evaluations = table.evaluations[0]
    calls = [
        lambda: make_report(instance, probs, evaluations),
        lambda: compare_strategies(instance, [("wrong", probs)], evaluations),
        lambda: regret_matrix(instance, table, [("wrong", probs)]),
        lambda: breach_regret_matrix(instance, table, [("wrong", probs)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


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
