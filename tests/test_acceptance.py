"""End-to-end checks pinning the published reference numbers.

Each test covers one acceptance target so `pytest -v` reports them as
separate pass/fail lines. Numeric tolerances are stated next to each
assertion; reference vectors are frozen as module constants.
"""

import time
import warnings

import numpy as np
import pytest

from cryptomix import (
    DpConfig,
    GreedyConfig,
    alternate_optimum_gap,
    breach_regret_matrix,
    build_regret_lp,
    compare_strategies,
    make_plan,
    phi,
    random_vertex_strategy,
    regret_matrix,
    scenario_table,
    single_objective_strategy,
    solve_brute_force,
    solve_dp,
    solve_lp,
    solve_minimax_regret,
    solve_sample_greedy,
    solve_stackelberg,
    SINGLE_OBJECTIVES,
)

from helpers import bare_algorithm, random_feasible_instance, random_methods

# expected per-algorithm defender utilities by attacker budget
EXPECTED_UTILITY_ROWS = {
    11.0: (11.5275, 93.5418, 4.2352, 105.938, 81.605, -1456.808, 16.373, 46.406),
    15.0: (11.5275, -0.5082, 4.2352, 105.938, -30.395, -1456.808, 16.373, 46.406),
    20.0: (1.3275, -0.5082, 4.2352, 105.938, -30.395, -1479.308, 16.373, 46.406),
    25.0: (1.3275, -0.5082, 4.2352, -17.812, -49.995, -1479.308, 16.373, 46.406),
    30.0: (1.3275, -0.5082, 4.2352, -17.812, -49.995, -1490.308, 16.373, 46.406),
}
EXPECTED_OPTIMA = (70.154, 54.054, 53.997, 19.122, 19.122)
EXPECTED_MIN_BREACH = (0.2077, 0.3454, 0.3454, 0.6331, 0.6331)

EXPECTED_STRATEGY = (0.0, 0.0, 0.2, 0.2, 0.0, 0.0, 0.2, 0.4)
EXPECTED_BREACH_COLUMN = (0.970, 0.990, 0.950, 0.990, 0.940, 0.835, 0.450, 0.400)
EXPECTED_USAGE = {
    "op": 1.2600,
    "cpu": 500941.256,
    "mem": 1045.6,
    "latency": 207.06,
    "resilience": 0.4000,
}

EXPECTED_MMR_STRATEGY = (0.0, 0.171190, 0.0, 0.282278, 0.0, 0.0, 0.146531, 0.400000)
EXPECTED_REGRETS = (3.2750, 3.2750, 3.2188, 3.2750, 3.2750)
EXPECTED_MMR_BREACH_ROW = (0.0182, 0.0500, 0.0500, 0.0418, 0.0418)

UNIQUENESS_EPS = 1e-6


def close_rel(got, expected, tol=1e-3):
    return abs(got - expected) <= tol * max(1.0, abs(expected))


@pytest.fixture(scope="module")
def equilibrium(instance):
    return solve_stackelberg(instance)


@pytest.fixture(scope="module")
def table(instance, scenarios):
    return scenario_table(instance, scenarios)


@pytest.fixture(scope="module")
def regret(instance, table):
    return solve_minimax_regret(instance, table)


def test_criterion_01_worked_attacker_example(worked_algorithm, worked_params):
    dp = solve_dp(worked_algorithm, worked_params)
    assert dp.utility == 312.0
    assert dp.success_prob == 0.61
    assert dp.methods == ("a1", "a2", "a4")

    brute = solve_brute_force(worked_algorithm, worked_params)
    assert brute == dp

    coins = np.random.default_rng(9).random(4)
    q = 0.414
    # trace the documented run: reject, accept, reject, reject
    assert coins[0] >= q and coins[1] < q and coins[2] >= q and coins[3] >= q
    config = GreedyConfig(accept_prob=q, rng_seed=9)
    greedy = solve_sample_greedy(worked_algorithm, worked_params, config)
    assert greedy == solve_sample_greedy(
        worked_algorithm, worked_params, config, coins=coins
    )
    assert greedy.methods == ("a3",)
    assert abs(greedy.utility - 224.0) < 1e-9

    gap = (dp.utility - greedy.utility) / dp.utility
    assert abs(gap - 0.282) <= 1e-3

    # warm once, then require the solves to be interactive-fast
    for _ in range(2):
        solve_dp(worked_algorithm, worked_params)
        solve_brute_force(worked_algorithm, worked_params)
        solve_sample_greedy(worked_algorithm, worked_params, config)
    elapsed = min(
        _timed_worked_solvers(worked_algorithm, worked_params, config)
        for _ in range(3)
    )
    assert elapsed < 0.010


def _timed_worked_solvers(algorithm, params, config):
    start = time.perf_counter()
    solve_dp(algorithm, params)
    solve_brute_force(algorithm, params)
    solve_sample_greedy(algorithm, params, config)
    return time.perf_counter() - start


def test_criterion_02_reference_equilibrium(equilibrium):
    report = equilibrium.report
    assert abs(report.objective - 19.1217) <= 1e-3
    for key, expected in EXPECTED_USAGE.items():
        assert close_rel(report.usage[key], expected), (key, report.usage[key])
    assert abs(report.expected_breach - 0.638) <= 1e-3
    for ev, expected in zip(equilibrium.evaluations, EXPECTED_BREACH_COLUMN):
        assert abs(ev.p_succ_star - expected) <= 1e-3, ev.algorithm_id

    gap = alternate_optimum_gap(equilibrium.program, equilibrium.solution)
    if gap > UNIQUENESS_EPS:
        warnings.warn(
            f"equilibrium vertex is not unique (gap {gap:.3g}); "
            "skipping the strategy comparison"
        )
        return
    for p, expected in zip(report.strategy.probs, EXPECTED_STRATEGY):
        assert abs(p - expected) <= 1e-3


def test_criterion_03_scenario_utilities(table):
    assert table.budgets == tuple(sorted(EXPECTED_UTILITY_ROWS))
    for k, util_row in zip(table.budgets, table.utilities):
        for got, expected in zip(util_row, EXPECTED_UTILITY_ROWS[k]):
            assert abs(got - expected) <= 1e-3, (k, got, expected)
    for got, expected in zip(table.optima, EXPECTED_OPTIMA):
        assert abs(got - expected) <= 1e-3


def test_criterion_04_minimax_regret(instance, table, regret):
    assert abs(regret.max_regret - 3.2750) <= 1e-3
    for got, expected in zip(regret.per_scenario_regret, EXPECTED_REGRETS):
        assert abs(got - expected) <= 1e-3

    mat = regret_matrix(instance, table, [("mmr", regret.strategy.probs)])
    assert abs(mat.row("Opt(k=25)")[0] - 26.2824) <= 1e-2
    assert abs(mat.row("Opt(k=11)")[-1] - 4.1628) <= 1e-2

    program = build_regret_lp(instance, table)
    solution = solve_lp(program)
    gap = alternate_optimum_gap(program, solution)
    if gap > UNIQUENESS_EPS:
        warnings.warn(
            f"minimax-regret vertex is not unique (gap {gap:.3g}); "
            "skipping the strategy comparison"
        )
        return
    for p, expected in zip(regret.strategy.probs, EXPECTED_MMR_STRATEGY):
        assert abs(p - expected) <= 1e-3


def test_criterion_05_breach_floors(instance, table, regret):
    for got, expected in zip(table.optimal_breach, EXPECTED_MIN_BREACH):
        assert abs(got - expected) <= 1e-3
    mat = breach_regret_matrix(instance, table, [("mmr", regret.strategy.probs)])
    row = mat.row("mmr")
    for got, expected in zip(row, EXPECTED_MMR_BREACH_ROW):
        assert abs(got - expected) <= 1e-3
    assert abs(row[-1] - 0.0500) <= 1e-3


def test_criterion_06_dp_matches_brute_force():
    rng = np.random.default_rng(20240614)
    config = DpConfig(cost_scale=1)
    start = time.perf_counter()
    for _ in range(200):
        n = int(rng.integers(1, 13))
        methods = random_methods(rng, n, max_cost=100, integer_costs=True)
        algorithm = bare_algorithm(methods)
        params = _random_params(rng)
        assert solve_dp(algorithm, params, config) == solve_brute_force(
            algorithm, params
        )
    assert time.perf_counter() - start < 20.0


def _random_params(rng):
    from cryptomix import AttackerParams, CostFunctionSpec

    quad = float(rng.choice((0.0, 0.001)))
    return AttackerParams(
        value=float(rng.uniform(10.0, 2000.0)),
        budget=float(rng.integers(0, 101)),
        cost_fn=CostFunctionSpec(linear_coeff=1.0, quadratic_coeff=quad),
    )


def test_criterion_07_marginal_gains_shrink():
    from cryptomix import AttackerParams, CostFunctionSpec

    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        methods = random_methods(rng, n, max_cost=60, integer_costs=False)
        params = AttackerParams(
            value=float(rng.uniform(10.0, 1000.0)),
            budget=0.0,
            cost_fn=CostFunctionSpec(
                linear_coeff=float(rng.uniform(0.0, 2.0)),
                quadratic_coeff=float(rng.uniform(0.0, 0.05)),
            ),
        )
        succ = [m.success for m in methods]
        cost = [m.cost for m in methods]
        fail = np.ones(1 << n)
        total = np.zeros(1 << n)
        for mask in range(1, 1 << n):
            j = (mask & -mask).bit_length() - 1
            prev = mask & (mask - 1)
            fail[mask] = fail[prev] * (1.0 - succ[j])
            total[mask] = total[prev] + cost[j]

        def marginal(mask, j):
            gain = params.value * fail[mask] * succ[j]
            fee = phi(params.cost_fn, total[mask] + cost[j]) - phi(
                params.cost_fn, total[mask]
            )
            return gain - fee

        for big in range(1 << n):
            small = big
            while True:
                for j in range(n):
                    if not big & (1 << j):
                        assert marginal(small, j) >= marginal(big, j) - 1e-9
                if small == 0:
                    break
                small = (small - 1) & big


def test_criterion_08_support_bounded_by_binding():
    rng = np.random.default_rng(88)
    for _ in range(100):
        inst = random_feasible_instance(rng)
        result = solve_stackelberg(inst)
        assert result.report.support_size <= len(result.report.binding_labels)


def test_criterion_09_equilibrium_dominates_heuristics(instance, equilibrium):
    opt = equilibrium.report.objective
    evaluations = equilibrium.evaluations
    strategies = [
        (f"random-{seed}", random_vertex_strategy(instance, seed).probs)
        for seed in range(50)
    ]
    strategies += [
        (name, single_objective_strategy(instance, name).probs)
        for name in SINGLE_OBJECTIVES
    ]
    rows = compare_strategies(instance, strategies, evaluations)
    by_label = {row.label: row.report.objective for row in rows}
    strict = 0
    for seed in range(50):
        objective = by_label[f"random-{seed}"]
        assert objective <= opt + 1e-9
        if opt - objective > 1e-7:
            strict += 1
    assert strict >= 45
    for name in SINGLE_OBJECTIVES:
        assert by_label[name] <= opt + 1e-9
