import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptomix import (
    AttackMethod,
    AttackerParams,
    BudgetNegative,
    CalibrationConfig,
    DpConfig,
    GreedyConfig,
    HybridResult,
    TableTooLarge,
    TooManyMethods,
    calibrate_threshold,
    solve_brute_force,
    solve_dp,
    solve_hybrid,
    solve_sample_greedy,
    unconstrained_success,
)
from cryptomix.attacker import _carry_sets, _cell_sets, _chain_indices, _with_j_first
from helpers import bare_algorithm, random_methods


def test_dp_empty_method_list():
    alg = bare_algorithm(())
    plan = solve_dp(alg, AttackerParams(value=10.0, budget=5.0))
    assert plan.methods == ()
    assert plan.utility == 0.0


def test_dp_zero_budget_returns_empty(worked_algorithm):
    plan = solve_dp(worked_algorithm, AttackerParams(value=1200.0, budget=0.0))
    assert plan.methods == ()


def test_dp_zero_cost_method_always_taken():
    alg = bare_algorithm((AttackMethod("free", 0.5, 0.0), AttackMethod("paid", 0.5, 50.0)))
    plan = solve_dp(alg, AttackerParams(value=100.0, budget=0.0), DpConfig(cost_scale=1))
    assert plan.methods == ("free",)


def test_dp_negative_budget_raises(worked_algorithm):
    with pytest.raises(BudgetNegative):
        solve_dp(worked_algorithm, AttackerParams(value=10.0, budget=-1.0))


def test_dp_table_guard(worked_algorithm):
    with pytest.raises(TableTooLarge):
        solve_dp(
            worked_algorithm,
            AttackerParams(value=10.0, budget=500.0),
            DpConfig(cost_scale=10, max_table_cells=100),
        )


def test_dp_guard_overridable(worked_algorithm, worked_params):
    plan = solve_dp(
        worked_algorithm, worked_params, DpConfig(cost_scale=10, max_table_cells=10**9)
    )
    assert plan.utility == pytest.approx(312.0)


def test_brute_force_method_guard():
    alg = bare_algorithm(tuple(AttackMethod(f"m{i:02d}", 0.5, 1.0) for i in range(26)))
    with pytest.raises(TooManyMethods):
        solve_brute_force(alg, AttackerParams(value=10.0, budget=5.0))


def test_equal_tie_prefers_lexicographic_ids():
    # {a, c} and {b} reach the same success and cost exactly (dyadic floats)
    alg = bare_algorithm(
        (
            AttackMethod("a", 0.5, 4.0),
            AttackMethod("b", 0.75, 8.0),
            AttackMethod("c", 0.5, 4.0),
        )
    )
    params = AttackerParams(value=100.0, budget=8.0)
    dp = solve_dp(alg, params, DpConfig(cost_scale=1))
    brute = solve_brute_force(alg, params)
    assert dp == brute
    assert dp.methods == ("a", "c")


@pytest.mark.parametrize("pad", [1, 62, 63, 64, 127, 130])
@pytest.mark.parametrize(
    "pattern, budget, expected",
    [
        # {a, c} ties {b}
        ("xyx", 8.0, ("a", "c")),
        # {a, b, d} ties {a, c}, a set formed after the first tie
        ("xxyx", 12.0, ("a", "b", "d")),
    ],
)
def test_tie_rule_in_every_mask_word(pad, pattern, budget, expected):
    # x and y reach the same success and cost exactly as x + x (dyadic
    # floats); `pad` unaffordable methods with smaller ids move the tied
    # methods up the 64-bit mask words
    kinds = {"x": (0.5, 4.0), "y": (0.75, 8.0)}
    methods = tuple(
        AttackMethod(chr(ord("a") + i), *kinds[k]) for i, k in enumerate(pattern)
    )
    padding = tuple(AttackMethod(f"P{i:03d}", 0.5, 100.0) for i in range(pad))
    params = AttackerParams(value=100.0, budget=budget)
    dp = solve_dp(bare_algorithm(padding + methods), params, DpConfig(cost_scale=1))
    assert dp == solve_brute_force(bare_algorithm(methods), params)
    assert dp.methods == expected


def test_singleton_tie_prefers_smaller_id():
    alg = bare_algorithm((AttackMethod("b", 0.5, 4.0), AttackMethod("a", 0.5, 4.0)))
    params = AttackerParams(value=100.0, budget=4.0)
    assert solve_dp(alg, params, DpConfig(cost_scale=1)).methods == ("a",)
    assert solve_brute_force(alg, params).methods == ("a",)


def test_unprofitable_methods_left_out():
    alg = bare_algorithm((AttackMethod("dud", 0.01, 90.0),))
    plan = solve_brute_force(alg, AttackerParams(value=100.0, budget=100.0))
    assert plan.methods == ()
    plan = solve_dp(alg, AttackerParams(value=100.0, budget=100.0), DpConfig(cost_scale=1))
    assert plan.methods == ()


def test_fractional_costs_respect_budget(instance):
    # kyberslash1 costs 20.8; with scale 10 it must fit at k=20.8 but not 20
    alg = instance.algorithm("ml-kem-768")
    at_208 = solve_dp(alg, AttackerParams(value=300.0, budget=20.8))
    at_20 = solve_dp(alg, AttackerParams(value=300.0, budget=20.0))
    assert "kyberslash1" in at_208.methods
    assert at_20.methods == ()


def test_dp_keeps_the_real_budget_off_the_grid():
    # 1.04 is 10.4 cells at scale 10: rounded to 10, three fit 31 cells
    # (total 3.12 > 3.1); rounded up to 11 they do not
    alg = bare_algorithm(tuple(AttackMethod(f"m{i}", 0.5, 1.04) for i in range(3)))
    params = AttackerParams(value=100.0, budget=3.1)
    plan = solve_dp(alg, params)
    assert plan.methods == ("m0", "m1")
    assert plan == solve_brute_force(alg, params)


def test_dp_grid_decimals_keep_their_cells():
    # 2.3 * 10 evaluates to 22.999999999999996; a 2.3 method still fits 2.3
    alg = bare_algorithm((AttackMethod("a", 0.5, 2.3),))
    assert solve_dp(alg, AttackerParams(value=100.0, budget=2.3)).methods == ("a",)
    assert solve_dp(alg, AttackerParams(value=100.0, budget=2.2)).methods == ()


@st.composite
def real_valued_subgames(draw):
    reals = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
    methods = tuple(
        AttackMethod(f"m{i}", draw(st.floats(min_value=0.01, max_value=0.99)), draw(reals))
        for i in range(draw(st.integers(0, 7)))
    )
    params = AttackerParams(
        value=draw(st.floats(min_value=1.0, max_value=500.0)),
        budget=draw(st.floats(min_value=0.0, max_value=40.0)),
    )
    return bare_algorithm(methods), params, draw(st.sampled_from((1, 3, 10)))


@settings(max_examples=200, deadline=None)
@given(real_valued_subgames())
def test_every_solver_keeps_the_real_budget(case):
    alg, params, scale = case
    dp_config = DpConfig(cost_scale=scale)
    plans = {
        "dp": solve_dp(alg, params, dp_config),
        "greedy": solve_sample_greedy(alg, params),
        "hybrid": solve_hybrid(alg, params, dp_config).plan,
        "brute": solve_brute_force(alg, params),
    }
    for name, plan in plans.items():
        assert plan.total_cost <= params.budget * (1 + 1e-9), name


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dp_equals_brute_force_on_random_integer_instances(seed):
    rng = np.random.default_rng(seed)
    alg = bare_algorithm(random_methods(rng, int(rng.integers(1, 9)), max_cost=40))
    params = AttackerParams(
        value=float(rng.uniform(10, 500)), budget=float(rng.integers(0, 41))
    )
    dp = solve_dp(alg, params, DpConfig(cost_scale=1))
    brute = solve_brute_force(alg, params)
    assert dp == brute


TIE_SUCCESSES = [k / 8 for k in range(1, 8)]
TIE_COSTS = [k / 2 for k in range(0, 7)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dp_equals_brute_force_on_tie_heavy_instances(data):
    """Methods repeat two or three (success, cost) pairs, so many sets tie
    exactly and only the id rule separates them. Successes are multiples
    of 1/8 and costs multiples of 0.5 (on the DP's 1/10 grid, 0 included):
    failure products and cost sums then carry no rounding, so the oracle
    sees the same exact ties."""
    pairs = data.draw(
        st.lists(
            st.tuples(st.sampled_from(TIE_SUCCESSES), st.sampled_from(TIE_COSTS)),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    ids = data.draw(st.lists(st.integers(0, 999), min_size=1, max_size=12, unique=True))
    methods = tuple(AttackMethod(f"m{i:03d}", *data.draw(st.sampled_from(pairs))) for i in ids)
    params = AttackerParams(
        value=data.draw(st.sampled_from([1.0, 10.0, 100.0])),
        budget=data.draw(st.integers(0, 60)) / 10,
    )
    alg = bare_algorithm(methods)
    assert repr(solve_dp(alg, params)) == repr(solve_brute_force(alg, params))


def _words(members, words):
    column = [0] * words
    for i in members:
        column[i // 64] |= 1 << (i % 64)
    return column


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 200).flatmap(
        lambda j: st.tuples(
            st.just(j),
            st.lists(
                st.tuples(*[st.sets(st.integers(0, j - 1), max_size=12)] * 3),
                min_size=1,
                max_size=10,
            ),
        )
    )
)
def test_tie_rule_orders_id_tuples(case):
    # columns a = shared | only_a and b = shared | only_b, as in tied cells
    j, columns = case
    words = j // 64 + 1
    sets_a = [shared | only_a for shared, only_a, _ in columns]
    sets_b = [shared | only_b for shared, _, only_b in columns]
    a = np.array([_words(s, words) for s in sets_a], dtype=np.uint64).T
    b = np.array([_words(s, words) for s in sets_b], dtype=np.uint64).T
    want = [sorted(sa) + [j] < sorted(sb) for sa, sb in zip(sets_a, sets_b)]
    assert _with_j_first(a, b).tolist() == want


def _members(column):
    return [64 * k + i for k, word in enumerate(column.tolist()) for i in range(64) if word >> i & 1]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 140))
def test_cell_sets_match_the_chain_walk(seed, n):
    # fingerprints from the backward pass and from carrying them forward
    # both hold the chain set of every cell
    rng = np.random.default_rng(seed)
    size = 30
    weights = [int(w) for w in rng.integers(0, 8, n)]
    take = np.zeros((n, size), dtype=bool)
    for i, w in enumerate(weights):
        take[i, w:] = rng.random(size - w) < 0.3
    words = (n + 63) // 64
    masks = _cell_sets(take, weights, -1, words)
    for j in range(n):
        masks = _carry_sets(masks, take[j], j, weights[j])
        if j % 16 == 0 or j == n - 1:
            assert np.array_equal(masks, _cell_sets(take, weights, j, words))
            for c in range(size):
                assert _members(masks[:, c]) == _chain_indices(take, weights, j, c)


@pytest.mark.parametrize("n", [70, 130])
def test_dp_identical_methods_take_the_smallest_ids(n):
    # every reachable cell ties; 70 and 130 methods need 2 and 3 mask words
    rng = random.Random(n)
    ids = [f"x{i:06d}" for i in rng.sample(range(10**6), n)]
    budget = float(n - 5)
    plan = solve_dp(
        bare_algorithm(tuple(AttackMethod(i, 0.05, 1.0) for i in ids)),
        AttackerParams(value=1e6, budget=budget),
        DpConfig(max_table_cells=10**6),
    )

    def utility(c):
        return 1e6 * (1.0 - 0.95**c) - c

    count = max(range(min(n, int(budget)) + 1), key=utility)
    assert count == n - 5
    assert plan.methods == tuple(sorted(ids)[:count])


def test_greedy_accept_all_takes_whole_density_order(worked_algorithm, worked_params):
    plan = solve_sample_greedy(
        worked_algorithm, worked_params, GreedyConfig(accept_prob=1.0)
    )
    assert plan.methods == ("a1", "a2", "a4")
    assert plan.utility == pytest.approx(312.0)


def test_greedy_reject_all_falls_back_to_best_singleton(worked_algorithm, worked_params):
    plan = solve_sample_greedy(
        worked_algorithm, worked_params, GreedyConfig(accept_prob=0.0)
    )
    assert plan.methods == ("a3",)


def test_greedy_seed_reproducible(worked_algorithm, worked_params):
    config = GreedyConfig(accept_prob=0.414, rng_seed=123)
    first = solve_sample_greedy(worked_algorithm, worked_params, config)
    second = solve_sample_greedy(worked_algorithm, worked_params, config)
    assert first == second


def test_greedy_explicit_coins_control_acceptance(worked_algorithm, worked_params):
    # accept only the second candidate considered
    plan = solve_sample_greedy(
        worked_algorithm,
        worked_params,
        GreedyConfig(accept_prob=0.414),
        coins=[0.9, 0.1, 0.9, 0.9],
    )
    assert plan.methods == ("a3",)


def test_greedy_never_beats_exact(worked_algorithm, worked_params):
    exact = solve_dp(worked_algorithm, worked_params, DpConfig(cost_scale=1))
    for seed in range(25):
        greedy = solve_sample_greedy(
            worked_algorithm, worked_params, GreedyConfig(rng_seed=seed)
        )
        assert greedy.utility <= exact.utility + 1e-12
        assert greedy.total_cost <= worked_params.budget


def test_hybrid_uses_dp_when_small(worked_algorithm, worked_params):
    result = solve_hybrid(worked_algorithm, worked_params)
    assert result.solver == "dp"
    assert result.plan.utility == pytest.approx(312.0)


def test_hybrid_routes_by_table_size_alone():
    # 320 methods x 51 cost levels fits the 100k-cell cap, whatever the method count
    alg = bare_algorithm(random_methods(np.random.default_rng(5), 320, max_cost=30))
    params = AttackerParams(value=300.0, budget=5.0)
    assert solve_hybrid(alg, params) == HybridResult(solve_dp(alg, params), "dp")


def test_hybrid_falls_back_on_table_size(worked_algorithm, worked_params):
    result = solve_hybrid(
        worked_algorithm, worked_params, dp_config=DpConfig(max_table_cells=100)
    )
    assert result.solver == "greedy"


def test_hybrid_and_dp_share_the_table_guard():
    # 10 methods x 10001 cost levels is one row past the 100k-cell cap
    alg = bare_algorithm(tuple(AttackMethod(f"m{i}", 0.1, 100.0) for i in range(10)))
    params = AttackerParams(value=1000.0, budget=1000.0)
    with pytest.raises(TableTooLarge):
        solve_dp(alg, params)
    assert solve_hybrid(alg, params).solver == "greedy"
    below = AttackerParams(value=1000.0, budget=999.9)
    assert solve_hybrid(alg, below) == HybridResult(solve_dp(alg, below), "dp")


def test_unconstrained_success_uses_every_method(worked_algorithm):
    expected = 1.0 - (1.0 - 0.20) * (1.0 - 0.35) * (1.0 - 0.42) * (1.0 - 0.25)
    assert unconstrained_success(worked_algorithm) == pytest.approx(expected)


def test_calibration_stops_at_first_crossing_and_is_reproducible():
    config = CalibrationConfig(time_limit=1e9, max_methods=6, rng_seed=7)
    first = calibrate_threshold(config)
    second = calibrate_threshold(config)
    assert first.threshold == 6
    assert [n for n, _ in first.series] == [1, 2, 3, 4, 5, 6]
    assert [n for n, _ in second.series] == [n for n, _ in first.series]

    instant = calibrate_threshold(
        CalibrationConfig(time_limit=0.0, max_methods=6, rng_seed=7)
    )
    assert instant.threshold == 1
    assert len(instant.series) == 1
