import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cryptomix import (
    AttackMethod,
    AttackerParams,
    BudgetNegative,
    CostFunctionSpec,
    HybridResult,
    SolverConfig,
    TableTooLarge,
    TooManyMethods,
    evaluate_budgets,
    solve_brute_force,
    solve_dp,
    solve_hybrid,
    solve_sample_greedy,
)
from cryptomix.attacker import (
    _cells,
    _cost_cells,
    _forced_bounds,
    _penalty,
    build_dp_table,
    dp_table_fits,
    hybrid_plans,
)
from cryptomix.model import make_plan, phi
from helpers import (
    bare_algorithm,
    random_methods,
    reference_dp_table,
    reference_sample_greedy,
    wide_methods,
)


def test_dp_empty_method_list():
    alg = bare_algorithm(())
    plan = solve_dp(alg, AttackerParams(value=10.0, budget=5.0))
    assert plan.methods == ()
    assert plan.utility == 0.0


@pytest.mark.parametrize("value", [0.0, -5.0])
def test_dp_and_hybrid_at_a_nonpositive_value_equal_brute_force(instance, value):
    # the unreachable cells of the table must stay at -inf: value * (1 - inf)
    # is nan at value 0 and +inf below it
    alg = next(a for a in instance.algorithms if a.id == "aes256-gcm")
    params = AttackerParams(value=value, budget=40.0)
    want = repr(solve_brute_force(alg, params))
    assert repr(solve_dp(alg, params)) == want
    assert repr(solve_hybrid(alg, params).plan) == want


@pytest.mark.parametrize("value", [0.0, -5.0])
def test_a_free_method_at_a_nonpositive_value_is_left_out(value):
    # the smallest failure product per cell is the worst set when the
    # value is <= 0: the DP took the free method at utility -2.5 (value -5)
    # or tied brute force's empty plan on ids (value 0)
    alg = bare_algorithm((AttackMethod("free", 0.5, 0.0), AttackMethod("paid", 0.5, 5.0)))
    params = AttackerParams(value=value, budget=10.0)
    want = repr(solve_brute_force(alg, params))
    assert repr(solve_dp(alg, params)) == want
    assert repr(solve_hybrid(alg, params).plan) == want


def test_dp_zero_budget_returns_empty(worked_algorithm):
    plan = solve_dp(worked_algorithm, AttackerParams(value=1200.0, budget=0.0))
    assert plan.methods == ()


def test_dp_zero_cost_method_always_taken():
    alg = bare_algorithm((AttackMethod("free", 0.5, 0.0), AttackMethod("paid", 0.5, 50.0)))
    plan = solve_dp(alg, AttackerParams(value=100.0, budget=0.0), SolverConfig(cost_scale=1))
    assert plan.methods == ("free",)


@pytest.mark.parametrize(
    "solve",
    [solve_dp, solve_sample_greedy, solve_hybrid, solve_brute_force],
    ids=["dp", "greedy", "hybrid", "brute"],
)
def test_every_solver_rejects_a_negative_budget(worked_algorithm, solve):
    with pytest.raises(BudgetNegative):
        solve(worked_algorithm, AttackerParams(value=10.0, budget=-1.0))


def test_dp_table_guard(worked_algorithm):
    with pytest.raises(TableTooLarge):
        solve_dp(
            worked_algorithm,
            AttackerParams(value=10.0, budget=500.0),
            SolverConfig(cost_scale=10, max_table_cells=100),
        )


def test_dp_guard_overridable(worked_algorithm, worked_params):
    plan = solve_dp(
        worked_algorithm, worked_params, SolverConfig(cost_scale=10, max_table_cells=10**9)
    )
    assert plan.utility == pytest.approx(312.0)


def test_brute_force_method_guard():
    alg = bare_algorithm(tuple(AttackMethod(f"m{i:02d}", 0.5, 1.0) for i in range(26)))
    with pytest.raises(TooManyMethods):
        solve_brute_force(alg, AttackerParams(value=10.0, budget=5.0))


def test_equal_tie_prefers_colexicographic_ids():
    # {a, c} and {b} reach the same success and cost exactly (dyadic
    # floats); compared from the largest id down, (b) comes before (c, a)
    alg = bare_algorithm(
        (
            AttackMethod("a", 0.5, 4.0),
            AttackMethod("b", 0.75, 8.0),
            AttackMethod("c", 0.5, 4.0),
        )
    )
    params = AttackerParams(value=100.0, budget=8.0)
    dp = solve_dp(alg, params, SolverConfig(cost_scale=1))
    assert dp == solve_brute_force(alg, params)
    assert solve_hybrid(alg, params, SolverConfig(cost_scale=1)) == HybridResult(dp, "dp")
    assert dp.methods == ("b",)


@pytest.mark.parametrize("pad", [1, 62, 63, 64, 127, 130])
@pytest.mark.parametrize(
    "pattern, budget, expected",
    [
        # {a, c} ties {b}
        ("xyx", 8.0, ("b",)),
        # {a, c} ties {a, b, d}, {b, c} and {c, d}, some of them formed
        # after the first tie
        ("xxyx", 12.0, ("a", "c")),
    ],
)
def test_tie_rule_in_every_mask_word(pad, pattern, budget, expected):
    # x and y reach the same success and cost exactly as x + x (dyadic
    # floats); `pad` unaffordable methods with smaller ids take part in no
    # set but move the tied methods' table rows past 64 and 128
    kinds = {"x": (0.5, 4.0), "y": (0.75, 8.0)}
    methods = tuple(
        AttackMethod(chr(ord("a") + i), *kinds[k]) for i, k in enumerate(pattern)
    )
    padding = tuple(AttackMethod(f"P{i:03d}", 0.5, 100.0) for i in range(pad))
    params = AttackerParams(value=100.0, budget=budget)
    dp = solve_dp(bare_algorithm(padding + methods), params, SolverConfig(cost_scale=1))
    assert dp == solve_brute_force(bare_algorithm(methods), params)
    assert dp.methods == expected


def test_singleton_tie_prefers_smaller_id():
    alg = bare_algorithm((AttackMethod("b", 0.5, 4.0), AttackMethod("a", 0.5, 4.0)))
    params = AttackerParams(value=100.0, budget=4.0)
    assert solve_dp(alg, params, SolverConfig(cost_scale=1)).methods == ("a",)
    assert solve_brute_force(alg, params).methods == ("a",)


def test_unprofitable_methods_left_out():
    alg = bare_algorithm((AttackMethod("dud", 0.01, 90.0),))
    plan = solve_brute_force(alg, AttackerParams(value=100.0, budget=100.0))
    assert plan.methods == ()
    plan = solve_dp(alg, AttackerParams(value=100.0, budget=100.0), SolverConfig(cost_scale=1))
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
def scaled_costs(draw):
    """A cost scale, a cell cap and costs on the grid, off it, on a half
    cell (a round half to even tie), zero, large and overflowing."""
    scale = draw(st.sampled_from([1, 2, 3, 10, 100]))
    cells = st.integers(0, 10**7)
    cost = st.one_of(
        cells.map(lambda k: k / scale),
        st.floats(min_value=0.0, max_value=1e6),
        cells.map(lambda k: (k + 0.5) / scale),
        st.just(0.0),
        st.floats(min_value=1e15, max_value=1e300),
        st.just(1e308),
    )
    limit = draw(st.one_of(st.integers(1, 10**7), st.just(2**53)))
    return draw(st.lists(cost, max_size=20)), scale, limit


@settings(max_examples=150, deadline=None)
@given(scaled_costs())
def test_cost_cells_equal_cells_per_cost(case):
    costs, scale, limit = case
    want = tuple(min(_cells(c, scale, up=True), limit) for c in costs)
    got = _cost_cells(costs, scale, limit)
    assert got == want
    assert all(type(w) is int for w in got)


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
    config = SolverConfig(cost_scale=scale)
    plans = {
        "dp": solve_dp(alg, params, config),
        "greedy": solve_sample_greedy(alg, params),
        "hybrid": solve_hybrid(alg, params, config).plan,
        "brute": solve_brute_force(alg, params),
    }
    for name, plan in plans.items():
        assert plan.total_cost <= params.budget * (1 + 1e-9), name


@st.composite
def off_grid_subgames(draw):
    reals = st.floats(min_value=0.0, max_value=10.0)
    methods = tuple(
        AttackMethod(f"m{i}", draw(st.floats(min_value=0.01, max_value=0.99)), draw(reals))
        for i in range(draw(st.integers(0, 8)))
    )
    params = AttackerParams(
        value=draw(st.floats(min_value=1.0, max_value=500.0)),
        budget=draw(st.floats(min_value=0.0, max_value=40.0)),
        cost_fn=CostFunctionSpec(
            linear_coeff=draw(st.floats(min_value=0.0, max_value=3.0)),
            quadratic_coeff=draw(st.floats(min_value=0.0, max_value=0.5)),
        ),
    )
    return bare_algorithm(methods), params, draw(st.sampled_from((1, 2, 10)))


@settings(max_examples=300, deadline=None)
@given(off_grid_subgames())
def test_dp_off_grid_loss_stays_within_one_cell_per_method(case):
    # Each cost rounds up by less than one cell and the budget down by less
    # than one, so every set of real cost <= B' = B - (n + 1) / scale fits
    # the grid, and the DP scores a set at a grid cost at most n / scale
    # above its real cost: phi grows by at most delta over that step.
    alg, params, scale = case
    n = len(alg.attacks)
    budget = params.budget
    spec = params.cost_fn
    plan = solve_dp(alg, params, SolverConfig(cost_scale=scale, max_table_cells=10**6))
    assert plan.total_cost <= budget * (1 + 1e-9)
    assert plan.utility <= solve_brute_force(alg, params).utility + 1e-9
    shrunk = budget - (n + 1) / scale
    if shrunk >= 0:
        step = n / scale
        delta = step * (spec.linear_coeff + spec.quadratic_coeff * (2 * budget + step))
        floor = solve_brute_force(alg, replace(params, budget=shrunk)).utility
        assert plan.utility >= floor - delta - 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dp_equals_brute_force_on_random_integer_instances(seed):
    rng = np.random.default_rng(seed)
    alg = bare_algorithm(random_methods(rng, int(rng.integers(1, 9)), max_cost=40))
    params = AttackerParams(
        value=float(rng.uniform(10, 500)), budget=float(rng.integers(0, 41))
    )
    dp = solve_dp(alg, params, SolverConfig(cost_scale=1))
    brute = solve_brute_force(alg, params)
    assert dp == brute


TIE_SUCCESSES = [k / 8 for k in range(0, 8)]
TIE_COSTS = [k / 2 for k in range(0, 7)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dp_equals_brute_force_on_tie_heavy_instances(data):
    """Methods repeat two or three (success, cost) pairs, so many sets tie
    exactly and only the id rule separates them. Successes are multiples
    of 1/8 below 1 and costs multiples of 0.5 (on the DP's 1/10 grid), 0
    included in both: failure products and cost sums then carry no
    rounding, so the oracle sees the same exact ties. Success 1 stays
    out: its failure factor 0 collapses products the DP dropped earlier,
    so the two can name other ids."""
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


def test_dp_ranks_failure_products_before_they_round_to_utility():
    """m2 alone fails with 1 - 0.8 = 0.19999999999999996 and {m0, m1} with
    0.5 * 0.4 = 0.2. Both succeed with 0.8 at cost 3.5, so brute force ties
    them and names the smaller ids; the DP compares the failure products,
    which differ, and keeps m2. Same utility and cost, different ids."""
    alg = bare_algorithm(
        (
            AttackMethod("m0", 0.5, 1.0),
            AttackMethod("m1", 0.6, 2.5),
            AttackMethod("m2", 0.8, 3.5),
        )
    )
    params = AttackerParams(value=10.0, budget=9.0)
    dp = solve_dp(alg, params)
    brute = solve_brute_force(alg, params)
    assert (dp.utility, dp.total_cost) == (brute.utility, brute.total_cost) == (4.5, 3.5)
    assert dp.methods == ("m2",)
    assert brute.methods == ("m0", "m1")


@pytest.mark.parametrize(
    "useless, value, budget",
    [((1e-17, 0.0), 10.0, 1.0), ((0.0, 0.0), 1.0, 0.0)],
    ids=["rounds-to-nothing", "success-0"],
)
def test_a_method_that_adds_nothing_ties_without_it(useless, value, budget):
    """1 - 1e-17 rounds to 1, as 1 - 0 is 1, so m000 adds nothing to m001
    at no cost, and {m001} ties {m000, m001} exactly. Lexicographic ids
    would want the pair, which the DP drops at cell 0 before m001 is
    tried; the colex rule wants {m001}, and every solver names it."""
    alg = bare_algorithm((AttackMethod("m000", *useless), AttackMethod("m001", 0.5, budget)))
    params = AttackerParams(value=value, budget=budget)
    config = SolverConfig(cost_scale=1)
    dp = solve_dp(alg, params, config)
    assert repr(dp) == repr(solve_brute_force(alg, params))
    assert repr(solve_hybrid(alg, params, config).plan) == repr(dp)
    assert dp.methods == ("m001",)


@st.composite
def dp_tables(draw):
    """Tie-heavy instances (a few repeated (success, cost) pairs, up to 130
    methods) or random ones with real successes and costs; both can hold
    success 1 and cost 0."""
    if draw(st.booleans()):
        pairs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(TIE_SUCCESSES + [0.1, 0.3, 1.0]),
                    st.sampled_from(TIE_COSTS),
                ),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        methods = [draw(st.sampled_from(pairs)) for _ in range(draw(st.integers(1, 130)))]
    else:
        methods = [
            (
                draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0]))),
                draw(st.one_of(st.floats(0.0, 20.0), st.integers(0, 10).map(float))),
            )
            for _ in range(draw(st.integers(0, 40)))
        ]
    n = len(methods)
    ids = draw(st.lists(st.integers(0, 9999), min_size=n, max_size=n, unique=True))
    alg = bare_algorithm(tuple(AttackMethod(f"m{i:04d}", *sc) for i, sc in zip(ids, methods)))
    config = SolverConfig(cost_scale=draw(st.sampled_from([1, 2, 10])), max_table_cells=10**6)
    return alg, draw(st.integers(0, 300)) / 10, config


@settings(max_examples=60, deadline=None)
@given(dp_tables())
def test_dp_table_matches_the_reference_loop(case):
    alg, budget, config = case
    table = build_dp_table(alg, budget, config)
    take, minfail = reference_dp_table(alg, budget, config)
    assert np.array_equal(table.take, take)
    assert table.minfail.tobytes() == minfail.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0, exclude_min=True),
    st.integers(1, 100),
    st.integers(1, 5000),
)
def test_dp_penalty_curve_is_phi_bitwise(linear, quadratic, scale, size):
    # dp_plans' curve; np.power(x, 2) would square as x * x, which differs
    # from Python's x**2 in the last bit for some x
    spec = CostFunctionSpec(linear_coeff=linear, quadratic_coeff=quadratic)
    curve = _penalty(spec, np.arange(size) / scale)
    assert curve.tobytes() == np.array([phi(spec, c / scale) for c in range(size)]).tobytes()


@pytest.mark.parametrize("n", [70, 130])
def test_dp_identical_methods_take_the_smallest_ids(n):
    # every reachable cell ties, and of sets of one size the colex first
    # holds the smallest ids
    rng = random.Random(n)
    ids = [f"x{i:06d}" for i in rng.sample(range(10**6), n)]
    budget = float(n - 5)
    plan = solve_dp(
        bare_algorithm(tuple(AttackMethod(i, 0.05, 1.0) for i in ids)),
        AttackerParams(value=1e6, budget=budget),
        SolverConfig(max_table_cells=10**6),
    )

    def utility(c):
        return 1e6 * (1.0 - 0.95**c) - c

    count = max(range(min(n, int(budget)) + 1), key=utility)
    assert count == n - 5
    assert plan.methods == tuple(sorted(ids)[:count])


def test_greedy_accept_all_takes_whole_density_order(worked_algorithm, worked_params):
    plan = solve_sample_greedy(worked_algorithm, worked_params, coins=[0.0] * 5)
    assert plan.methods == ("a1", "a2", "a4")
    assert plan.utility == pytest.approx(312.0)


def test_greedy_reject_all_falls_back_to_best_singleton(worked_algorithm, worked_params):
    plan = solve_sample_greedy(worked_algorithm, worked_params, coins=[0.999] * 5)
    assert plan.methods == ("a3",)


def test_greedy_seed_reproducible(worked_algorithm, worked_params):
    config = SolverConfig(rng_seed=123)
    first = solve_sample_greedy(worked_algorithm, worked_params, config)
    second = solve_sample_greedy(worked_algorithm, worked_params, config)
    assert first == second


def test_greedy_explicit_coins_control_acceptance(worked_algorithm, worked_params):
    # accept only the second candidate considered
    plan = solve_sample_greedy(worked_algorithm, worked_params, coins=[0.9, 0.1, 0.9, 0.9])
    assert plan.methods == ("a3",)


def test_greedy_coins_that_run_out_raise_value_error():
    alg = bare_algorithm(tuple(AttackMethod(f"m{i}", 0.3, 1.0) for i in range(5)))
    params = AttackerParams(value=100.0, budget=10.0)
    with pytest.raises(ValueError, match="coins ran out at draw 2"):
        solve_sample_greedy(alg, params, coins=[0.1])
    with pytest.raises(ValueError, match="coins ran out at draw 1"):
        solve_sample_greedy(alg, params, coins=iter(()))


def test_greedy_failure_product_runs_in_id_order():
    # m4, m2 and m0 are taken first; then m1 and m3 tie in exact arithmetic,
    # (1000 f 0.3 - 2) / 2 = (1000 f 0.45 - 3) / 3, and the last bit of the
    # failure product f decides: (0.1 * 0.1) * 0.7 in id order puts m1
    # first, (0.7 * 0.1) * 0.1 in pick order would put m3 first
    alg = bare_algorithm(
        (
            AttackMethod("m0", 0.9, 5.0),
            AttackMethod("m1", 0.3, 2.0),
            AttackMethod("m2", 0.9, 3.0),
            AttackMethod("m3", 0.45, 3.0),
            AttackMethod("m4", 0.3, 1.0),
        )
    )
    params = AttackerParams(value=1000.0, budget=19.0)
    coins = [0.0, 0.0, 0.0, 0.0, 0.9]
    plan = solve_sample_greedy(alg, params, coins=coins)
    assert plan.methods == ("m0", "m1", "m2", "m4")
    assert repr(plan) == repr(reference_sample_greedy(alg, params, coins=coins))


@st.composite
def greedy_subgames(draw):
    """Up to 60 methods, a quadratic penalty and one coin per possible step.
    Half the instances draw every method from three (success, cost) pairs,
    two of them (s, c) and (s / 2, c / 2): their densities are exactly
    equal at different costs, so the cost rule orders them. The others
    draw grid or real successes and zero, half-integer or real costs."""
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        s, c = draw(st.sampled_from(TIE_SUCCESSES + [1.0])), draw(st.integers(1, 10)) / 2
        other = (draw(st.sampled_from(TIE_SUCCESSES + [1.0])), draw(st.integers(0, 10)) / 2)
        pool = [(s, c), (s / 2, c / 2), other]
        pairs = [draw(st.sampled_from(pool)) for _ in range(n)]
    else:
        success = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.9, 1.0]), st.floats(0.0, 1.0))
        cost = st.one_of(
            st.just(0.0), st.integers(0, 20).map(lambda k: k / 2), st.floats(0.0, 20.0)
        )
        pairs = [(draw(success), draw(cost)) for _ in range(n)]
    ids = draw(st.lists(st.integers(0, 999), min_size=n, max_size=n, unique=True))
    methods = tuple(AttackMethod(f"m{i:03d}", *pair) for i, pair in zip(ids, pairs))
    params = AttackerParams(
        value=draw(st.floats(1.0, 1000.0)),
        budget=draw(st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 60.0))),
        cost_fn=CostFunctionSpec(
            linear_coeff=draw(st.sampled_from([0.0, 1.0, 2.5])),
            quadratic_coeff=draw(st.sampled_from([0.0, 0.05, 1.7])),
        ),
    )
    config = SolverConfig(rng_seed=draw(st.integers(0, 2**16)))
    coins = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n + 1, max_size=n + 1))
    return bare_algorithm(methods), params, config, coins


@settings(max_examples=100, deadline=None)
@given(greedy_subgames())
def test_greedy_equals_the_scalar_reference(case):
    alg, params, config, coins = case
    for replay in (coins, None):
        plan = solve_sample_greedy(alg, params, config, replay)
        assert repr(plan) == repr(reference_sample_greedy(alg, params, config, replay))


def test_greedy_never_beats_exact(worked_algorithm, worked_params):
    exact = solve_dp(worked_algorithm, worked_params, SolverConfig(cost_scale=1))
    for seed in range(25):
        greedy = solve_sample_greedy(worked_algorithm, worked_params, SolverConfig(rng_seed=seed))
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
    result = solve_hybrid(worked_algorithm, worked_params, SolverConfig(max_table_cells=100))
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


def test_overflowing_budget_fits_no_table():
    # 1e308 * 10 overflows to inf cells: the DP refuses it as too large, and
    # the hybrid routes it to the greedy instead of raising
    alg = bare_algorithm(tuple(AttackMethod(f"m{i}", 0.3, 5.0) for i in range(4)))
    params = AttackerParams(value=300.0, budget=1e308)
    assert _cells(1e308, 10, up=False) == math.inf
    assert not dp_table_fits(4, 1e308)
    assert not dp_table_fits(0, 1e308)
    with pytest.raises(TableTooLarge):
        build_dp_table(alg, 1e308)
    with pytest.raises(TableTooLarge):
        solve_dp(alg, params)
    assert solve_hybrid(alg, params) == HybridResult(solve_sample_greedy(alg, params), "greedy")


def test_evaluate_budgets_routes_an_overflowing_budget_to_the_greedy(instance):
    low, high = evaluate_budgets(instance, (11.0, 1e308))
    assert low == evaluate_budgets(instance, (11.0,))[0]
    assert {ev.solver for ev in high} == {"greedy"}


def test_no_methods_at_a_budget_past_the_cap_go_to_the_greedy():
    # the table keeps one row with no methods, so 1e300 has no table; the
    # greedy answers with the empty plan, as the DP does within the cap
    alg = bare_algorithm(())
    params = AttackerParams(value=10.0, budget=1e300)
    assert dp_table_fits(0, 9999.9) and not dp_table_fits(0, 1e4)
    with pytest.raises(TableTooLarge):
        build_dp_table(alg, 1e300)
    assert solve_hybrid(alg, params) == HybridResult(make_plan((), params), "greedy")
    small = replace(params, budget=5.0)
    assert solve_hybrid(alg, small) == HybridResult(make_plan((), params), "dp")


@st.composite
def dispatcher_cases(draw):
    """Tied and zero-cost methods, increasing budgets up to 1e308 and a
    small table cap, so one call sends some budgets to the DP and others
    to the greedy, under random solver configs."""
    pairs = st.tuples(st.sampled_from([0.1, 0.3, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 2.5]))
    real = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 20.0))
    methods = tuple(
        AttackMethod(f"m{i}", *draw(st.one_of(pairs, real)))
        for i in range(draw(st.integers(0, 12)))
    )
    budgets = sorted(draw(st.lists(st.floats(0.0, 60.0), max_size=6, unique=True))) + [1e308]
    params = AttackerParams(
        value=draw(st.floats(1.0, 500.0)),
        budget=draw(st.floats(0.0, 60.0)),
        cost_fn=CostFunctionSpec(
            linear_coeff=draw(st.sampled_from([0.0, 1.0, 2.5])),
            quadratic_coeff=draw(st.sampled_from([0.0, 0.05])),
        ),
    )
    config = SolverConfig(
        cost_scale=draw(st.sampled_from([1, 2, 10])),
        max_table_cells=draw(st.integers(1, 600)),
        rng_seed=draw(st.integers(0, 2**16)),
    )
    return bare_algorithm(methods), params, budgets, config


@settings(max_examples=150, deadline=None)
@given(dispatcher_cases())
def test_hybrid_plans_answer_each_budget_as_solve_hybrid(case):
    alg, params, budgets, config = case
    got = hybrid_plans(alg, params, budgets, config)
    want = [solve_hybrid(alg, replace(params, budget=k), config) for k in budgets]
    assert repr(got) == repr(want)


@pytest.mark.parametrize("cost", [1e18, 1e308], ids=["past-int64", "past-float"])
def test_dp_skips_a_method_whose_cost_cells_overflow(cost):
    # 1e18 is 1e19 cells, past int64, and 1e308 * 10 is inf; neither weight
    # reaches a cell, so the costly a changes nothing beside the tied b and d
    tied = (AttackMethod("b", 0.3, 1.0), AttackMethod("d", 0.3, 1.0))
    alg = bare_algorithm((AttackMethod("a", 0.5, cost),) + tied)
    params = AttackerParams(value=300.0, budget=5.0)
    assert solve_dp(alg, params) == solve_dp(bare_algorithm(tied), params)
    assert build_dp_table(alg, 5.0).weights == (51, 10, 10)


@st.composite
def reduction_subgames(draw, values=st.floats(1.0, 500.0)):
    """Up to 12 methods drawn from a few (success, cost) pairs, so that
    many tie, with zero costs, success 0 or 1 and real-valued costs; a
    quadratic phi; several increasing budgets; a table cap that is often
    small."""
    pairs = st.tuples(
        st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.sampled_from([0.0, 0.5, 1.0, 2.5])
    )
    real = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 20.0))
    methods = tuple(
        AttackMethod(f"m{i}", *draw(st.one_of(pairs, real)))
        for i in range(draw(st.integers(0, 12)))
    )
    budgets = sorted(draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=5, unique=True)))
    params = AttackerParams(
        value=draw(values),
        budget=0.0,
        cost_fn=CostFunctionSpec(
            linear_coeff=draw(st.sampled_from([0.0, 1.0, 2.5])),
            quadratic_coeff=draw(st.sampled_from([0.0, 0.05, 1.0])),
        ),
    )
    config = SolverConfig(
        cost_scale=draw(st.sampled_from([1, 2, 10])),
        max_table_cells=draw(st.sampled_from([20, 100, 600, 100_000])),
    )
    return bare_algorithm(methods), params, budgets, config


@settings(max_examples=100, deadline=None)
@given(reduction_subgames())
def test_forced_bound_covers_every_plan_holding_the_method(case):
    # every subset that holds method i and fits a budget's cells, scored
    # as the DP scores it (phi at its cells / scale), stays within the
    # margin below the bound; the known plan's objective is one of them
    alg, params, budgets, config = case
    scale = config.cost_scale
    methods = tuple(sorted(alg.attacks, key=lambda m: m.id))
    cells = [_cells(k, scale, up=False) for k in budgets]
    weights = _cost_cells([m.cost for m in methods], scale, config.max_table_cells)
    bound, known, margin = _forced_bounds(methods, weights, params, cells, scale)
    n = len(methods)
    masks = (np.arange(1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
    keep = np.array([1.0 - m.success for m in methods])
    cost = masks @ np.array(weights, dtype=float)
    scored = params.value * (1.0 - np.where(masks, keep, 1.0).prod(axis=1)) - _penalty(
        params.cost_fn, cost / scale
    )
    for b, limit in enumerate(cells):
        fits = cost <= limit
        assert known[b] <= scored[fits].max() + margin[b]
        for i in range(n):
            holding = scored[fits & masks[:, i]]
            if holding.size:
                assert holding.max() <= bound[b, i] + margin[b]


@settings(max_examples=300, deadline=None)
@given(reduction_subgames(st.one_of(st.floats(1.0, 500.0), st.sampled_from([0.0, -5.0]))))
def test_hybrid_plans_equal_the_unreduced_dp(case):
    # every budget the unreduced table fits goes to the DP, and every DP
    # answer is the unreduced DP's plan, by repr
    alg, params, budgets, config = case
    unbounded = replace(config, max_table_cells=10**9)
    for k, result in zip(budgets, hybrid_plans(alg, params, budgets, config)):
        fits = dp_table_fits(len(alg.attacks), k, config)
        assert result.solver == "dp" or not fits
        if result.solver == "dp":
            want = solve_dp(alg, replace(params, budget=k), unbounded)
            assert repr(result.plan) == repr(want)


def test_a_budgets_route_does_not_depend_on_a_larger_budget():
    # m6's 110 cells reach no table at budget 10.25 (102 cells); the bound
    # there once read them capped at the largest budget's table, which
    # left m5 out beside budget 11 but not alone, and so changed the route
    free = tuple(AttackMethod(f"m{i}", 0.1, 0.0) for i in range(4))
    paid = (
        AttackMethod("m4", 0.3, 2.5),
        AttackMethod("m5", 0.0, 9.75),
        AttackMethod("m6", 0.46875, 11.0),
    )
    alg = bare_algorithm(free + paid)
    params = AttackerParams(value=1.0, budget=0.0, cost_fn=CostFunctionSpec(0.0, 0.0))
    config = SolverConfig(cost_scale=10, max_table_cells=515)
    alone = hybrid_plans(alg, params, (10.25,), config)
    assert hybrid_plans(alg, params, (10.25, 11.0), config)[:1] == alone


def test_utility_never_falls_as_the_budget_grows():
    # 400 methods: the unreduced table fits no budget from 25 on, where the
    # greedy's utility fell as the budget grew; the reduced ones all fit
    alg = bare_algorithm(wide_methods(np.random.default_rng(1), 400))
    params = AttackerParams(value=300.0, budget=0.0)
    results = hybrid_plans(alg, params, (10.0, 20.0, 25.0, 30.0, 40.0))
    assert [r.solver for r in results] == ["dp"] * 5
    utilities = [r.plan.utility for r in results]
    assert utilities == sorted(utilities)
