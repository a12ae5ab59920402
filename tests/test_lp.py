import builtins
import dataclasses
import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cryptomix.baselines
import cryptomix.lp
import cryptomix.robust
from cryptomix import (
    SINGLE_OBJECTIVES,
    Constraint,
    InfeasibleDefender,
    LinearProgram,
    LpSolution,
    NotOptimal,
    ScenarioSet,
    alternate_optimum_gap,
    breach_regret_matrix,
    check_dual_certificate,
    compare_strategies,
    defender_polytope,
    evaluate_all,
    load_bundled_scenario,
    random_vertex_strategy,
    regret_matrix,
    scenario_table,
    single_objective_strategy,
    solve_lp,
    solve_maximin,
    solve_minimax_regret,
    solve_stackelberg,
    solve_unconstrained_case,
)
from cryptomix.model import _weighted_sum
from helpers import distinct_scenario_rows, random_feasible_instance, run_python


def simple_max():
    return LinearProgram(
        sense="max",
        objective=(3.0, 2.0),
        constraints=(
            Constraint((1.0, 1.0), "<=", 4.0, "cap"),
            Constraint((1.0, 0.0), "<=", 2.0, "xcap"),
        ),
    )


def test_solve_simple_max_vertex():
    sol = solve_lp(simple_max())
    assert sol.values == pytest.approx((2.0, 2.0))
    assert sol.objective_value == pytest.approx(10.0)
    assert sol.binding == ("cap", "xcap")


def test_unbounded_detected():
    lp = LinearProgram(sense="max", objective=(1.0,), constraints=())
    with pytest.raises(NotOptimal) as raised:
        solve_lp(lp)
    assert type(raised.value) is NotOptimal
    assert str(raised.value) == "LP ended with status 'unbounded'"


def test_infeasible_detected():
    floor = Constraint((1.0,), ">=", 2.0, "floor")
    lp = LinearProgram("max", (1.0,), (floor,), upper_bounds=(1.0,))
    with pytest.raises(InfeasibleDefender) as raised:
        solve_lp(lp, "capped LP")
    assert str(raised.value) == "capped LP infeasible: its constraints admit no point"


def test_equality_and_ge_relations():
    lp = LinearProgram(
        sense="min",
        objective=(1.0, 1.0),
        constraints=(
            Constraint((1.0, 1.0), "=", 2.0, "sum"),
            Constraint((1.0, 0.0), ">=", 0.5, "floor"),
        ),
    )
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(2.0)
    assert "sum" in sol.binding


def test_binding_is_relative_to_a_small_row():
    # at (1, 0) the small row holds 2e-12 against 3e-12, a third below its
    # cap, though within BIND_EPS * (1 + |rhs|) of it
    lp = LinearProgram(
        sense="max",
        objective=(1.0, 0.5),
        constraints=(
            Constraint((1.0, 1.0), "=", 1.0, "simplex"),
            Constraint((2e-12, 1e-12), "<=", 3e-12, "small"),
        ),
    )
    sol = solve_lp(lp)
    assert sol.values == (1.0, 0.0)
    assert sol.binding == ("simplex",)


def test_dual_certificate_small_residual():
    for lp in (
        simple_max(),
        LinearProgram(
            sense="min",
            objective=(2.0, 3.0),
            constraints=(
                Constraint((1.0, 1.0), ">=", 1.0, "floor"),
                Constraint((1.0, -1.0), "=", 0.25, "tie"),
            ),
        ),
    ):
        assert check_dual_certificate(lp, solve_lp(lp)) <= 1e-8


def test_alternate_optimum_gap_zero_for_unique_vertex():
    lp = simple_max()
    sol = solve_lp(lp)
    assert alternate_optimum_gap(lp, sol) <= 1e-9


def test_alternate_optimum_gap_positive_on_degenerate_objective():
    lp = LinearProgram(
        sense="max",
        objective=(1.0, 1.0),
        constraints=(Constraint((1.0, 1.0), "<=", 1.0, "cap"),),
    )
    sol = solve_lp(lp)
    assert alternate_optimum_gap(lp, sol) == pytest.approx(1.0, abs=1e-7)


def test_free_variables_via_bounds():
    lp = LinearProgram(
        sense="min",
        objective=(0.0, 1.0),
        constraints=(Constraint((1.0, -1.0), "<=", 0.0, "link"),),
        lower_bounds=(1.0, None),
        upper_bounds=(2.0, None),
    )
    sol = solve_lp(lp)
    # y >= x and x >= 1, so min y = 1
    assert sol.objective_value == pytest.approx(1.0)
    listed = replace(lp, lower_bounds=[1.0, None], upper_bounds=[2.0, None])
    assert listed == lp and solve_lp(listed) == sol


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint((1.0,), "<", 1.0, "bad-relation")
    with pytest.raises(ValueError):
        LinearProgram(
            sense="max",
            objective=(1.0, 2.0),
            constraints=(Constraint((1.0,), "<=", 1.0, "short"),),
        )
    with pytest.raises(ValueError):
        LinearProgram(sense="best", objective=(1.0,), constraints=())


def test_an_lp_without_variables_is_refused():
    with pytest.raises(ValueError, match="^LP has no variables$"):
        solve_lp(LinearProgram("max", (), ()))


def test_a_repeated_constraint_label_is_refused():
    # duals and binding labels are keyed by label: a second "cap" row would
    # lose its dual
    rows = (Constraint((1.0,), "<=", 1.0, "cap"), Constraint((2.0,), "<=", 3.0, "cap"))
    with pytest.raises(ValueError, match="^repeated constraint label 'cap'$"):
        LinearProgram("max", (1.0,), rows)


# every LP the defender, robust and baseline layers solve, with the context
# its status errors name; `table` is a scenario table of the feasible
# bundled instance
LP_SITES = [
    ("defender LP", lambda inst, table: solve_stackelberg(inst)),
    ("scenario k=11: LP", lambda inst, table: scenario_table(inst, ScenarioSet(table.budgets))),
    ("maximin LP", solve_maximin),
    ("minimax-regret LP", solve_minimax_regret),
    ("unconstrained-case LP", lambda inst, table: solve_unconstrained_case(inst)),
    ("baseline LP", lambda inst, table: single_objective_strategy(inst, "min_latency")),
    ("defender LP", lambda inst, table: compare_strategies(inst, [], evaluate_all(inst))),
]
SITE_IDS = ["stackelberg", "scenario", "maximin", "regret", "unconstrained", "baseline", "compare"]


@pytest.fixture(scope="module")
def feasible_table(instance, scenarios):
    return scenario_table(instance, scenarios)


@pytest.mark.parametrize("context, site", LP_SITES, ids=SITE_IDS)
def test_lp_sites_raise_infeasible(instance, feasible_table, context, site):
    tight = replace(instance, budgets=replace(instance.budgets, r_min=0.9))
    with pytest.raises(InfeasibleDefender, match=context + " infeasible"):
        site(tight, feasible_table)


def fake_runs(monkeypatch, which=None, status="kUnbounded"):
    """Make HiGHS report a model status, unbounded unless named: on every
    run from now on, or only on the `which`-th of them, counted from 1."""
    original = cryptomix.lp.linprog
    calls = itertools.count(1)

    def run(model):
        if which is None or next(calls) == which:
            core, _ = cryptomix.lp._highs()
            return cryptomix.lp._Run(getattr(core.HighsModelStatus, status), 0)
        return original(model)

    monkeypatch.setattr(cryptomix.lp, "linprog", run)


@pytest.mark.parametrize("context, site", LP_SITES, ids=SITE_IDS)
def test_lp_sites_raise_not_optimal(monkeypatch, instance, feasible_table, context, site):
    fake_runs(monkeypatch)
    with pytest.raises(NotOptimal, match=context + " ended with status 'unbounded'") as raised:
        site(instance, feasible_table)
    assert type(raised.value) is NotOptimal


def test_scenario_breach_lp_raises_not_optimal(monkeypatch, instance, scenarios):
    # the scenario table solves the first budget's utility LP, then its breach LP
    fake_runs(monkeypatch, which=2)
    with pytest.raises(NotOptimal, match="scenario k=11: breach LP ended"):
        scenario_table(instance, scenarios)


def test_alternate_optimum_gap_names_a_failed_probe(monkeypatch):
    lp = simple_max()
    sol = solve_lp(lp)
    # the probes run max x[0], min x[0], max x[1], min x[1]
    fake_runs(monkeypatch, which=4)
    context = r"optimal face probe: min x\[1\]"
    with pytest.raises(NotOptimal, match=f"^{context} ended with status 'unbounded'$"):
        alternate_optimum_gap(lp, sol)


@pytest.mark.parametrize("status", ["kInfeasible", "kModelError"])
def test_alternate_optimum_gap_reports_an_infeasible_probe_as_not_optimal(monkeypatch, status):
    # the optimal face holds the solution, so an infeasible probe is a
    # solver fault (exit 3), not an empty resource polytope (exit 2)
    lp = simple_max()
    sol = solve_lp(lp)
    fake_runs(monkeypatch, which=2, status=status)
    context = r"optimal face probe: min x\[0\]"
    with pytest.raises(NotOptimal, match=f"^{context} ended infeasible or with a model error$") as raised:
        alternate_optimum_gap(lp, sol)
    assert type(raised.value) is NotOptimal


# ------------------------------------------------ HiGHS bindings vs linprog


def scipy_reference(lp):
    """scipy.optimize.linprog(method="highs-ds") on the program, with the
    rows in solve_lp's order."""
    from scipy.optimize import linprog

    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for con in lp.constraints:
        sign = -1.0 if con.relation == ">=" else 1.0
        a, b = (a_eq, b_eq) if con.relation == "=" else (a_ub, b_ub)
        a.append(sign * np.asarray(con.coeffs))
        b.append(sign * con.rhs)
    return linprog(
        (-1.0 if lp.sense == "max" else 1.0) * np.asarray(lp.objective),
        A_ub=np.vstack(a_ub) if a_ub else None,
        b_ub=np.asarray(b_ub) if a_ub else None,
        A_eq=np.vstack(a_eq) if a_eq else None,
        b_eq=np.asarray(b_eq) if a_eq else None,
        bounds=lp.bounds_list(),
        method="highs-ds",
    )


def bitwise(values):
    return [float(v).hex() for v in values]


# small integers and halves, with many zeros, keep degenerate, infeasible
# and unbounded programs common
_coeffs = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, -0.5, 3.0, 0.25])


@st.composite
def programs(draw):
    n = draw(st.integers(1, 4))
    constraints = tuple(
        cryptomix.Constraint(
            tuple(draw(_coeffs) for _ in range(n)),
            draw(st.sampled_from(("<=", ">=", "="))),
            draw(st.sampled_from([0.0, 1.0, -1.0, 2.5, 4.0])),
            f"row{i}",
        )
        for i in range(draw(st.integers(0, 5)))
    )
    lower = tuple(draw(st.sampled_from([0.0, 0.0, None, -1.0])) for _ in range(n))
    upper = tuple(draw(st.sampled_from([None, None, 1.0, 3.0])) for _ in range(n))
    return LinearProgram(
        draw(st.sampled_from(("max", "min"))),
        tuple(draw(_coeffs) for _ in range(n)),
        constraints,
        lower,
        upper,
    )


def assert_equals_scipy(lp):
    """solve_lp(lp) against a fresh scipy_reference(lp): the same outcome
    (an optimum, InfeasibleDefender for scipy's status 2 or NotOptimal for
    its status 3) and iteration count, and bitwise the same point,
    objective, duals and bound marginals."""
    runs = []
    original = cryptomix.lp.linprog

    def recording(model):
        runs.append(original(model))
        return runs[-1]

    ref = scipy_reference(lp)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cryptomix.lp, "linprog", recording)
        if ref.status not in (0, 2, 3):
            with pytest.raises(RuntimeError, match="LP solver failed"):
                solve_lp(lp)
            return
        if ref.status != 0:
            error = {2: InfeasibleDefender, 3: NotOptimal}[ref.status]
            with pytest.raises(error) as raised:
                solve_lp(lp)
            assert type(raised.value) is error
        else:
            sol = solve_lp(lp)
    assert len(runs) == 1 and runs[0].nit == ref.nit
    if ref.status != 0:
        return
    assert bitwise(sol.values) == bitwise(ref.x)
    assert sol.objective_value == _weighted_sum(lp.objective, ref.x)
    ineq, eq = iter(ref.ineqlin.marginals), iter(ref.eqlin.marginals)
    want = {}
    for con in lp.constraints:
        raw = float(next(eq if con.relation == "=" else ineq))
        want[con.label] = -raw if con.relation == ">=" else raw
    assert list(sol.duals) == list(want)
    assert bitwise(sol.duals.values()) == bitwise(want.values())
    assert bitwise(sol.reduced_lower) == bitwise(ref.lower.marginals)
    assert bitwise(sol.reduced_upper) == bitwise(ref.upper.marginals)


@settings(max_examples=300, deadline=None)
@given(programs())
def test_solve_lp_equals_scipy_linprog(lp):
    assert_equals_scipy(lp)


# ------------------------------------------- one HiGHS object, cached models

_OBJECTIVE_COEFFS = (0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0)


@st.composite
def constraint_sets(draw):
    """(n, constraints, lower, upper) with signed zeros in the right-hand
    sides and bounds; a lower bound of +inf is a HiGHS model error."""
    n = draw(st.integers(1, 4))
    constraints = tuple(
        Constraint(
            tuple(draw(_coeffs) for _ in range(n)),
            draw(st.sampled_from(("<=", ">=", "="))),
            draw(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])),
            f"row{i}",
        )
        for i in range(draw(st.integers(0, 4)))
    )
    lower = tuple(draw(st.sampled_from([0.0, -0.0, None, -1.0] * 3 + [math.inf])) for _ in range(n))
    upper = tuple(draw(st.sampled_from([None, None, 1.0, 3.0, 0.0, -0.0])) for _ in range(n))
    return n, constraints, lower, upper


@st.composite
def instance_polytopes(draw):
    """The defender polytope of a random instance, as a constraint set: its
    rows span several orders of magnitude, as the bundled one's do."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    inst = random_feasible_instance(rng)
    return len(inst.algorithms), defender_polytope(inst), None, None


def flip_zeros(shape):
    """The same constraint set with the sign of every zero rhs and bound
    flipped: equal by ==, though HiGHS can answer the two differently."""
    n, constraints, lower, upper = shape

    def flip(v):
        return -v if v == 0 else v

    def flip_all(bounds):
        return None if bounds is None else tuple(map(flip, bounds))

    flipped = tuple(replace(con, rhs=flip(con.rhs)) for con in constraints)
    return n, flipped, flip_all(lower), flip_all(upper)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.one_of(constraint_sets(), instance_polytopes()), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_solve_lp_is_history_independent(shapes, rng):
    """Many objectives over a few constraint sets and their signed-zero
    twins, solved in a shuffled order through the shared HiGHS object and
    the cached models, each equal to a fresh linprog."""
    shapes = shapes + [flip_zeros(shape) for shape in shapes]
    lps = [
        LinearProgram(
            rng.choice(("max", "min")),
            tuple(
                rng.choice(_OBJECTIVE_COEFFS) if rng.random() < 0.5 else rng.uniform(-2.0, 2.0)
                for _ in range(n)
            ),
            constraints,
            lower,
            upper,
        )
        for n, constraints, lower, upper in shapes
        for _ in range(6)
    ]
    rng.shuffle(lps)
    for lp in lps:
        assert_equals_scipy(lp)


def signed_zero_program(zero):
    """min x + y subject to x - y <= zero, x + y >= zero and x, y >= zero:
    HiGHS puts the vertex at (zero, zero), keeping the sign of the bound."""
    return LinearProgram(
        "min",
        (1.0, 1.0),
        (
            Constraint((1.0, -1.0), "<=", zero, "diff"),
            Constraint((1.0, 1.0), ">=", zero, "sum"),
        ),
        (zero, zero),
    )


def test_negative_zero_program_after_its_zero_twin():
    # -0.0 == 0.0, so a cache keyed on the tuples alone would serve the
    # second program the first one's model
    for zero in (0.0, -0.0, 0.0):
        sol = solve_lp(signed_zero_program(zero))
        assert bitwise(sol.values) == bitwise((zero, zero))
        assert_equals_scipy(signed_zero_program(zero))


def test_solve_lp_threads_match_one_thread(instance):
    rng = random.Random(7)
    polytope = defender_polytope(instance)
    n = len(instance.algorithms)
    lps = [
        LinearProgram(
            rng.choice(("max", "min")), tuple(rng.uniform(-1.0, 1.0) for _ in range(n)), polytope
        )
        for _ in range(50)
    ]
    want = [repr(solve_lp(lp)) for lp in lps]
    start = threading.Barrier(4)

    def solve_shuffled(seed):
        order = list(range(len(lps)))
        random.Random(seed).shuffle(order)
        got = [""] * len(lps)
        start.wait()
        for i in order:
            got[i] = repr(solve_lp(lps[i]))
        return got

    # switch threads often, so that unguarded shared state would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(solve_shuffled, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert results == [want] * 4


def test_lp_status_cases_are_covered():
    """The random programs above reach every outcome the solver reports."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(programs())
    def collect(lp):
        try:
            seen.add(type(solve_lp(lp)))
        except NotOptimal as exc:
            seen.add(type(exc))

    collect()
    assert seen == {LpSolution, InfeasibleDefender, NotOptimal}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda run: run._replace(x=run.x + np.array([0.0, 1.0])),  # breaks cap: 2 + 3 > 4
        lambda run: run._replace(x=run.x - np.array([3.0, 0.0])),  # breaks x >= 0
        lambda run: run._replace(x=np.array([np.nan, 2.0])),
        lambda run: run._replace(fun=float("nan")),
    ],
    ids=["row", "bound", "nan-point", "nan-objective"],
)
def test_broken_optimal_point_raises(monkeypatch, corrupt):
    original = cryptomix.lp.linprog
    monkeypatch.setattr(cryptomix.lp, "linprog", lambda model: corrupt(original(model)))
    with pytest.raises(RuntimeError, match="breaks a bound or row"):
        solve_lp(simple_max())


def test_non_finite_program_rejected():
    bad = LinearProgram("max", (1.0,), (Constraint((float("nan"),), "<=", 1.0, "a"),))
    with pytest.raises(ValueError, match="finite"):
        solve_lp(bad)
    with pytest.raises(ValueError, match="finite"):
        solve_lp(LinearProgram("max", (1.0,), (Constraint((1.0,), "<=", float("inf"), "a"),)))
    with pytest.raises(ValueError, match="finite"):
        solve_lp(LinearProgram("max", (float("inf"),), ()))
    with pytest.raises(ValueError, match="finite"):
        solve_lp(LinearProgram("max", (1.0, float("nan")), ()))


def costed(objective):
    """A program over one polytope whose optimum has nonzero row duals and
    marginals at both a lower and an upper bound."""
    constraints = (
        Constraint((1.0, 1.0, 1.0, 1.0), "=", 1.0, "simplex"),
        Constraint((1.0, 0.0, 0.0, 0.0), "<=", 0.6, "cap"),
        Constraint((0.0, 1.0, 0.0, 0.0), ">=", 0.1, "floor"),
    )
    return LinearProgram("max", objective, constraints, upper_bounds=(None, None, 0.3, None))


def record_costs(mp):
    """Record the cost vector of every HiGHS run; returns the list."""
    costs = []
    original = cryptomix.lp.linprog

    def recording(model):
        costs.append(np.array(model.col_cost_))
        return original(model)

    mp.setattr(cryptomix.lp, "linprog", recording)
    return costs


@pytest.mark.parametrize("power", [31, 67, 996])
def test_a_huge_cost_is_solved_in_other_units(power):
    # HiGHS takes a cost of 1e20 or more as infinite, and fails on some
    # from about 1e11 on; such a cost reaches it scaled by a power of two
    # into [0.5, 1), and the duals and marginals are scaled back
    small = costed((0.75, -0.5, 0.25, -0.625))
    huge = costed(tuple(math.ldexp(c, power) for c in small.objective))
    with pytest.MonkeyPatch.context() as mp:
        costs = record_costs(mp)
        want = solve_lp(small)
        got = solve_lp(huge)
    assert bitwise(costs[0]) == bitwise(costs[1]) == bitwise(-np.array(small.objective))
    assert bitwise(got.values) == bitwise(want.values)
    assert got.binding == want.binding
    assert got.objective_value == math.ldexp(want.objective_value, power)
    assert got.duals == {k: math.ldexp(v, power) for k, v in want.duals.items()}
    for side in ("reduced_lower", "reduced_upper"):
        assert getattr(got, side) == tuple(math.ldexp(v, power) for v in getattr(want, side))
    assert want.duals["cap"] != 0 and want.reduced_lower[3] != 0 and want.reduced_upper[2] != 0
    assert check_dual_certificate(huge, got) <= 1e-7 * math.ldexp(1.0, power)


def test_a_cost_below_the_scaling_threshold_reaches_highs_as_it_is():
    largest = math.nextafter(cryptomix.lp._LARGE_COST, 0.0)
    objective = (largest, -3.0, 1e-300, 0.1)
    with pytest.MonkeyPatch.context() as mp:
        costs = record_costs(mp)
        solve_lp(costed(objective))
    assert bitwise(costs[0]) == bitwise(-np.array(objective))


def test_missing_highs_bindings_name_the_scipy_floor(monkeypatch, tmp_path):
    # a scipy whose package directory holds no HiGHS extension
    import scipy

    monkeypatch.delitem(sys.modules, cryptomix.lp._CORE, raising=False)
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    cryptomix.lp._highs.cache_clear()
    try:
        with pytest.raises(ImportError, match=r"scipy >= 1\.15"):
            solve_lp(simple_max())
    finally:
        cryptomix.lp._highs.cache_clear()


# each case below starts a fresh interpreter, so that the first LP, or
# scipy.optimize's first import, happens in the order the case names
_STACKELBERG = """
from cryptomix import load_bundled_scenario, solve_stackelberg
print(repr(solve_stackelberg(load_bundled_scenario()[0])))
"""
_LINPROG = """
from scipy.optimize import linprog
result = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0], [1.0, 3.0]], b_ub=[4.0, 6.0], method="highs-ds")
print(result.status, result.nit, [v.hex() for v in result.x], result.fun.hex())
"""
_SHARED_CORE = """
import sys
import cryptomix.lp
assert cryptomix.lp._highs()[0] is sys.modules["scipy.optimize._highspy._core"]
"""


def test_highs_bindings_first_then_scipy_optimize():
    first = run_python(_STACKELBERG + "import sys; assert 'scipy.optimize' not in sys.modules\n")
    assert run_python(_STACKELBERG + _LINPROG + _SHARED_CORE) == first + run_python(_LINPROG)


def test_scipy_optimize_first_then_highs_bindings():
    code = "import scipy.optimize\n" + _STACKELBERG + _SHARED_CORE
    assert run_python(code) == run_python(_STACKELBERG)


def test_scipy_imported_after_the_first_lp_shares_the_bindings():
    # the first LP loads the extension without the scipy package; a later
    # `import scipy` changes neither the module nor the answers
    code = (
        _STACKELBERG
        + "import sys; assert 'scipy' not in sys.modules\nimport scipy\n"
        + _STACKELBERG
        + _SHARED_CORE
    )
    assert run_python(code) == 2 * run_python(_STACKELBERG)


def test_a_failed_first_load_falls_back_to_importing_scipy(instance):
    # the extension fails to load on its own, as where scipy's __init__
    # must first set up its shared-library search path: the loader
    # imports the scipy package and loads the file again
    lp = LinearProgram("max", (1.0,) * len(instance.algorithms), defender_polytope(instance))
    code = """
import importlib.machinery, sys

loads = []
create = importlib.machinery.ExtensionFileLoader.create_module

def fails_without_scipy(self, spec):
    loads.append(spec.name)
    if spec.name == "scipy.optimize._highspy._core" and "scipy" not in sys.modules:
        raise ImportError("DLL load failed while importing _core")
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = fails_without_scipy

import cryptomix.lp
from cryptomix import LinearProgram, defender_polytope, load_bundled_scenario, solve_lp

instance = load_bundled_scenario()[0]
lp = LinearProgram("max", (1.0,) * len(instance.algorithms), defender_polytope(instance))
print(repr(solve_lp(lp)))
assert loads.count(cryptomix.lp._CORE) == 2, loads
assert cryptomix.lp._highs()[0] is sys.modules[cryptomix.lp._CORE]
assert "scipy" in sys.modules and "scipy.optimize" not in sys.modules
"""
    assert run_python(code) == repr(solve_lp(lp)) + "\n"


def test_threads_racing_to_the_first_lp_load_the_bindings_once(instance):
    lp = LinearProgram("max", (1.0,) * len(instance.algorithms), defender_polytope(instance))
    code = """
import importlib.machinery, sys
from concurrent.futures import ThreadPoolExecutor
import threading

loads = []
create = importlib.machinery.ExtensionFileLoader.create_module

def counted(self, spec):
    loads.append(spec.name)
    return create(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = counted

import cryptomix.lp
from cryptomix import LinearProgram, defender_polytope, load_bundled_scenario, solve_lp

instance = load_bundled_scenario()[0]
lp = LinearProgram("max", (1.0,) * len(instance.algorithms), defender_polytope(instance))
cryptomix.lp._highs.cache_clear()
start = threading.Barrier(4)

def first_solve(_):
    start.wait()
    return repr(solve_lp(lp))

sys.setswitchinterval(1e-6)
with ThreadPoolExecutor(max_workers=4) as pool:
    answers = list(pool.map(first_solve, range(4)))
assert loads.count(cryptomix.lp._CORE) == 1, loads
assert len(set(answers)) == 1, answers
print(answers[0])
"""
    assert run_python(code) == repr(solve_lp(lp)) + "\n"


# --------------------------------------------------- dual certificates


def record_programs(mp):
    """Record every program that reaches the LP layer's one solve path,
    whichever reader called it; returns the list it appends to."""
    programs = []
    original = cryptomix.lp._optimum

    def recording(lp, context):
        programs.append(lp)
        return original(lp, context)

    mp.setattr(cryptomix.lp, "_optimum", recording)
    return programs


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_certificates_on_random_instances(seed):
    """Every LP of the defender and robust layers, through solve_lp's dual
    and bound-marginal extraction, satisfies stationarity. The layers read
    only the point of some of them, so each recorded program is solved
    again through solve_lp."""
    rng = np.random.default_rng(seed)
    inst = random_feasible_instance(rng)
    budgets = tuple(sorted({float(k) for k in rng.integers(0, 61, 3)}))
    with pytest.MonkeyPatch.context() as mp:
        programs = record_programs(mp)
        solve_stackelberg(inst)
        table = scenario_table(inst, ScenarioSet(budgets))
        solve_minimax_regret(inst, table)
        solve_maximin(inst, table)
        solve_unconstrained_case(inst)
    # 1 + 2 per distinct scenario row (utility and breach LPs) + regret,
    # maximin, unconstrained
    assert len(programs) == 1 + 2 * distinct_scenario_rows(table) + 3
    for lp in programs:
        assert check_dual_certificate(lp, solve_lp(lp)) <= 1e-7


# ------------------------------------- point-only reads and one polytope


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
def test_point_reads_equal_solve_lp(seed, rng):
    """Every LP whose caller reads only the point and objective (scenario,
    minimax-regret, baseline and optimal-face programs) answers bitwise
    what solve_lp answers for the same program, solved again in a shuffled
    order; the polytope is kept per instance and equals a fresh build."""
    nprng = np.random.default_rng(seed)
    inst = random_feasible_instance(nprng)
    budgets = tuple(sorted({float(k) for k in nprng.integers(0, 61, 3)}))
    polytope = defender_polytope(inst)
    assert defender_polytope(inst) is polytope
    assert defender_polytope(replace(inst)) == polytope
    assert defender_polytope(replace(inst)) is not polytope

    read = []
    original = cryptomix.lp._optimal_point

    def recording(lp, context):
        read.append((lp, original(lp, context)))
        return read[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        for module in (cryptomix.lp, cryptomix.baselines, cryptomix.robust):
            mp.setattr(module, "_optimal_point", recording)
        table = scenario_table(inst, ScenarioSet(budgets))
        solve_minimax_regret(inst, table)
        for s in range(3):
            random_vertex_strategy(inst, s)
        for name in SINGLE_OBJECTIVES:
            single_objective_strategy(inst, name)
        eq = solve_stackelberg(inst)
        alternate_optimum_gap(eq.program, eq.solution)
    n = len(inst.algorithms)
    rows = distinct_scenario_rows(table)
    assert len(read) == 2 * rows + 1 + 3 + len(SINGLE_OBJECTIVES) + 2 * n
    rng.shuffle(read)
    for lp, (values, objective) in read:
        full = solve_lp(lp)
        assert bitwise(values) == bitwise(full.values)
        assert objective.hex() == full.objective_value.hex()


def reference_session(inst, scenarios) -> list:
    """The analyst session of the benchmark's reference workload, with 50
    fixed vertex seeds; returns its reports."""
    eq = solve_stackelberg(inst)
    table = scenario_table(inst, scenarios)
    mmr = solve_minimax_regret(inst, table)
    maximin = solve_maximin(inst, table)
    unconstrained = solve_unconstrained_case(inst)
    extras = [("mmr", mmr.strategy.probs), ("maximin", maximin.strategy.probs)]
    matrices = [regret_matrix(inst, table, extras), breach_regret_matrix(inst, table, extras)]
    strategies = [(f"random-{s}", random_vertex_strategy(inst, s).probs) for s in range(50)]
    strategies += [
        (name, single_objective_strategy(inst, name).probs) for name in SINGLE_OBJECTIVES
    ]
    rows = compare_strategies(inst, strategies, eq.evaluations)
    return [eq.report, table, mmr, maximin, unconstrained, *matrices, *rows]


def test_reference_session_lp_and_polytope_counts():
    """The reference session on the bundled scenario: 68 HiGHS runs on 3
    models, one per constraint set, and every LP over the defender
    polytope on the one tuple built for the instance."""
    inst, scenarios = load_bundled_scenario()  # a fresh instance, no polytope kept
    runs = []
    original = cryptomix.lp.linprog
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cryptomix.lp, "linprog", lambda model: runs.append(model) or original(model))
        programs = record_programs(mp)
        reference_session(inst, scenarios)
    # stackelberg, 2 per scenario, regret, maximin, unconstrained, 50
    # vertices, 3 single objectives and the comparison's leader LP
    assert len(runs) == len(programs) == 1 + 2 * len(scenarios) + 3 + 50 + 3 + 1 == 68
    # the polytope, the regret epigraph and the maximin epigraph
    assert len({id(model) for model in runs}) == 3
    polytope = defender_polytope(inst)
    over_polytope = [lp for lp in programs if lp.num_vars == len(inst.algorithms)]
    assert len(over_polytope) == 66  # all but the two epigraph LPs
    assert all(lp.constraints is polytope for lp in over_polytope)


_builtin_sum = sum


def compensated_sum(iterable, /, start=0):
    """The built-in sum() of Python 3.12 and later on floats: Neumaier's
    compensated summation after the first float, the compensation added at
    the end where it is nonzero and finite. Any other input is left to the
    built-in sum() of the running Python."""
    items = list(iterable)
    if not items or type(start) not in (int, float) or any(type(x) is not float for x in items):
        return _builtin_sum(items, start)
    total, rest = (start + items[0], items[1:]) if type(start) is int else (start, items)
    compensation = 0.0
    for x in rest:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def report_floats(value) -> list:
    """Every float in a report, walking dataclasses, mappings and sequences."""
    if isinstance(value, float):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    elif isinstance(value, dict):
        value = list(value.values())
    elif not isinstance(value, (list, tuple)):
        return []
    return [x for item in value for x in report_floats(item)]


def test_reference_session_values_do_not_depend_on_the_sum_builtin():
    """Strategy values are summed by one left-to-right loop, so a
    compensated built-in sum(), as from Python 3.12 on, moves no bit of
    the reference session's reports."""
    inst, scenarios = load_bundled_scenario()
    expected = [v.hex() for v in report_floats(reference_session(inst, scenarios))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builtins, "sum", compensated_sum)
        got = [v.hex() for v in report_floats(reference_session(inst, scenarios))]
    assert len(got) == len(expected) > 150
    moved = [i for i, (a, b) in enumerate(zip(expected, got)) if a != b]
    assert not moved, f"{len(moved)} of {len(expected)} values moved"
