"""Attacker subgame solvers: exact DP, sampled greedy, hybrid dispatch and
a brute-force oracle.

All solvers maximize value * P_succ(S) - phi(sum of costs) over method
subsets S within the budget, and rank plans identically (model.plan_key):
higher utility, then lower total cost, then the colexicographically
smallest id set, whose ids are compared from the largest down.

The DP applies that last rule to failure products, not to utilities. At
each cost cell it keeps the set whose failure product, as computed along
the id-order chain (one multiplication per method, ascending ids), is
smaller; on products that are exactly equal as so computed it keeps the
set without the newer method, which is the colex rule. Two sets whose
products differ by an ulp can still round to the same success
probability and utility (1 - 0.8 is 0.19999999999999996 while 0.5 * 0.4
is 0.2), and a prefix an ulp higher is dropped before the sets it would
grow into are compared; a method of success 1 makes every product 0, so
sets grown from prefixes dropped earlier would tie again. Rounded
multiplication is monotone, so the DP never loses utility by this: where
costs lie on its grid and add up exactly in floats (such as multiples of
0.5 at the default scale), its plan has the utility and total cost of
solve_brute_force's, but it can name other ids. At a value <= 0, with phi's coefficients >= 0, the
empty plan is the unique best and the DP returns it.

hybrid_plans shrinks the DP before it builds a table (bound, reduce, then
DP). With a_i = -log1p(-s_i), the DP's objective of a set of w cells is
value * (1 - exp(-sum a_i)) - phi(w / scale), concave in (w, sum a_i).
Its relaxation over fractional sets is bounded along the fractional
knapsack frontier in a_i / w_i order (Dantzig, 1957), and the tangent
plane at the relaxation's peak bounds every set that holds a given
method. A method whose bound falls below the objective of a known set
within the budget, the best ratio-order prefix, by more than a margin
for float error is left out (Ingargiola and Korsh, 1973). No set that
holds it can then be the DP's best cell. A cell whose set holds no
left-out method keeps its failure product bit for bit (the minimum over
fewer sets, one of which reached it), and every other cell can only fall
further below the best, so the DP over the rest picks the same best
cell, and there the same set unless an exact product tie broke the other
way over fewer candidates. tests/test_attacker.py checks the bound
against brute force and the plans against the unreduced DP by repr. The
reduction is skipped where the bound does not hold: a value <= 0, a phi
coefficient < 0 or a success outside [0, 1]. solve_dp never reduces; it
is the exact oracle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetNegative, TableTooLarge, TooManyMethods
from .model import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    CostFunctionSpec,
    EncryptionAlgorithm,
    failure_product,
    make_plan,
    plan_key,
)


# The greedy's coin accepts a method with this probability: SampleGreedy's
# sqrt(2) - 1, kept at 0.414 exactly so that every coin decision is fixed.
ACCEPT_PROB = 0.414

# hybrid_plans leaves a method out only where its forced-in bound falls
# below a known plan's objective by more than this share of value +
# phi(budget); the float error of the bound, of the known objective and
# of the DP's own utilities is some 1e-13 of that.
_BOUND_MARGIN = 1e-9
# The bound caps a method's mass -log1p(-s) at that of the float just
# below 1, so that s = 1 stays finite; value * 2**-53 is far below the
# margin.
_SURE_MASS = 53 * math.log(2.0)


@dataclass(frozen=True)
class SolverConfig:
    """The attacker solvers' settings: the DP's cost discretization
    (cost_scale cells per cost unit), its table-size guard, which is also
    the DP/greedy dispatch rule (dp_table_fits), and the greedy's RNG seed."""

    cost_scale: int = 10
    max_table_cells: int = 100_000
    rng_seed: int = 0


@dataclass(frozen=True)
class HybridResult:
    plan: AttackPlan
    solver: str  # "dp" or "greedy"


def _sorted_methods(algorithm: EncryptionAlgorithm) -> list[AttackMethod]:
    return sorted(algorithm.attacks, key=lambda m: m.id)


def solve_brute_force(
    algorithm: EncryptionAlgorithm, params: AttackerParams
) -> AttackPlan:
    """Exhaustive subset enumeration; the test oracle for the DP.

    Every subset is scored by make_plan and ranked by plan_key, so ties
    are between final utilities: sets whose failure products differ but
    round to the same utility tie here and go to the smaller total cost,
    then the colexicographically smaller ids. The DP ranks those products
    before rounding (see the module docstring), so on such ties the two
    agree on utility and cost but not always on ids.
    """
    methods = _sorted_methods(algorithm)
    if len(methods) > 25:
        raise TooManyMethods(f"{len(methods)} methods exceeds the 2^25 guard")
    if params.budget < 0:
        raise BudgetNegative(f"budget {params.budget} is negative")
    best = make_plan((), params)
    best_key = plan_key(best)
    for mask in range(1, 1 << len(methods)):
        subset = [m for j, m in enumerate(methods) if mask >> j & 1]
        plan = make_plan(subset, params)
        if plan.total_cost > params.budget:
            continue
        key = plan_key(plan)
        if key < best_key:
            best, best_key = plan, key
    return best


def _chain_indices(take: np.ndarray, weights: Sequence[int], layer: int, cell: int) -> list[int]:
    """Follow parent pointers down from (layer, cell) and return the taken
    method indices in ascending order."""
    chosen: list[int] = []
    for i in range(layer, -1, -1):
        if take[i, cell]:
            chosen.append(i)
            cell -= weights[i]
    chosen.reverse()
    return chosen


def _cells(amount: float, scale: int, up: bool) -> float:
    """amount in 1/scale cost cells: costs round up and budgets down, so a
    set whose cells fit a budget's cells fits the real budget too.

    A grid point keeps its cell: the decimal 2.3 is the float nearest 23/10,
    so it stays 23 cells although 2.3 * 10 evaluates to 22.999999999999996.
    An amount whose scaled value overflows is math.inf cells, more than any
    table holds; every other amount is an int.
    """
    scaled = amount * scale
    if math.isinf(scaled):
        return math.inf
    nearest = round(scaled)
    if nearest / scale == amount:
        return int(nearest)
    return math.ceil(scaled) if up else math.floor(scaled)


def _cost_cells(costs: Sequence[float], scale: int, limit: int) -> tuple[int, ...]:
    """min(_cells(cost, scale, up=True), limit) of every cost in one array
    pass: np.rint rounds half to even, as round does, and the integral
    floats up to limit convert exactly. A cost whose scaled value
    overflows is capped like any other."""
    amount = np.asarray(costs, dtype=float)
    with np.errstate(over="ignore"):
        scaled = amount * scale
    nearest = np.rint(scaled)
    cells = np.where(nearest / scale == amount, nearest, np.ceil(scaled))
    return tuple(map(int, np.minimum(cells, limit).tolist()))


def _penalty(spec: CostFunctionSpec, total_cost: np.ndarray) -> np.ndarray:
    """phi over an array of total costs, elementwise and bitwise as phi:
    np.float_power calls the C pow that Python's x**2 calls, where
    np.power(x, 2) squares as x * x and can differ in the last bit."""
    return spec.linear_coeff * total_cost + spec.quadratic_coeff * np.float_power(total_cost, 2.0)


def _fits(n_methods: int, cells: float, config: SolverConfig) -> bool:
    """dp_table_fits for a budget of `cells` cells."""
    return max(n_methods, 1) * (cells + 1) <= config.max_table_cells


def dp_table_fits(n_methods: int, budget: float, config: SolverConfig = SolverConfig()) -> bool:
    """The table-size rule shared by every caller of the DP, and the only
    rule that sends an attacker subgame to the DP or the greedy: max(n, 1)
    rows, as build_dp_table allocates one even for no methods, x (budget
    cells + 1) within config.max_table_cells. A budget whose scaled value
    overflows never fits."""
    return _fits(n_methods, _cells(budget, config.cost_scale, up=False), config)


@dataclass(frozen=True, eq=False)
class DpTable:
    """The exact DP solved once up to a budget.

    minfail[c] is the smallest failure product among subsets whose scaled
    costs sum to exactly c, and take[j, c] says whether the set chosen at
    (method j, cell c) contains method j. Neither depends on any cell above
    c, so one table answers every budget up to the one it was built at,
    bitwise as a table built at that budget would.
    """

    methods: tuple[AttackMethod, ...]
    weights: tuple[int, ...]
    cost_scale: int
    minfail: np.ndarray
    take: np.ndarray


def build_dp_table(
    algorithm: EncryptionAlgorithm, budget: float, config: SolverConfig = SolverConfig()
) -> DpTable:
    """Fill the DP table for every cost cell up to `budget`.

    Failure products accumulate over methods in ascending id order, matching
    make_plan bit for bit. An exact tie in the failure product keeps the set
    without the new method, the colexicographically smaller id set
    (plan_key).
    """
    if budget < 0:
        raise BudgetNegative(f"budget {budget} is negative")
    methods = tuple(_sorted_methods(algorithm))
    n = len(methods)
    scale = config.cost_scale
    size = _cells(budget, scale, up=False) + 1
    if not dp_table_fits(n, budget, config):
        raise TableTooLarge(
            f"{n} methods x {size} cost levels exceeds "
            f"{config.max_table_cells} table cells"
        )
    # a weight at or past the table size reaches no cell and its method is
    # skipped, so capping weights at the size keeps them small ints
    weights = _cost_cells([m.cost for m in methods], scale, size)
    return _fill_table(methods, weights, size, scale)


def _fill_table(
    methods: tuple[AttackMethod, ...], weights: tuple[int, ...], size: int, scale: int
) -> DpTable:
    """build_dp_table's layer loop over methods in id order, whose weights
    are capped at or past size. Method j is taken at a cell only where its
    candidate product is strictly smaller: every set at layer j - 1 holds
    methods below j only, so on an exact tie the set kept, the one without
    j, is the colex-smaller, and adding j to the sets of a lower cell keeps
    their order. Where products carry no rounding, each cell's set is the
    colex-first of the sets of least product there."""
    n = len(methods)
    minfail = np.full(size, np.inf)
    minfail[0] = 1.0
    take = np.zeros((max(n, 1), size), dtype=bool)
    # one candidate buffer for the whole table; cells below a method's
    # weight are never written, as it cannot reach them
    cand = np.empty(size)
    with np.errstate(invalid="ignore"):  # inf * 0 when success is 1
        for j, (m, w) in enumerate(zip(methods, weights)):
            if w >= size:
                continue
            reach, prev = cand[w:], minfail[w:]
            np.multiply(minfail[: size - w], 1.0 - m.success, out=reach)
            # a nan candidate (inf * 0) is never less, so never taken
            np.less(reach, prev, out=take[j, w:])
            # fmin passes over a nan candidate
            np.fmin(prev, reach, out=prev)
    return DpTable(methods, weights, scale, minfail, take)


def dp_plans(
    table: DpTable, params: AttackerParams, budgets: Sequence[float]
) -> list[AttackPlan]:
    """Best plan at each budget, none above the table's, for the value and
    cost function in params (params.budget is not read).

    The utility value * (1 - minfail[c]) - phi(c / scale) is computed once
    for every cell; a budget's answer is the first cell of highest utility
    among the cells it covers, then the chain walk from that cell.

    At a value <= 0, with phi's coefficients >= 0, no method adds utility
    and none costs less than nothing, so the ranking's unique best plan is
    the empty one, and it is the answer: the smallest failure product at
    a cell is then the worst set there, not the best.
    """
    scale = table.cost_scale
    size = table.minfail.size
    spec = params.cost_fn
    empty = params.value <= 0 and spec.linear_coeff >= 0 and spec.quadratic_coeff >= 0
    if not empty:
        penalty = _penalty(spec, np.arange(size) / scale)
        # unreachable cells (minfail = inf) are -inf, whatever the value's sign
        reachable = table.minfail < np.inf
        utility = np.full(size, -np.inf)
        utility[reachable] = params.value * (1.0 - table.minfail[reachable]) - penalty[reachable]
    n = len(table.methods)
    plans = []
    made: dict[int, AttackPlan] = {}  # by best cell: budgets often share one
    for budget in budgets:
        if budget < 0:
            raise BudgetNegative(f"budget {budget} is negative")
        cells = _cells(budget, scale, up=False) + 1
        if cells > size:
            raise ValueError(f"budget {budget} needs {cells} cost cells, the table has {size}")
        if empty:
            plans.append(make_plan((), params))
            continue
        # cell 0 is not necessarily the empty set: zero-cost methods land there
        best = int(utility[:cells].argmax())
        if best not in made:
            chosen = _chain_indices(table.take, table.weights, n - 1, best) if n else []
            made[best] = make_plan([table.methods[i] for i in chosen], params)
        plans.append(made[best])
    return plans


def solve_dp(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: SolverConfig = SolverConfig(),
) -> AttackPlan:
    """Exact optimum under scaled-integer costs: the best value *
    (1 - minfail[c]) - phi(c / scale) over all reachable cells c within the
    budget, from a table built at that budget. Costs are rounded up to
    whole cells and the budget down (_cells), so the plan keeps to the real
    budget; on the 1/scale grid nothing is rounded."""
    return dp_plans(build_dp_table(algorithm, params.budget, config), params, (params.budget,))[0]


def _coins(rng_seed: int, coins: Optional[Iterable[float]]) -> Iterator[float]:
    """One uniform per step: from the seeded RNG, or replayed from coins,
    which raises ValueError when the sequence runs out."""
    if coins is None:
        rng = np.random.default_rng(rng_seed)
        while True:
            yield float(rng.random())
    drawn = 0
    for drawn, coin in enumerate(coins, 1):
        yield float(coin)
    raise ValueError(
        f"coins ran out at draw {drawn + 1}: the greedy needs at least "
        f"{drawn + 1} coins, one per step, and was given {drawn}"
    )


def solve_sample_greedy(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: SolverConfig = SolverConfig(),
    coins: Optional[Iterable[float]] = None,
) -> AttackPlan:
    """Randomized density greedy with a per-iteration acceptance coin.

    Phase 1 records the best feasible singleton. Phase 2 repeatedly takes
    the remaining feasible method with the highest marginal density
    (value * marginal success gain - cost) / cost, flips a coin, and either
    adds it (coin < ACCEPT_PROB) or discards it permanently. The better of
    the greedy set and the singleton is returned; the empty plan wins ties.
    A negative budget raises BudgetNegative, as in the other solvers.

    The coins come from an RNG seeded with config.rng_seed. `coins`
    optionally replaces it with an explicit sequence of uniforms for
    deterministic replay; it must hold one coin per step.

    Densities change only when a coin accepts, since only then do the
    failure product and the residual budget move. So one numpy pass per
    acceptance ranks every live feasible method (density descending, then
    cost, then id order, as a stable sort gives), and the steps until the
    next acceptance walk that ranking in Python.
    """
    if params.budget < 0:
        raise BudgetNegative(f"budget {params.budget} is negative")
    draw = _coins(config.rng_seed, coins).__next__
    methods = _sorted_methods(algorithm)
    success = np.array([m.success for m in methods], dtype=float)
    cost = np.array([m.cost for m in methods], dtype=float)
    budget = params.budget

    # singleton utility value * (1 - 1.0 * (1 - s)) - phi(0.0 + c), as make_plan
    total = 0.0 + cost
    single = params.value * (1.0 - (1.0 - success)) - _penalty(params.cost_fn, total)
    fits = np.flatnonzero(cost <= budget)
    best_single = None
    if fits.size:
        first = fits[np.lexsort((total[fits], -single[fits]))[0]]
        best_single = make_plan([methods[first]], params)

    chosen: list[int] = []
    live = np.ones(len(methods), dtype=bool)
    residual = budget
    fail_s = 1.0
    while True:
        feasible = np.flatnonzero(live & (cost <= residual))
        if not feasible.size:
            break
        c = cost[feasible]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            density = (params.value * fail_s * success[feasible] - c) / c
        density[c == 0] = np.inf  # zero-cost methods are free improvements
        for i in feasible[np.lexsort((c, -density))].tolist():
            live[i] = False
            if draw() < ACCEPT_PROB:
                chosen.append(i)
                residual -= methods[i].cost
                fail_s = failure_product(methods[k] for k in chosen)
                break
        else:
            break  # every feasible method was discarded

    candidates = [make_plan((), params)]
    if best_single is not None:
        candidates.append(best_single)
    if chosen:
        candidates.append(make_plan([methods[i] for i in chosen], params))
    return min(candidates, key=plan_key)


def _forced_bounds(
    methods: Sequence[AttackMethod],
    weights: Sequence[int],
    params: AttackerParams,
    budget_cells: Sequence[int],
    scale: int,
) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(bound, known, margin) for the DP objective value * (1 - failure
    product) - phi(cells / scale) at each budget of budget_cells cells:
    bound[b, i] is at least the objective of every set that holds method
    i and fits budget b's cells (-inf if none does), known[b] is the
    objective of a set that fits them, and margin[b] covers the float
    error of both. None where the bound does not hold: a value <= 0, a phi
    coefficient < 0 or a success outside [0, 1].

    With a_i = -log1p(-s_i), a set of w cells and mass A = sum a_i has the
    objective G(w, A) = value * (1 - exp(-A)) - phi(w / scale), concave in
    (w, A). The most mass within w cells, A*(w), is the fractional
    knapsack in a_i / w_i order (Dantzig), concave and piecewise linear.
    The relaxation max G(w, A*(w)) over w <= K is reached at t0 = min(peak,
    K). For a slope sigma that supports A* at t0, a set holding i has
    A <= A*(t0) + sigma (w - t0) + min(0, a_i - sigma w_i), and the tangent
    plane of G at (t0, A*(t0)) turns that into the bound, one vector
    expression for every method. known is the best ratio-order prefix
    within K cells.
    """
    value, spec = params.value, params.cost_fn
    alpha, beta = spec.linear_coeff, spec.quadratic_coeff
    if not (value > 0 and alpha >= 0 and beta >= 0):
        return None
    # column 0 is the frontier's origin; columns 1.. hold each method's
    # cells and, from its success s, its mass -log1p(-s), computed in
    # place, so that the views w and mass see it
    steps = np.zeros((2, len(methods) + 1))
    steps[0, 1:] = weights
    steps[1, 1:] = [m.success for m in methods]
    w, mass = steps[0, 1:, None], steps[1, 1:, None]
    with np.errstate(all="ignore"):
        np.log1p(np.negative(steps[1], out=steps[1]), out=steps[1])
        if not steps[1].max() <= 0:  # a success below 0, above 1 or nan
            return None
        np.negative(np.maximum(steps[1], -_SURE_MASS, out=steps[1]), out=steps[1])
        # a free method comes first (inf), after the origin; a free one of no
        # mass (nan) is 0
        ratio = np.fmax(steps[1] / steps[0], 0.0)
        ratio[0] = np.inf
        order = np.argsort(-ratio, kind="stable")
        # breakpoint k of the frontier holds the first k methods in ratio
        # order, and slope[k] is A*'s slope left of it: inf at 0 and 0 past
        # the last. Free methods repeat breakpoints at cell 0.
        cells, frontier = steps[:, order].cumsum(axis=1)
        # phi(c / scale) = c * (linear + quadratic * c)
        linear, quadratic = alpha / scale, beta / scale**2
        relaxed = -value * np.expm1(-frontier) - cells * (linear + quadratic * cells)
        best = np.maximum.accumulate(relaxed).tolist()
        cells_at, mass_at = cells.tolist(), frontier.tolist()
        slope = ratio[order].tolist() + [0.0]
        j = int(relaxed.argmax())
        peak = _relaxation_peak(cells_at, mass_at, slope, j, value, linear, quadratic)

        def tangent(t0: float) -> tuple[float, float, float, float]:
            """(dG/dA, sigma, dG along sigma, G) at t0 cells on the frontier."""
            at = bisect.bisect_right(cells_at, t0) - 1  # the last breakpoint <= t0
            if cells_at[at] == t0:
                mass0, left, right = mass_at[at], slope[at], slope[at + 1]
            else:
                share = (t0 - cells_at[at]) / (cells_at[at + 1] - cells_at[at])
                mass0 = mass_at[at] + share * (mass_at[at + 1] - mass_at[at])
                left = right = slope[at + 1]
            lam = value * math.exp(-mass0)
            mu = linear + 2.0 * quadratic * t0  # -dG/dw
            # of the slopes that support A* at t0, the one closest to where
            # G is flat along it
            sigma = min(max(mu / lam, right), left) if lam > 0 else right
            top = -value * math.expm1(-mass0) - t0 * (linear + quadratic * t0)
            return lam, sigma, lam * sigma - mu, top

        at_peak = tangent(peak)
        rows = []
        for limit in budget_cells:
            t0 = min(peak, limit)
            lam, sigma, tilt, top = at_peak if t0 == peak else tangent(t0)
            # tilt * (w - t0) at its largest over w in [w_i, limit] is
            # base + per_cell * w_i
            if tilt > 0:
                base, per_cell = top + tilt * (limit - t0), 0.0
            else:
                base, per_cell = top - tilt * t0, tilt
            known = best[bisect.bisect_right(cells_at, limit) - 1]
            margin = _BOUND_MARGIN * (value + limit * (linear + quadratic * limit))
            rows.append((base, per_cell, lam, sigma, known, margin, limit))
        base, per_cell, lam, sigma, known, margin, limit = np.array(rows).T
        # one column per budget, then transposed
        bound = base + per_cell * w + lam * np.minimum(0.0, mass - sigma * w)
        np.putmask(bound, w > limit, -np.inf)  # no set within the budget holds it
    return bound.T, known, margin


def _relaxation_peak(
    cells: list[float],
    frontier: list[float],
    slope: list[float],
    j: int,
    value: float,
    linear: float,
    quadratic: float,
) -> float:
    """The cells w in [0, cells[-1]] that maximize the concave relaxation
    value * (1 - exp(-A*(w))) - w * (linear + quadratic * w), given its
    best breakpoint j: that breakpoint, or a Newton search on the segment
    next to it where the slope changes sign. Newton from the segment's left
    end rises monotonically to the root, as the slope is convex in w; any w
    is sound for the bound, so the search needs no exact root."""
    lam = value * math.exp(-frontier[j])
    dphi = linear + 2.0 * quadratic * cells[j]
    if lam * slope[j + 1] > dphi:
        seg = j + 1
    elif j > 0 and lam * slope[j] < dphi:
        seg = j
    else:
        return cells[j]
    lo, hi = cells[seg - 1], cells[seg]
    base, r = frontier[seg - 1], slope[seg]
    t = lo
    for _ in range(30):
        gain = value * r * math.exp(-(base + r * (t - lo)))
        grad = gain - linear - 2.0 * quadratic * t
        curve = r * gain + 2.0 * quadratic
        if not (grad > 0 and curve > 0):
            break
        nxt = min(t + grad / curve, hi)
        if not nxt > t:  # no progress, or a nan from overflow
            break
        t = nxt
    return t


def hybrid_plans(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    budgets: Sequence[float],
    config: SolverConfig = SolverConfig(),
) -> list[HybridResult]:
    """The one DP/greedy dispatcher: the best plan at each budget for the
    value and cost function in params (params.budget is not read).

    At each budget, a method whose forced-in bound (_forced_bounds) falls
    below a known plan's objective by more than the margin is left out.
    Every budget whose table over the methods kept fits (dp_table_fits)
    goes to the DP, and every other budget to the sampled greedy on the
    whole algorithm. The DP budgets share one table over the union of
    their kept methods, built at the largest of them, where that fits the
    cell cap; otherwise each builds its own. A table over any superset of
    a budget's kept methods gives the plan the unreduced DP gives there.
    """
    if any(k < 0 for k in budgets):
        raise BudgetNegative(f"budget {min(budgets)} is negative")
    methods = tuple(_sorted_methods(algorithm))
    scale = config.cost_scale
    cells = [_cells(k, scale, up=False) for k in budgets]
    # a budget whose one-row table does not fit goes to the greedy
    tabled = sorted((c, b) for b, c in enumerate(cells) if _fits(0, c, config))
    plans: dict[int, AttackPlan] = {}
    if tabled:
        limits = [c for c, _ in tabled]
        # capped at the cell cap, past every table, and not at the largest
        # budget, so that the bound at one budget never depends on another
        weights = _cost_cells([m.cost for m in methods], scale, config.max_table_cells)
        bounds = _forced_bounds(methods, weights, params, limits, scale)
        if bounds is None:
            kept = np.ones((len(limits), len(methods)), dtype=bool)
        else:
            bound, known, margin = bounds
            # written so that a nan bound keeps its method
            kept = ~(bound < (known - margin)[:, None])
        counts = kept.sum(axis=1).tolist()
        routed = [row for row, n in enumerate(counts) if _fits(n, limits[row], config)]
        groups = []
        if routed:
            union = kept[routed].any(axis=0)
            if _fits(int(np.count_nonzero(union)), limits[routed[-1]], config):
                groups = [(routed, union)]
            else:
                groups = [([row], kept[row]) for row in routed]
        for rows, keep in groups:
            at = np.flatnonzero(keep).tolist()
            table = _fill_table(
                tuple(methods[i] for i in at),
                tuple(weights[i] for i in at),
                limits[rows[-1]] + 1,
                scale,
            )
            group = [tabled[row][1] for row in rows]
            plans.update(zip(group, dp_plans(table, params, [budgets[b] for b in group])))
    return [
        HybridResult(plans[b], "dp") if b in plans else HybridResult(
            solve_sample_greedy(algorithm, replace(params, budget=k), config), "greedy"
        )
        for b, k in enumerate(budgets)
    ]


def solve_hybrid(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: SolverConfig = SolverConfig(),
) -> HybridResult:
    """hybrid_plans at params.budget alone."""
    return hybrid_plans(algorithm, params, (params.budget,), config)[0]
