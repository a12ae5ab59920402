"""Attacker subgame solvers: exact DP, sampled greedy, hybrid dispatch and
a brute-force oracle.

All solvers maximize value * P_succ(S) - phi(sum of costs) over method
subsets S within the budget, and rank plans identically: higher utility,
then lower total cost, then lexicographically smallest id set.

The DP applies that last rule to failure products, not to utilities. At
each cost cell it keeps the set whose failure product, as computed along
the id-order chain (one multiplication per method, ascending ids), is
smaller; only products that are exactly equal as so computed fall to the
id rule. Two sets whose products differ by an ulp can still round to the
same success probability and utility (1 - 0.8 is 0.19999999999999996
while 0.5 * 0.4 is 0.2), and a prefix an ulp higher is dropped before the
sets it would grow into are compared. Rounded multiplication is monotone,
so the DP never loses utility by this: where costs lie on its grid and
add up exactly in floats (such as multiples of 0.5 at the default scale),
its plan has the utility and total cost of solve_brute_force's, but it
can name other ids.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DpConfig:
    """Cost discretization and table-size guard for the exact DP."""

    cost_scale: int = 10
    max_table_cells: int = 100_000


@dataclass(frozen=True)
class GreedyConfig:
    """Acceptance probability and RNG seed for the sampled greedy."""

    accept_prob: float = 0.414
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
    then the smaller ids. The DP ranks those products before rounding (see
    the module docstring), so on such ties the two agree on utility and
    cost but not always on ids.
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


def _bit(i: int) -> np.uint64:
    return np.uint64(1 << (i % 64))


def _cell_sets(take: np.ndarray, weights: Sequence[int], layer: int, words: int) -> np.ndarray:
    """The chain set of every cell at `layer` as bit masks, in one vectorised
    backward pass over `take`: bit i % 64 of word i // 64 stands for method i
    in id order, so masks[:, c] holds what _chain_indices(take, weights,
    layer, c) returns."""
    masks = np.zeros((words, take.shape[1]), dtype=np.uint64)
    cell = np.arange(take.shape[1])
    for i in range(layer, -1, -1):
        hit = take[i, cell]
        masks[i // 64, hit] |= _bit(i)
        cell = cell - weights[i] * hit
    return masks


def _carry_sets(masks: np.ndarray, take_row: np.ndarray, j: int, w: int) -> np.ndarray:
    """The cell sets at layer j from those at layer j - 1 and take[j]."""
    with_j = np.zeros_like(masks)
    with_j[:, w:] = masks[:, : masks.shape[1] - w]
    with_j[j // 64] |= _bit(j)
    return np.where(take_row, with_j, masks)


def _with_j_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each column, whether set a plus method j has a smaller id tuple
    than set b, where both sets hold only methods below j.

    Let d be the lowest method in exactly one of the sets; below d the two
    tuples agree. If d is in a, a + {j} comes first iff b goes on past d,
    for otherwise b is a prefix of it. If d is in b, or the sets are equal,
    b comes first. With unique ids, index order is id order.
    """
    first = np.zeros(a.shape[1], dtype=bool)
    b_above = np.zeros(a.shape[1], dtype=bool)  # b has a method in a higher word
    # from the top word down, so the word holding d decides last
    for a_k, b_k in zip(a[::-1], b[::-1]):
        diff = a_k ^ b_k
        low = diff & -diff  # bit d if d lies in this word
        # with d outside b, b's word holds a bit above d iff it exceeds bit d
        decided = ((a_k & low) != 0) & (b_above | (b_k > low))
        first = np.where(diff != 0, decided, first)
        b_above |= b_k != 0
    return first


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


def dp_table_fits(n_methods: int, budget: float, config: DpConfig = DpConfig()) -> bool:
    """The table-size rule shared by every caller of the DP, and the only
    rule that sends an attacker subgame to the DP or the greedy: max(n, 1)
    rows, as build_dp_table allocates one even for no methods, x (budget
    cells + 1) within config.max_table_cells. A budget whose scaled value
    overflows never fits."""
    cells = _cells(budget, config.cost_scale, up=False) + 1
    return max(n_methods, 1) * cells <= config.max_table_cells


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
    algorithm: EncryptionAlgorithm, budget: float, config: Optional[DpConfig] = None
) -> DpTable:
    """Fill the DP table for every cost cell up to `budget`.

    Failure products accumulate over methods in ascending id order, matching
    make_plan bit for bit. An exact tie in the failure product keeps the
    lexicographically smaller id set. Ties are decided a layer at a time on
    per-cell set fingerprints, which are built at the first tie and carried
    forward after it, so tie-free tables never build them.
    """
    config = config or DpConfig()
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

    minfail = np.full(size, np.inf)
    minfail[0] = 1.0
    take = np.zeros((max(n, 1), size), dtype=bool)
    masks: Optional[np.ndarray] = None
    # one candidate and one difference buffer for the whole table; cells
    # below a method's weight are never written, as it cannot reach them
    cand = np.empty(size)
    diff = np.empty(size)
    with np.errstate(invalid="ignore"):
        for j, (m, w) in enumerate(zip(methods, weights)):
            if w >= size:
                continue
            reach, prev, gap = cand[w:], minfail[w:], diff[w:]
            np.multiply(minfail[: size - w], 1.0 - m.success, out=reach)
            # reach - prev is < 0 exactly where reach < prev, and 0 exactly
            # where the two are equal and finite: inf - inf and a nan
            # candidate (inf * 0) give nan, which is neither
            np.subtract(reach, prev, out=gap)
            np.less(gap, 0.0, out=take[j, w:])
            if np.count_nonzero(gap) < gap.size:  # a zero: some cell ties
                ties = np.flatnonzero(gap == 0.0) + w
                if masks is None:
                    masks = _cell_sets(take, weights, j - 1, (n + 63) // 64)
                live = j // 64 + 1  # the sets hold methods below j only
                take[j, ties] = _with_j_first(masks[:live, ties - w], masks[:live, ties])
            if masks is not None:
                masks = _carry_sets(masks, take[j], j, w)
            # tied cells hold equal values, so the smaller is the taken one;
            # fmin passes over a nan candidate, which is never taken
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
    """
    scale = table.cost_scale
    size = table.minfail.size
    penalty = _penalty(params.cost_fn, np.arange(size) / scale)
    # unreachable cells (minfail = inf) come out at -inf
    utility = params.value * (1.0 - table.minfail) - penalty
    n = len(table.methods)
    plans = []
    for budget in budgets:
        if budget < 0:
            raise BudgetNegative(f"budget {budget} is negative")
        cells = _cells(budget, scale, up=False) + 1
        if cells > size:
            raise ValueError(f"budget {budget} needs {cells} cost cells, the table has {size}")
        # cell 0 is not necessarily the empty set: zero-cost methods land there
        best = int(np.argmax(utility[:cells]))
        chosen = _chain_indices(table.take, table.weights, n - 1, best) if n else []
        plans.append(make_plan([table.methods[i] for i in chosen], params))
    return plans


def solve_dp(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: Optional[DpConfig] = None,
) -> AttackPlan:
    """Exact optimum under scaled-integer costs: the best value *
    (1 - minfail[c]) - phi(c / scale) over all reachable cells c within the
    budget, from a table built at that budget. Costs are rounded up to
    whole cells and the budget down (_cells), so the plan keeps to the real
    budget; on the 1/scale grid nothing is rounded."""
    return dp_plans(build_dp_table(algorithm, params.budget, config), params, (params.budget,))[0]


def _coins(config: GreedyConfig, coins: Optional[Iterable[float]]) -> Iterator[float]:
    """One uniform per step: from the seeded RNG, or replayed from coins,
    which raises ValueError when the sequence runs out."""
    if coins is None:
        rng = np.random.default_rng(config.rng_seed)
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
    config: Optional[GreedyConfig] = None,
    coins: Optional[Iterable[float]] = None,
) -> AttackPlan:
    """Randomized density greedy with a per-iteration acceptance coin.

    Phase 1 records the best feasible singleton. Phase 2 repeatedly takes
    the remaining feasible method with the highest marginal density
    (value * marginal success gain - cost) / cost, flips a coin, and either
    adds it or discards it permanently. The better of the greedy set and
    the singleton is returned; the empty plan wins ties.

    `coins` optionally replaces the seeded RNG with an explicit sequence of
    uniforms for deterministic replay; it must hold one coin per step.

    Densities change only when a coin accepts, since only then do the
    failure product and the residual budget move. So one numpy pass per
    acceptance ranks every live feasible method (density descending, then
    cost, then id order, as a stable sort gives), and the steps until the
    next acceptance walk that ranking in Python.
    """
    config = config or GreedyConfig()
    draw = _coins(config, coins).__next__
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
            if draw() < config.accept_prob:
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


def hybrid_plans(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    budgets: Sequence[float],
    dp_config: Optional[DpConfig] = None,
    greedy_config: Optional[GreedyConfig] = None,
) -> list[HybridResult]:
    """The one DP/greedy dispatcher: the best plan at each budget for the
    value and cost function in params (params.budget is not read). The
    budgets whose table fits (dp_table_fits) share one DP table, built at
    the largest of them; every other budget goes to the sampled greedy."""
    dp_config = dp_config or DpConfig()
    routed = [k for k in budgets if dp_table_fits(len(algorithm.attacks), k, dp_config)]
    plans = {}
    if routed:
        table = build_dp_table(algorithm, max(routed), dp_config)
        plans = dict(zip(routed, dp_plans(table, params, routed)))
    return [
        HybridResult(plans[k], "dp") if k in plans else HybridResult(
            solve_sample_greedy(algorithm, replace(params, budget=k), greedy_config), "greedy"
        )
        for k in budgets
    ]


def solve_hybrid(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    dp_config: Optional[DpConfig] = None,
    greedy_config: Optional[GreedyConfig] = None,
) -> HybridResult:
    """hybrid_plans at params.budget alone."""
    return hybrid_plans(algorithm, params, (params.budget,), dp_config, greedy_config)[0]
