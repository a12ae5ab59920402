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
solve_brute_force's, but it can name other ids. That ranking needs a
value > 0, where a smaller failure product is a better set, and phi's
coefficients >= 0: every solver takes only the attacker that scenario
validation accepts (model._attacker_problems) and raises ValidationError
on any other. Every DP table is filled and read in one routine,
_dp_plans.
Costs and budgets become cells by one rule, _grid_cells.

Every solver and hybrid_plans checks its inputs in _checked and then reads
the algorithm's prepared record (_Prepared): its methods in id order, their
cost and success arrays, its checks, the weights on one cost grid and
the bound's algorithm-only part (_bound_frontier). The record is built on
first use and kept on the frozen EncryptionAlgorithm, in one slot keyed by
the grid (cost_scale, max_table_cells) and replaced in one assignment, as
defender_polytope keeps its polytope on the instance; a pickle or deep copy
holds the fields only. It holds nothing that depends on the attacker's
value, phi, a budget or an answer, so later calls with any params skip
the sort, the checks and the grid without any answer being kept.

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
against brute force and the plans against the unreduced DP by repr.
solve_dp never reduces; it is the exact oracle.

The bound also counts equal methods. A run is a maximal group of methods
adjacent in id order that share the DP's factor 1.0 - s and their weight,
and every set _fill_table keeps holds a prefix of each run. Say member j
of a run is added at a cell to a set that lacks member j - 1, the method
just before it in id order. That set was at its cell when layer j - 1
came, and adding j - 1 to it there gave the product adding j gives, bit
for bit: the same factor, multiplied at the same place in the id-order
chain. So the target cell already holds a product no larger, the strict
< keeps it, and j is never added there. A set that holds a run's t-th
member therefore holds t of its members, t * w cells at least, and
_forced_bounds bounds it by the relaxation there; equal methods past the
count the best plan can use are left out before any table is built.
Runs compare factors, not the masses -log1p(-s) the bound uses: distinct
successes can share a mass while their factors, and so the DP's
products, differ.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import BudgetNegative, TableTooLarge, TooManyMethods, ValidationError
from .model import (
    AttackMethod,
    AttackPlan,
    AttackerParams,
    CostFunctionSpec,
    EncryptionAlgorithm,
    _attacker_problems,
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
    the DP/greedy dispatch rule (_fits), and the greedy's RNG seed. A
    field the solvers cannot use raises ValidationError, naming it."""

    cost_scale: int = 10
    max_table_cells: int = 100_000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        # bool is an int subclass, but never a count or a seed here; the
        # scale and the cap meet float amounts, so a float must hold them
        for field, low, high in (
            ("cost_scale", 1, sys.float_info.max),
            ("max_table_cells", 1, sys.float_info.max),
            ("rng_seed", 0, math.inf),
        ):
            number = getattr(self, field)
            if type(number) is bool or not isinstance(number, int) or not low <= number <= high:
                bounds = f"[{low}, {high}]" if high < math.inf else f">= {low}"
                raise ValidationError(f"SolverConfig.{field} must be an int {bounds}, got {number!r}")


@dataclass(frozen=True)
class HybridResult:
    plan: AttackPlan
    solver: str  # "dp" or "greedy"


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _Frontier:
    """The forced-in bound's part that depends only on an algorithm and a
    grid (_bound_frontier): each method's weight and mass -log1p(-s) as
    columns, the ratio-order frontier as arrays (cells, mass) and as tuples
    with its slopes, and each method's fewest cells in a set the DP keeps
    (heavy), with, where methods form runs, A*'s slope right of them (gain)
    and exp(-A*) there (fail); gain and fail are None on a run-free
    algorithm."""

    w: np.ndarray
    mass: np.ndarray
    cells: np.ndarray
    frontier: np.ndarray
    cells_at: tuple[float, ...]
    mass_at: tuple[float, ...]
    slope: tuple[float, ...]
    heavy: np.ndarray
    gain: Optional[np.ndarray]
    fail: Optional[np.ndarray]


@dataclass(frozen=True, eq=False)
class _Prepared:
    """What every solver reads of one algorithm on one grid, key =
    (cost_scale, max_table_cells): its methods in id order, their cost and
    success arrays, their weights in cells (_grid_cells) and the bound's
    frontier. Its arrays are read-only."""

    key: tuple[int, int]
    methods: tuple[AttackMethod, ...]
    cost: np.ndarray
    success: np.ndarray
    weights: tuple[int, ...]
    frontier: _Frontier


def _prepare(algorithm: EncryptionAlgorithm, config: SolverConfig) -> _Prepared:
    """The algorithm's record on config's grid. A cost that is not >= 0,
    then a success outside [0, 1], NaN included in both, raises
    ValidationError naming its method, before any record exists; an
    infinite cost fits no budget and stays legal."""
    methods = tuple(sorted(algorithm.attacks, key=lambda m: m.id))
    cost = np.array([m.cost for m in methods], dtype=float)
    success = np.array([m.success for m in methods], dtype=float)
    for bad, rule in (
        (~(cost >= 0), "cost must be >= 0, got {0.cost}"),
        (~((success >= 0) & (success <= 1)), "success must be in [0, 1], got {0.success}"),
    ):
        if bad.any():
            method = methods[bad.argmax()]
            raise ValidationError(f"{algorithm.id}/{method.id}: " + rule.format(method))
    _read_only(cost, success)
    # capped at the cell cap, past every table, and not at any budget
    # (_grid_cells), so that the bound at one budget never depends on another
    weights = tuple(_grid_cells(cost, config, up=True))
    key = (config.cost_scale, config.max_table_cells)
    return _Prepared(key, methods, cost, success, weights, _bound_frontier(success, weights))


def _prepared(algorithm: EncryptionAlgorithm, config: SolverConfig) -> _Prepared:
    """The record kept on the algorithm for config's grid, built and kept
    in its one slot where the slot holds another grid's or none."""
    record = vars(algorithm).get("_prepared")
    if record is None or record.key != (config.cost_scale, config.max_table_cells):
        record = _prepare(algorithm, config)
        # threads racing here may each build one; all are equal
        object.__setattr__(algorithm, "_prepared", record)
    return record


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
    if len(algorithm.attacks) > 25:
        raise TooManyMethods(f"{len(algorithm.attacks)} methods exceeds the 2^25 guard")
    # the default grid's record: brute force reads only its methods
    methods = _checked(algorithm, params, (params.budget,), SolverConfig()).methods
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


def _grid_cells(amounts: Sequence[float], config: SolverConfig, up: bool) -> list:
    """amounts in 1/config.cost_scale cost cells, in one array pass: costs
    (up) round up and budgets down, so a set whose cells fit a budget's
    cells fits the real budget too. The one grid rule of the DP and the
    dispatcher.

    A grid point keeps its cell: the decimal 2.3 is the float nearest 23/10,
    so it stays 23 cells although 2.3 * 10 evaluates to 22.999999999999996
    (np.rint rounds half to even, and the grid is float(cost_scale)'s). An
    amount whose scaled value overflows is math.inf cells, more than any
    table holds. Costs are then capped at config.max_table_cells, past
    every table, so that every weight is an int; every budget that does not
    overflow is an int too.
    """
    amount = np.asarray(amounts, dtype=float)
    scale = float(config.cost_scale)
    with np.errstate(over="ignore"):
        scaled = amount * scale
    nearest = np.rint(scaled)
    cells = np.where(nearest / scale == amount, nearest, np.ceil(scaled) if up else np.floor(scaled))
    if up:
        np.minimum(cells, config.max_table_cells, out=cells)
    return [c if c == math.inf else int(c) for c in cells.tolist()]


def _penalty(spec: CostFunctionSpec, total_cost: np.ndarray) -> np.ndarray:
    """phi over an array of total costs, elementwise and bitwise: np.float_power
    calls the C pow that Python's x**2 calls (np.power(x, 2) squares as x * x,
    which can differ in the last bit), and a finite total whose square
    overflows adds 0.0 at a zero quadratic coefficient, as in phi."""
    quadratic = spec.quadratic_coeff * np.float_power(total_cost, 2.0)
    if not spec.quadratic_coeff and np.isnan(quadratic).any():
        quadratic[np.isnan(quadratic) & np.isfinite(total_cost)] = 0.0
    return spec.linear_coeff * total_cost + quadratic


def _checked(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    budgets: Iterable[float],
    config: SolverConfig,
) -> _Prepared:
    """The one input check of every solver and of hybrid_plans; returns the
    algorithm's record on config's grid (_prepared). Each budget is checked
    first, written so that a NaN fails too (BudgetNegative), then the
    attacker by scenario validation's rule (model._attacker_problems),
    every violation in one ValidationError worded as validate_instance
    words it, then the costs and successes, once per record (_prepare)."""
    for budget in budgets:
        if not budget >= 0:
            raise BudgetNegative(f"budget {budget} is {'negative' if budget < 0 else 'not a number'}")
    problems = _attacker_problems(params)
    if problems:
        raise ValidationError("; ".join(problems))
    return _prepared(algorithm, config)


def _fits(n_methods: int, cells: float, config: SolverConfig) -> bool:
    """The table-size rule that solve_dp enforces and the only rule that
    sends an attacker subgame to the DP or the greedy: max(n, 1) rows, as
    _fill_table allocates one even for no methods, x (cells + 1) within
    config.max_table_cells. A budget whose scaled value overflows is
    math.inf cells and never fits."""
    return max(n_methods, 1) * (cells + 1) <= config.max_table_cells


def _fill_table(
    methods: Sequence[AttackMethod], weights: Sequence[int], size: int
) -> tuple[np.ndarray, np.ndarray]:
    """The exact DP's table (minfail, take) of size cells: minfail[c] is the
    smallest failure product among subsets whose cells sum to exactly c,
    and take[j, c] says whether the set chosen at (method j, cell c) holds
    method j. Neither depends on any cell above c, so one table answers
    every budget below its size, bitwise as a table of that budget's size
    would.

    The layer loop goes over methods in id order, so that failure
    products accumulate as make_plan computes them, bit for bit. A weight
    at or past size reaches no cell and its method is skipped. Method j is
    taken at a cell only where its candidate product is strictly smaller:
    every set at layer j - 1 holds methods below j only, so on an exact tie
    the set kept, the one without j, is the colex-smaller (plan_key), and
    adding j to the sets of a lower cell keeps their order. Where products
    carry no rounding, each cell's set is the colex-first of the sets of
    least product there."""
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
    return minfail, take


def _dp_plans(
    methods: Sequence[AttackMethod],
    weights: Sequence[int],
    params: AttackerParams,
    budget_cells: Sequence[int],
    scale: float,
) -> list[AttackPlan]:
    """The DP's best plan at each budget of budget_cells cells, over
    methods in id order, for the value and cost function in params
    (params.budget is not read). One table is filled up to the largest
    budget, the utility value * (1 - minfail[c]) - phi(c / scale) is
    computed once for every cell, and a budget's answer is the first cell
    of highest utility among the cells it covers, then the methods taken on
    the parent-pointer walk down from that cell."""
    minfail, take = _fill_table(methods, weights, max(budget_cells) + 1)
    # unreachable cells (minfail = inf) are -inf
    reachable = np.flatnonzero(minfail < np.inf)
    utility = np.full(minfail.size, -np.inf)
    utility[reachable] = params.value * (1.0 - minfail[reachable]) - _penalty(
        params.cost_fn, reachable / scale
    )
    plans = []
    made: dict[int, AttackPlan] = {}  # by best cell: budgets often share one
    for cells in budget_cells:
        # cell 0 is not necessarily the empty set: zero-cost methods land there
        best = int(utility[: cells + 1].argmax())
        if best not in made:
            chosen, cell = [], best
            for j in range(len(methods) - 1, -1, -1):
                if take[j, cell]:
                    chosen.append(methods[j])
                    cell -= weights[j]
            made[best] = make_plan(chosen[::-1], params)
        plans.append(made[best])
    return plans


def solve_dp(
    algorithm: EncryptionAlgorithm,
    params: AttackerParams,
    config: SolverConfig = SolverConfig(),
) -> AttackPlan:
    """Exact optimum under scaled-integer costs: the best value *
    (1 - minfail[c]) - phi(c / scale) over all reachable cells c within the
    budget, over every method. Costs are rounded up to whole cells and the
    budget down (_grid_cells), so the plan keeps to the real budget; on
    the 1/scale grid nothing is rounded. A table past
    config.max_table_cells (_fits) raises TableTooLarge."""
    record = _checked(algorithm, params, (params.budget,), config)
    n = len(record.methods)
    [cells] = _grid_cells((params.budget,), config, up=False)
    if not _fits(n, cells, config):
        raise TableTooLarge(
            f"{n} methods x {cells + 1} cost levels exceeds {config.max_table_cells} table cells"
        )
    return _dp_plans(
        record.methods, record.weights, params, (cells,), float(config.cost_scale)
    )[0]


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
    Its inputs are checked as in the other solvers (_checked).

    The coins come from an RNG seeded with config.rng_seed. `coins`
    optionally replaces it with an explicit sequence of uniforms for
    deterministic replay; it must hold one coin per step.

    Densities change only when a coin accepts, since only then do the
    failure product and the residual budget move. So one numpy pass per
    acceptance ranks every live feasible method (density descending, then
    cost, then id order, as a stable sort gives), and the steps until the
    next acceptance walk that ranking in Python.
    """
    record = _checked(algorithm, params, (params.budget,), config)
    methods, cost, success = record.methods, record.cost, record.success
    draw = _coins(config.rng_seed, coins).__next__
    budget = params.budget

    # singleton utility value * (1 - 1.0 * (1 - s)) - phi(0.0 + c), as make_plan
    total = 0.0 + cost
    # an infinite cost at a zero coefficient is nan, an overflowing square inf
    with np.errstate(invalid="ignore", over="ignore"):
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


def _bound_frontier(success: np.ndarray, weights: Sequence[int]) -> _Frontier:
    """The forced-in bound's part that depends only on the methods, in id
    order, their successes in [0, 1], and their weights.

    With a_i = -log1p(-s_i), capped at _SURE_MASS, the most mass within w
    cells, A*(w), is the fractional knapsack in a_i / w_i order (Dantzig),
    concave and piecewise linear: breakpoint k holds the first k methods in
    that order, and slope[k] is A*'s slope left of it, inf at 0 and 0 past
    the last. Free methods come first and repeat breakpoints at cell 0.

    Where methods form runs (_run_ranks; the module docstring), the t-th
    member of a run is held only by sets the DP keeps with t * w_i cells
    or more (heavy); gain is A*'s slope right of heavy and fail is
    exp(-A*(heavy)), which _forced_bounds turns into the relaxation there.
    """
    # column 0 is the frontier's origin; columns 1.. hold each method's
    # cells and, from its success s, its mass -log1p(-s), computed in
    # place, so that the views w and mass see it
    steps = np.zeros((2, success.size + 1))
    steps[0, 1:] = weights
    steps[1, 1:] = success
    w, mass = steps[0, 1:, None], steps[1, 1:, None]
    rank = _run_ranks(success, steps[0, 1:])
    with np.errstate(all="ignore"):
        np.log1p(np.negative(steps[1], out=steps[1]), out=steps[1])
        np.negative(np.maximum(steps[1], -_SURE_MASS, out=steps[1]), out=steps[1])
        # a free method comes first (inf), after the origin; a free one of no
        # mass (nan) is 0
        ratio = np.fmax(steps[1] / steps[0], 0.0)
        ratio[0] = np.inf
        order = np.argsort(-ratio, kind="stable")
        cells, frontier = steps[:, order].cumsum(axis=1)
        slope = ratio[order].tolist() + [0.0]
        heavy, gain, fail = steps[0, 1:], None, None
        if rank is not None:
            heavy = rank * steps[0, 1:]
            at = np.searchsorted(cells, heavy, side="right") - 1
            gain = np.array(slope)[at + 1]  # A*'s slope right of heavy
            fail = np.exp(gain * (cells[at] - heavy) - frontier[at])
            _read_only(gain, fail)
    _read_only(w, mass, cells, frontier, heavy)
    return _Frontier(
        w, mass, cells, frontier, tuple(cells.tolist()), tuple(frontier.tolist()),
        tuple(slope), heavy, gain, fail,
    )


def _forced_bounds(
    front: _Frontier,
    params: AttackerParams,
    budget_cells: Sequence[int],
    scale: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bound, known, margin) for the DP objective value * (1 - failure
    product) - phi(cells / scale) at each budget of budget_cells cells,
    over the frontier of _bound_frontier: bound[b, i] is at least the
    objective of every set that holds method i and fits budget b's cells
    (-inf if none does), known[b] is the objective of a set that fits them,
    and margin[b] covers the float error of both. The bound holds for the
    attacker that _checked passes: a value > 0 and phi coefficients >= 0.

    A set of w cells and mass A = sum a_i has the objective G(w, A) =
    value * (1 - exp(-A)) - phi(w / scale), concave in (w, A). The
    relaxation max G(w, A*(w)) over w <= K is reached at t0 = min(peak, K).
    For a slope sigma that supports A* at t0, a set holding i has A <=
    A*(t0) + sigma (w - t0) + min(0, a_i - sigma w_i), and the tangent
    plane of G at (t0, A*(t0)) turns that into the bound, one vector
    expression for every method. known is the best ratio-order prefix
    within K cells.

    Where methods form runs, the t-th member of a run is bound as t
    members too: a set the DP keeps that holds it has t * w_i cells or
    more, so, where the concave relaxation G(w, A*(w)) has a right slope
    <= 0 at t * w_i, its value there bounds the set at every budget; the
    smaller bound is taken. That is the relaxation at min(max(t * w_i,
    peak), K), -inf past K, wherever it can fall below known, and it needs
    no peak.
    """
    value, spec = params.value, params.cost_fn
    alpha, beta = spec.linear_coeff, spec.quadratic_coeff
    cells, cells_at, mass_at, slope = front.cells, front.cells_at, front.mass_at, front.slope
    with np.errstate(all="ignore"):
        # phi(c / scale) = c * (linear + quadratic * c)
        linear, quadratic = alpha / scale, beta / (scale * scale)
        relaxed = -value * np.expm1(-front.frontier) - cells * (linear + quadratic * cells)
        best = np.maximum.accumulate(relaxed).tolist()
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
        w = front.w
        bound = base + per_cell * w + lam * np.minimum(0.0, front.mass - sigma * w)
        heavy = front.heavy
        if front.fail is not None:
            # the relaxation is concave, so where its right slope at t * w
            # is <= 0 it falls from there on
            fail, gain = front.fail, front.gain
            drop = value * (1.0 - fail) - heavy * (linear + quadratic * heavy)
            falls = value * fail * gain <= linear + 2.0 * quadratic * heavy
            np.minimum(bound, np.where(falls, drop, np.inf)[:, None], out=bound)
        # no set within the budget holds it
        np.putmask(bound, heavy[:, None] > limit, -np.inf)
    return bound.T, known, margin


def _run_ranks(success: np.ndarray, weights: np.ndarray) -> Optional[np.ndarray]:
    """Each method's place t = 1, 2, ... in its run, the maximal group of
    methods adjacent in id order with one failure factor 1.0 - s and one
    weight; None where every run is one method long."""
    factor = 1.0 - success
    joins = (weights[1:] == weights[:-1]) & (factor[1:] == factor[:-1])
    if not joins.any():
        return None
    place = np.arange(success.size)
    head = np.ones(success.size, dtype=bool)  # where a run starts
    np.logical_not(joins, out=head[1:])
    return place - np.maximum.accumulate(place * head) + 1


def _relaxation_peak(
    cells: Sequence[float],
    frontier: Sequence[float],
    slope: Sequence[float],
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
    Every budget whose table over the methods kept fits (_fits) goes to
    the DP, and every other budget to the sampled greedy on the whole
    algorithm. The DP budgets share one _dp_plans call, so one table, over
    the union of their kept methods, built at the largest of them, where
    that fits the cell cap; otherwise each has its own. A table over any
    superset of a budget's kept methods gives the plan the unreduced DP
    gives there.
    """
    record = _checked(algorithm, params, budgets, config)
    methods, weights = record.methods, record.weights
    # the grid's float scale (_grid_cells): past 1e154 the bound's
    # scale * scale is then inf, where an int square fails to convert
    scale = float(config.cost_scale)
    cells = _grid_cells(budgets, config, up=False)
    # a budget whose one-row table does not fit goes to the greedy
    tabled = sorted((c, b) for b, c in enumerate(cells) if _fits(0, c, config))
    plans: dict[int, AttackPlan] = {}
    if tabled:
        limits = [c for c, _ in tabled]
        bound, known, margin = _forced_bounds(record.frontier, params, limits, scale)
        # written so that a nan bound keeps its method
        kept = ~(bound < (known - margin)[:, None])
        counts = kept.sum(axis=1).tolist()
        routed = [row for row, n in enumerate(counts) if _fits(n, limits[row], config)]
        groups = [([row], kept[row]) for row in routed]
        if len(routed) > 1:
            union = kept[routed].any(axis=0)
            if _fits(int(np.count_nonzero(union)), limits[routed[-1]], config):
                groups = [(routed, union)]
        for rows, keep in groups:
            at = np.flatnonzero(keep).tolist()
            found = _dp_plans(
                tuple(methods[i] for i in at),
                tuple(weights[i] for i in at),
                params,
                [limits[row] for row in rows],
                scale,
            )
            plans.update(zip((tabled[row][1] for row in rows), found))
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
