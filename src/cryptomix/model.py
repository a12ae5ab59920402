"""Domain types and the payoff formulas shared by every solver.

All types are immutable value data; all operations are pure functions.
Probabilities and costs are 64-bit floats and comparisons elsewhere use
explicit tolerances. Success/failure products are always accumulated over
methods sorted by id, so that independently computed utilities are
bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

# a probability at or below this is outside a strategy's support
SUPPORT_EPS = 1e-7


def _dataclass_state(obj) -> dict:
    """obj's dataclass fields: the pickle and deep-copy state of a frozen
    object that solvers keep derived data on (the attacker's prepared
    record, the defender polytope), which a copy rebuilds on first use."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass(frozen=True)
class AttackMethod:
    """One cryptanalysis technique: success probability and resource cost."""

    id: str
    success: float
    cost: float


@dataclass(frozen=True)
class EncryptionAlgorithm:
    """A defender option: cost vector, resilience, value, family, attacks."""

    id: str
    op_cost: float
    cpu_cost: float
    mem_cost: float
    latency: float
    resilience: float
    protected_value: float
    family: int
    attacks: tuple[AttackMethod, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attacks", tuple(self.attacks))

    __getstate__ = _dataclass_state


@dataclass(frozen=True)
class CostFunctionSpec:
    """Attack cost penalty phi(x) = linear_coeff * x + quadratic_coeff * x**2."""

    linear_coeff: float = 1.0
    quadratic_coeff: float = 0.0


@dataclass(frozen=True)
class AttackerParams:
    """Value of a successful breach, total budget, and cost penalty. A
    valid attacker has a finite value > 0 and finite phi coefficients
    >= 0 (_attacker_problems), the domain where phi is convex and
    nondecreasing and the attacker's DP and bound are exact; scenario
    validation and every attacker solver apply that one rule."""

    value: float
    budget: float
    cost_fn: CostFunctionSpec = CostFunctionSpec()


@dataclass(frozen=True)
class DefenderWeights:
    """Utility weights converting resource costs and resilience into gain."""

    g_op: float
    g_cpu: float
    g_mem: float
    g_tau: float
    g_r: float


@dataclass(frozen=True)
class DefenderBudgets:
    """Global resource caps, resilience floor, and per-family mass caps."""

    c_op_max: float
    c_cpu_max: float
    c_mem_max: float
    t_max: float
    r_min: float
    # a mapping is not hashable; == still compares the caps
    family_caps: Mapping[int, float] = field(hash=False)

    def __post_init__(self) -> None:
        # read-only over a copy: a polytope kept on the instance stays valid
        object.__setattr__(self, "family_caps", MappingProxyType(dict(self.family_caps)))

    def __reduce__(self):
        # a mappingproxy neither pickles nor deep-copies: rebuild from a dict
        *values, family_caps = (getattr(self, f.name) for f in fields(self))
        return type(self), (*values, dict(family_caps))

    def cap(self, family: int) -> float:
        # families without a declared cap are uncapped
        return float(self.family_caps.get(family, 1.0))


class _Cost(NamedTuple):
    """One capped cost of the defender: its usage key, which is also its
    polytope label, and the names of its EncryptionAlgorithm field, its
    DefenderBudgets cap and its DefenderWeights weight."""

    key: str
    field: str
    cap: str
    weight: str


# the defender's cost model, in the one order that the polytope rows, the
# utility terms, the usage keys, the CSV columns and validate_instance
# all follow; resilience, a floor and a gain, comes after these rows
COSTS = (
    _Cost("op", "op_cost", "c_op_max", "g_op"),
    _Cost("cpu", "cpu_cost", "c_cpu_max", "g_cpu"),
    _Cost("mem", "mem_cost", "c_mem_max", "g_mem"),
    _Cost("latency", "latency", "t_max", "g_tau"),
)


@dataclass(frozen=True)
class GameInstance:
    """Full scenario: algorithms, defender weights/budgets, attacker params."""

    algorithms: tuple[EncryptionAlgorithm, ...]
    weights: DefenderWeights
    budgets: DefenderBudgets
    attacker: AttackerParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))

    __getstate__ = _dataclass_state

    def algorithm(self, algorithm_id: str) -> EncryptionAlgorithm:
        for alg in self.algorithms:
            if alg.id == algorithm_id:
                return alg
        raise KeyError(algorithm_id)


@dataclass(frozen=True)
class ScenarioSet:
    """Strictly increasing candidate attacker budgets."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(float(k) for k in self.budgets))
        if not self.budgets:
            raise ValueError("scenario set is empty")
        # written as "not all(...)" so that a NaN budget fails them
        if not all(k >= 0 for k in self.budgets):
            raise ValueError("scenario budgets must be nonnegative")
        if not all(a < b for a, b in zip(self.budgets, self.budgets[1:])):
            raise ValueError("scenario budgets must be strictly increasing")

    def __len__(self) -> int:
        return len(self.budgets)


@dataclass(frozen=True)
class MixedStrategy:
    """Probability vector aligned with GameInstance.algorithms."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = tuple(float(p) for p in self.probs)
        for i, p in enumerate(probs):
            if not math.isfinite(p):
                raise ValueError(f"strategy entry {i} is not finite: {p}")
        object.__setattr__(self, "probs", probs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > SUPPORT_EPS)


@dataclass(frozen=True)
class AttackPlan:
    """Attacker best-response subset with its metrics."""

    methods: tuple[str, ...]
    success_prob: float
    total_cost: float
    utility: float


def failure_product(methods: Iterable[AttackMethod]) -> float:
    """Probability that every independent method fails, accumulated over
    methods sorted by id; 1 for the empty set."""
    failure = 1.0
    for m in sorted(methods, key=lambda m: m.id):
        failure *= 1.0 - m.success
    return failure


def _weighted_sum(weights: Iterable[float], values: Iterable[float]) -> float:
    """sum of weights[i] * values[i], added left to right from 0.0: the one
    strategy-sum loop, whose bits do not depend on the Python version (the
    built-in sum() adds floats with compensated summation from 3.12 on)."""
    total = 0.0
    for w, v in zip(weights, values, strict=True):
        total += w * v
    return float(total)


def phi(spec: CostFunctionSpec, total_cost: float) -> float:
    """Convex nondecreasing attack cost penalty; phi(0) = 0. A square that
    overflows (a total above about 1.34e154) is inf, and adds 0.0 at a
    zero quadratic coefficient."""
    try:
        quadratic = spec.quadratic_coeff * total_cost**2
    except OverflowError:
        quadratic = spec.quadratic_coeff * math.inf if spec.quadratic_coeff else 0.0
    return spec.linear_coeff * total_cost + quadratic


def make_plan(methods: Iterable[AttackMethod], params: AttackerParams) -> AttackPlan:
    """Build an AttackPlan with fields recomputed in the canonical id order.

    Every solver returns plans through this constructor so that plans for
    the same method set are bitwise identical regardless of which solver
    produced them.
    """
    ms = sorted(methods, key=lambda m: m.id)
    # failure_product's loop, with the cost summed over the same sort
    total, failure = 0.0, 1.0
    for m in ms:
        total += m.cost
        failure *= 1.0 - m.success
    p_succ = 1.0 - failure
    return AttackPlan(
        methods=tuple(m.id for m in ms),
        success_prob=p_succ,
        total_cost=total,
        utility=params.value * p_succ - phi(params.cost_fn, total),
    )


def plan_key(plan: AttackPlan) -> tuple[float, float, tuple[str, ...]]:
    """Total order used to break ties everywhere: higher utility first,
    then lower total cost, then the colexicographically smallest id set,
    its ids compared from the largest down. Adding one id above all of a
    set's ids keeps that order, and a set without an id comes before
    every set that has it and no larger id, so the DP decides the rule
    by keeping, on an exact tie, the set without the new method."""
    return (-plan.utility, plan.total_cost, plan.methods[::-1])


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


def _sign(name: str, value: float, rule: str, finite: bool = True) -> list[str]:
    """The violation of value where it fails rule, ">= 0" or "> 0", written
    as "not x >= 0" or "not x > 0" so that a NaN fails it too; then, unless
    finite is False, where it is +inf. [] where value passes."""
    if not (value > 0 if rule == "> 0" else value >= 0):
        return [f"{name} must be {rule}, got {value}"]
    if finite and value == math.inf:
        return [f"{name} must be finite, got {value}"]
    return []


def _within(name: str, value: float, interval: str) -> list[str]:
    """The violation of value outside interval, one of "[0,1]", "(0,1)"
    and "(0,1]", which a NaN is outside of; [] where value is inside."""
    above = value > 0 if interval[0] == "(" else value >= 0
    below = value < 1 if interval[-1] == ")" else value <= 1
    return [] if above and below else [f"{name} out of {interval}: {value}"]


def _attacker_problems(params: AttackerParams) -> list[str]:
    """The one rule for a valid attacker, applied by validate_instance and
    by every attacker solver: a finite value > 0 and finite phi
    coefficients >= 0, each worded by _sign. [] where params pass."""
    problems = _sign("attacker value", params.value, "> 0")
    for name in ("linear_coeff", "quadratic_coeff"):
        coeff = getattr(params.cost_fn, name)
        problems += _sign(f"attacker cost_fn.{name}", coeff, ">= 0")
    return problems


def validate_instance(instance: GameInstance) -> ValidationReport:
    """Report-style validation of one scenario; never raises. Every sign
    and range rule goes through _sign or _within, so a NaN fails it with
    the message a bad finite number gets. A defender cost,
    protected_value, cap or weight that passes its rule at +inf is flagged
    as not finite, as the LPs cannot hold it, and so is an attacker value
    or phi coefficient (_attacker_problems); an infinite attack cost or
    budget stays legal."""
    problems: list[str] = []
    if not instance.algorithms:
        problems.append("scenario has no algorithms")
    seen_ids: set[str] = set()
    for alg in instance.algorithms:
        if alg.id in seen_ids:
            problems.append(f"duplicate algorithm id {alg.id!r}")
        seen_ids.add(alg.id)
        for cost in COSTS:
            problems += _sign(f"{alg.id}: {cost.field}", getattr(alg, cost.field), ">= 0")
        problems += _within(f"{alg.id}: resilience", alg.resilience, "[0,1]")
        problems += _sign(f"{alg.id}: protected_value", alg.protected_value, "> 0")
        seen_attacks: set[str] = set()
        for atk in alg.attacks:
            if atk.id in seen_attacks:
                problems.append(f"{alg.id}: duplicate attack id {atk.id!r}")
            seen_attacks.add(atk.id)
            problems += _within(f"{alg.id}/{atk.id}: success", atk.success, "(0,1)")
            problems += _sign(f"{alg.id}/{atk.id}: cost", atk.cost, ">= 0", finite=False)
    for fam, cap in instance.budgets.family_caps.items():
        problems += _within(f"family {fam}: cap", cap, "(0,1]")
    b = instance.budgets
    for cost in COSTS:
        problems += _sign(cost.cap, getattr(b, cost.cap), "> 0")
    problems += _within("r_min", b.r_min, "[0,1]")
    for name in [cost.weight for cost in COSTS] + ["g_r"]:
        problems += _sign(name, getattr(instance.weights, name), ">= 0")
    problems += _attacker_problems(instance.attacker)
    problems += _sign("attacker budget", instance.attacker.budget, ">= 0", finite=False)
    return ValidationReport(ok=not problems, violations=tuple(problems))
