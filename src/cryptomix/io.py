"""Scenario file I/O.

The on-disk format is versioned JSON mirroring the model types field for
field. Parsing is strict: unknown or missing fields raise ParseError with
the JSON path, and the parsed instance must pass validate_instance.
"""

from __future__ import annotations

import json
import math
from importlib import resources
from pathlib import Path
from typing import Any, Optional

from .errors import ParseError, ValidationError
from .model import (
    AttackMethod,
    AttackerParams,
    CostFunctionSpec,
    DefenderBudgets,
    DefenderWeights,
    EncryptionAlgorithm,
    GameInstance,
    validate_instance,
)
from .robust import ScenarioSet

SCHEMA_VERSION = "1"
_BUNDLED_NAME = "reference_scenario.json"

_ROOT_FIELDS = (
    "schema_version",
    "algorithms",
    "weights",
    "budgets",
    "attacker",
    "scenario_budgets",
)
_ATTACK_FIELDS = ("id", "success", "cost")
_ALGORITHM_FIELDS = (
    "id",
    "op_cost",
    "cpu_cost",
    "mem_cost",
    "latency",
    "resilience",
    "protected_value",
    "family",
    "attacks",
)
_WEIGHT_FIELDS = ("g_op", "g_cpu", "g_mem", "g_tau", "g_r")
_BUDGET_FIELDS = ("c_op_max", "c_cpu_max", "c_mem_max", "t_max", "r_min", "family_caps")
_ATTACKER_FIELDS = ("value", "budget", "cost_fn")
_COST_FN_FIELDS = ("linear_coeff", "quadratic_coeff")


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _sequence(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = [key for key in mapping if key not in allowed]
    if unknown:
        raise ParseError(f"{path}: unknown field {unknown[0]!r}")


def _require(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ParseError(f"{path}: missing field {key!r}")
    return mapping[key]


def _real(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    # json accepts NaN and Infinity, and an integer literal can exceed any float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {number}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string, got {value!r}")
    return value


def _parse_attack(raw: Any, path: str) -> AttackMethod:
    obj = _mapping(raw, path)
    _reject_unknown(obj, _ATTACK_FIELDS, path)
    return AttackMethod(
        id=_string(_require(obj, "id", path), f"{path}.id"),
        success=_real(_require(obj, "success", path), f"{path}.success"),
        cost=_real(_require(obj, "cost", path), f"{path}.cost"),
    )


def _parse_algorithm(raw: Any, path: str) -> EncryptionAlgorithm:
    obj = _mapping(raw, path)
    _reject_unknown(obj, _ALGORITHM_FIELDS, path)
    attacks = _sequence(_require(obj, "attacks", path), f"{path}.attacks")
    return EncryptionAlgorithm(
        id=_string(_require(obj, "id", path), f"{path}.id"),
        op_cost=_real(_require(obj, "op_cost", path), f"{path}.op_cost"),
        cpu_cost=_real(_require(obj, "cpu_cost", path), f"{path}.cpu_cost"),
        mem_cost=_real(_require(obj, "mem_cost", path), f"{path}.mem_cost"),
        latency=_real(_require(obj, "latency", path), f"{path}.latency"),
        resilience=_real(_require(obj, "resilience", path), f"{path}.resilience"),
        protected_value=_real(
            _require(obj, "protected_value", path), f"{path}.protected_value"
        ),
        family=_integer(_require(obj, "family", path), f"{path}.family"),
        attacks=tuple(
            _parse_attack(item, f"{path}.attacks[{i}]") for i, item in enumerate(attacks)
        ),
    )


def _parse_weights(raw: Any) -> DefenderWeights:
    obj = _mapping(raw, "weights")
    _reject_unknown(obj, _WEIGHT_FIELDS, "weights")
    values = {key: _real(_require(obj, key, "weights"), f"weights.{key}") for key in _WEIGHT_FIELDS}
    return DefenderWeights(**values)


def _parse_budgets(raw: Any) -> DefenderBudgets:
    obj = _mapping(raw, "budgets")
    _reject_unknown(obj, _BUDGET_FIELDS, "budgets")
    caps_raw = _mapping(_require(obj, "family_caps", "budgets"), "budgets.family_caps")
    caps = {}
    keys: dict[int, str] = {}
    for key, value in caps_raw.items():
        try:
            family = int(key)
        except ValueError:
            raise ParseError(
                f"budgets.family_caps: key {key!r} is not an integer family id"
            ) from None
        if family in keys:
            raise ParseError(
                f"budgets.family_caps: keys {keys[family]!r} and {key!r} both name family {family}"
            )
        keys[family] = key
        caps[family] = _real(value, f"budgets.family_caps[{key!r}]")
    return DefenderBudgets(
        c_op_max=_real(_require(obj, "c_op_max", "budgets"), "budgets.c_op_max"),
        c_cpu_max=_real(_require(obj, "c_cpu_max", "budgets"), "budgets.c_cpu_max"),
        c_mem_max=_real(_require(obj, "c_mem_max", "budgets"), "budgets.c_mem_max"),
        t_max=_real(_require(obj, "t_max", "budgets"), "budgets.t_max"),
        r_min=_real(_require(obj, "r_min", "budgets"), "budgets.r_min"),
        family_caps=caps,
    )


def _parse_attacker(raw: Any) -> AttackerParams:
    obj = _mapping(raw, "attacker")
    _reject_unknown(obj, _ATTACKER_FIELDS, "attacker")
    cost_fn = CostFunctionSpec()
    if "cost_fn" in obj:
        fn = _mapping(obj["cost_fn"], "attacker.cost_fn")
        _reject_unknown(fn, _COST_FN_FIELDS, "attacker.cost_fn")
        cost_fn = CostFunctionSpec(
            linear_coeff=_real(fn.get("linear_coeff", 1.0), "attacker.cost_fn.linear_coeff"),
            quadratic_coeff=_real(
                fn.get("quadratic_coeff", 0.0), "attacker.cost_fn.quadratic_coeff"
            ),
        )
    return AttackerParams(
        value=_real(_require(obj, "value", "attacker"), "attacker.value"),
        budget=_real(_require(obj, "budget", "attacker"), "attacker.budget"),
        cost_fn=cost_fn,
    )


def parse_scenario(payload: Any) -> tuple[GameInstance, Optional[ScenarioSet]]:
    """Parse an already-decoded JSON document. Raises ParseError on any
    structural problem; performs no semantic validation."""
    root = _mapping(payload, "$")
    _reject_unknown(root, _ROOT_FIELDS, "$")
    version = _string(_require(root, "schema_version", "$"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"schema_version: expected {SCHEMA_VERSION!r}, got {version!r}"
        )
    algorithms = _sequence(_require(root, "algorithms", "$"), "algorithms")
    instance = GameInstance(
        algorithms=tuple(
            _parse_algorithm(item, f"algorithms[{i}]") for i, item in enumerate(algorithms)
        ),
        weights=_parse_weights(_require(root, "weights", "$")),
        budgets=_parse_budgets(_require(root, "budgets", "$")),
        attacker=_parse_attacker(_require(root, "attacker", "$")),
    )
    scenarios = None
    if "scenario_budgets" in root:
        raw = _sequence(root["scenario_budgets"], "scenario_budgets")
        budgets = tuple(
            _real(item, f"scenario_budgets[{i}]") for i, item in enumerate(raw)
        )
        try:
            scenarios = ScenarioSet(budgets=budgets)
        except ValueError as exc:
            raise ValidationError(f"scenario_budgets: {exc}") from None
    return instance, scenarios


def _validated(
    instance: GameInstance, scenarios: Optional[ScenarioSet]
) -> tuple[GameInstance, Optional[ScenarioSet]]:
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationError("; ".join(report.violations))
    return instance, scenarios


def load_scenario(path) -> tuple[GameInstance, Optional[ScenarioSet]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    return _validated(*parse_scenario(payload))


def bundled_scenario_path() -> Path:
    return Path(str(resources.files("cryptomix").joinpath("data", _BUNDLED_NAME)))


def load_bundled_scenario() -> tuple[GameInstance, Optional[ScenarioSet]]:
    text = resources.files("cryptomix").joinpath("data", _BUNDLED_NAME).read_text("utf-8")
    return _validated(*parse_scenario(json.loads(text)))


def scenario_payload(
    instance: GameInstance, scenarios: Optional[ScenarioSet] = None
) -> dict:
    """Schema-shaped dict for an instance, suitable for json.dump."""
    payload: dict = {
        "schema_version": SCHEMA_VERSION,
        "algorithms": [
            {
                "id": alg.id,
                "op_cost": alg.op_cost,
                "cpu_cost": alg.cpu_cost,
                "mem_cost": alg.mem_cost,
                "latency": alg.latency,
                "resilience": alg.resilience,
                "protected_value": alg.protected_value,
                "family": alg.family,
                "attacks": [
                    {"id": atk.id, "success": atk.success, "cost": atk.cost}
                    for atk in alg.attacks
                ],
            }
            for alg in instance.algorithms
        ],
        "weights": {
            "g_op": instance.weights.g_op,
            "g_cpu": instance.weights.g_cpu,
            "g_mem": instance.weights.g_mem,
            "g_tau": instance.weights.g_tau,
            "g_r": instance.weights.g_r,
        },
        "budgets": {
            "c_op_max": instance.budgets.c_op_max,
            "c_cpu_max": instance.budgets.c_cpu_max,
            "c_mem_max": instance.budgets.c_mem_max,
            "t_max": instance.budgets.t_max,
            "r_min": instance.budgets.r_min,
            "family_caps": {
                str(fam): cap for fam, cap in sorted(instance.budgets.family_caps.items())
            },
        },
        "attacker": {
            "value": instance.attacker.value,
            "budget": instance.attacker.budget,
            "cost_fn": {
                "linear_coeff": instance.attacker.cost_fn.linear_coeff,
                "quadratic_coeff": instance.attacker.cost_fn.quadratic_coeff,
            },
        },
    }
    if scenarios is not None:
        payload["scenario_budgets"] = list(scenarios.budgets)
    return payload


def save_scenario(
    instance: GameInstance, path, scenarios: Optional[ScenarioSet] = None
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_payload(instance, scenarios), fh, indent=2)
        fh.write("\n")
